"""Exact kernel bases for latin trades and 4-cycle trades.

Submodules: exactla (integer/rational linear algebra), kernels (the
cover search and the search settings: default seed and default node
budget; its modular elimination routines serve the tests and the
benchmark harness only), latin (latin trades and the intercalate
move engine), cycles (4-cycle systems and double-diamond moves), cli
(command line front end, which imports latin or cycles only for the
command group that needs it). The package has no runtime dependencies.
"""

__version__ = "0.1.0"
