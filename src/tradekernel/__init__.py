"""Exact kernel bases for latin trades and 4-cycle trades.

Submodules: exactla (integer/rational linear algebra), kernels (modular
elimination in numpy, imported when called, and the cover search in
plain Python), latin (latin trades and the intercalate move engine),
cycles (4-cycle systems and double-diamond moves), cli (command line
front end).
"""

__version__ = "0.1.0"
