"""Exact kernel bases for latin trades and 4-cycle trades.

Submodules: exactla (integer/rational linear algebra), kernels (modular
elimination in numpy, imported when called, the cover search in plain
Python, and the search settings: default seed and TRADE_KERNEL_BUDGET),
latin (latin trades and the intercalate move engine), cycles (4-cycle
systems and double-diamond moves), cli (command line front end, which
imports latin or cycles only for the command group that needs it).
"""

__version__ = "0.1.0"
