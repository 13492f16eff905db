"""How fast the machine runs right now, measured by a fixed reference workload.

The benchmark shares a host whose speed changes by up to half over tens
of seconds to minutes: every operation, the fastest run of it included,
slows down together. The reference workloads are the benchmark's own,
the same in every commit, and touch nothing of the package: an integer
loop in the interpreter (library sessions, timed right before each
operation) and a fresh interpreter importing numpy (cold-cli, whose
operations are process starts). A probe's time over its reference time
is the slowdown at that moment; the median slowdown over a pass says how
much slower the machine ran during it, and times are divided by it.
"""

import statistics
import time

# the reference workloads' median times on the machine the baseline was measured on
REFERENCE_S = 0.002
PROCESS_REFERENCE_S = 0.2
PROCESS_ARGV = ("-c", "import numpy")


def _reference():
    acc = 0
    for i in range(20000):
        acc += (i * i) % 97
    return acc


def slowdown():
    """How much slower than at the reference speed the integer loop runs now."""
    t0 = time.perf_counter()
    _reference()
    return (time.perf_counter() - t0) / REFERENCE_S


def factor(slowdowns):
    """How much slower than the reference speed the machine ran while `slowdowns` were taken."""
    return statistics.median(slowdowns)
