"""Order statistics shared by the runner, the baseline script and the self-tests."""

import statistics

TAIL_BEYOND = 10


def tail(samples):
    """Value at the highest percentile that has at least TAIL_BEYOND samples beyond it.

    That is the (TAIL_BEYOND + 1)-th largest sample, at percentile
    100 * (n - TAIL_BEYOND) / n. Returns (value, percentile, samples beyond).
    With too few samples it falls back to the median and says how many lie beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        mid = (n - 1) // 2
        return xs[mid], 100.0 * (mid + 1) / n, n - mid - 1
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def spread(values):
    """Inter-quartile distance as a share of the median, as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
