"""The closed loop shared by all workloads, and the end-to-end metrics it yields."""

import statistics
from dataclasses import asdict, dataclass
from typing import Optional

import speed
from measure import tail

# (name, unit, better); BENCHMARK.json lists the same with their bounds
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("found_ratio", "ratio", "higher"),
    ("plan_moves_mean", "count", "lower"),
)


@dataclass
class Result:
    """One run of an operation: which operation, its class, wall time, what its verifier said.

    `key` names the operation: runs with the same key do the same work on
    the same input.
    """

    key: str
    cls: str
    secs: float
    error: Optional[str] = None
    found: Optional[bool] = None  # set for hill-climb searches
    moves: Optional[int] = None  # set for cycle move plans
    pass_index: int = 0
    slowdown: Optional[float] = None  # the machine's, measured next to the operation (speed.py)


def run_passes(make_pass, run_op, seconds, min_passes=1):
    """Run whole passes over the job list, one operation at a time.

    Every pass holds the same operations, possibly in another order. Stops
    after the pass in which the summed operation time reaches `seconds`,
    but not before `min_passes` passes. Returns (results, number of passes).
    """
    results, busy, p = [], 0.0, 0
    while busy < seconds or p < min_passes:
        for op in make_pass(p):
            r = run_op(op)
            r.pass_index = p
            busy += r.secs
            results.append(r)
        p += 1
    return results, p


def op_times(results, scaled=True):
    """The first pass's operations, each timed by the fastest run of its key in the run.

    A slow spell of the machine only ever adds time, so the fastest of
    several runs of the same work is what the program costs; the first
    pass fixes the mix, so the metrics do not depend on the pass count.
    With `scaled`, each run's time is first rescaled to the reference
    speed by the slowdowns measured in its pass (speed.py), which takes
    out the slow spells that last a whole pass or run.
    """
    factors = {p: 1.0 for p in {r.pass_index for r in results}}
    if scaled:
        for p in factors:
            probes = [r.slowdown for r in results if r.pass_index == p and r.slowdown is not None]
            factors[p] = speed.factor(probes) if probes else 1.0
    best = {}
    for r in results:
        t = r.secs / factors[r.pass_index]
        best[r.key] = min(t, best.get(r.key, t))
    return [best[r.key] for r in results if r.pass_index == 0]


def rate(results):
    return len(results) / sum(r.secs for r in results)


def timing(secs):
    """(ops_per_s, op_s_p50, op_s_tail, tail percentile, samples beyond the tail)."""
    tail_value, tail_pct, beyond = tail(secs)
    return len(secs) / sum(secs), statistics.median(secs), tail_value, tail_pct, beyond


def summarize(results, setup_s, peak_rss_mb, unscaled_setup_s):
    """(end-to-end metric values, side facts such as the tail percentile and fail_ratio)."""
    secs = op_times(results)
    ops_per_s, p50, tail_value, tail_pct, beyond = timing(secs)
    raw = timing(op_times(results, scaled=False))
    probes = [r.slowdown for r in results if r.slowdown is not None]
    searches = [r.found for r in results if r.found is not None]
    plans = [r.moves for r in results if r.moves is not None]
    failed = [r for r in results if r.error]
    metrics = {
        "ops_per_s": ops_per_s,
        "op_s_p50": p50,
        "op_s_tail": tail_value,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "found_ratio": sum(searches) / len(searches) if searches else 0.0,
        "plan_moves_mean": statistics.mean(plans) if plans else 0.0,
    }
    per_class, per_op = {}, {}
    for r, t in zip((r for r in results if r.pass_index == 0), secs):
        per_op[r.key] = t
        acc = per_class.setdefault(r.cls, [0, 0.0])
        acc[0] += 1
        acc[1] += t
    info = {
        "samples": len(secs),
        "runs_per_op": len(results) / len(secs),
        "speed_factor": speed.factor(probes) if probes else None,
        "unscaled": {"ops_per_s": raw[0], "op_s_p50": raw[1], "op_s_tail": raw[2], "setup_s": unscaled_setup_s},
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "fail_ratio": len(failed) / len(results),
        "searches": len(searches),
        "plans": len(plans),
        "per_class": {k: {"ops": n, "s": s} for k, (n, s) in sorted(per_class.items())},
        "per_op_s": per_op,
        "failures": [asdict(r) for r in failed[:5]],
    }
    return metrics, info
