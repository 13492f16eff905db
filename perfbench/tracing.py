"""Outside-in tracing: wrappers on the package's module attributes.

A wrapper replaces the attribute a caller looks up (cycles imports
rank_exact_dense by name, so cycles.rank_exact_dense is wrapped next to
exactla.rank_exact_dense) and records one span per call: name, start,
end, parent span and operation id. Spans stay in memory and are written
out when the run ends. A layer's self time is its span's duration minus
the part of that interval its child spans cover. For lru_cache stages the
real work is the growth of cache_info().misses across the call.
"""

import importlib
import time

# metric name -> the (module, attribute) pairs callers look it up by
LAYERS = {
    "kernels.modp_rank": [("kernels", "modp_rank")],
    "kernels.greedy_rank_filter": [("kernels", "greedy_rank_filter")],
    "kernels.modp_rref": [("kernels", "modp_rref")],
    "kernels.modp_matvec": [("kernels", "modp_matvec")],
    "kernels.cover_dfs": [("kernels", "cover_dfs")],
    "exactla.rank_exact_dense": [("exactla", "rank_exact_dense"), ("cycles", "rank_exact_dense")],
    "exactla.coefficients_in_span": [
        ("exactla", "coefficients_in_span"),
        ("cycles", "coefficients_in_span"),
    ],
    "exactla.kernel_basis": [("exactla", "kernel_basis")],
    "exactla.hermite_normal_form": [("exactla", "hermite_normal_form")],
    "cycles.diamond_stack": [("cycles", "_diamond_stack")],
    "cycles.diamond_span_rank": [("cycles", "diamond_span_rank")],
    "cycles.basis_select": [("cycles", "_diamond_basis_indices")],
    "cycles.solve_factor": [("cycles", "_solve_factor")],
    "cycles.decompose_trade": [("cycles", "decompose_trade")],
    "cycles.verify_recombination": [("cycles", "_verify_recombination")],
    "cycles.diamond_config_pairs": [("cycles", "diamond_config_pairs")],
    "cycles.apply_diamond_move": [("cycles", "apply_diamond_move")],
    "cycles.best_first_schedule": [("cycles", "_best_first_schedule")],
    "cycles.run_cover": [("cycles", "_run_cover")],
    "latin.transform": [("latin", "transform")],
    "latin.apply_move": [("latin", "apply_move")],
    "primes.sample_primes": [("primes", "sample_primes"), ("cycles", "sample_primes")],
    "cli.main": [("cli", "main")],
    "cli.emit": [("cli", "_emit")],
}

CACHED = ("cycles.diamond_stack", "cycles.basis_select", "cycles.solve_factor")

# per-layer metrics: (name, unit, better); BENCHMARK.json lists the same
PER_LAYER = (
    [(f"{layer}.{kind}", unit, "lower") for layer in LAYERS for kind, unit in (("calls", "count"), ("s", "s"))]
    + [(f"{layer}.misses", "count", "lower") for layer in CACHED]
    + [
        ("kernels.elim_bytes", "bytes-computed", "lower"),
        ("kernels.greedy_rank_filter.kept_ratio", "ratio", "higher"),
        ("kernels.cover_dfs.nodes", "count", "lower"),
        ("cycles.solve_factor.rejected", "count", "lower"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


class Recorder:
    """In-memory spans [name, start, end, parent, op] and integer counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.stack = []
        self.op = None

    def open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = self.clock()
        self.stack.pop()

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def dump(self):
        return {"spans": self.spans, "counters": self.counters}


def _rows_cols(a):
    shape = getattr(a, "shape", None)
    return (shape[0], shape[1]) if shape is not None and len(shape) == 2 else (0, 0)


def _count_elim(rec, args, out, missed):
    rows, cols = _rows_cols(args[0])
    rec.count("kernels.elim_bytes", rows * cols * 8)


def _count_greedy(rec, args, out, missed):
    _count_elim(rec, args, out, missed)
    rec.count("kernels.greedy_rank_filter.scanned", _rows_cols(args[0])[0])
    rec.count("kernels.greedy_rank_filter.kept", len(out))


def _count_cover(rec, args, out, missed):
    rec.count("kernels.cover_dfs.nodes", int(out[2]))


def _count_rejected(rec, args, out, missed):
    # a computed factor of None means the prime was unlucky
    if missed and out is None:
        rec.count("cycles.solve_factor.rejected", 1)


HOOKS = {
    "kernels.modp_rank": _count_elim,
    "kernels.modp_rref": _count_elim,
    "kernels.greedy_rank_filter": _count_greedy,
    "kernels.cover_dfs": _count_cover,
    "cycles.solve_factor": _count_rejected,
}


def wrap(rec, name, fn, hook=None):
    cached = hasattr(fn, "cache_info")

    def traced(*args, **kwargs):
        before = fn.cache_info().misses if cached else 0
        sid = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        missed = fn.cache_info().misses - before if cached else 0
        if cached:
            rec.count(f"{name}.misses", missed)
        if hook is not None:
            hook(rec, args, out, missed)
        return out

    traced.__wrapped__ = fn
    return traced


def install(rec):
    """Wrap every layer attribute; returns the originals for uninstall()."""
    saved = []
    for name, sites in LAYERS.items():
        for mod_name, attr in sites:
            mod = importlib.import_module(f"tradekernel.{mod_name}")
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, wrap(rec, name, fn, HOOKS.get(name)))
    return saved


def uninstall(saved):
    for mod, attr, fn in reversed(saved):
        setattr(mod, attr, fn)


def _covered(intervals, lo, hi):
    total, end = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def self_times(spans):
    """name -> [calls, self seconds] over closed spans."""
    children = {}
    for name, start, end, parent, _op in spans:
        if parent is not None and end is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (name, start, end, _parent, _op) in enumerate(spans):
        if end is None:
            continue
        rec = out.setdefault(name, [0, 0.0])
        rec[0] += 1
        rec[1] += (end - start) - _covered(children.get(sid, []), start, end)
    return out


def per_layer(dumps, untraced_rate, traced_rate):
    """Per-layer metrics {name: value} from one or more Recorder dumps."""
    calls_s = {}
    counters = {}
    for d in dumps:
        for name, (calls, secs) in self_times(d["spans"]).items():
            acc = calls_s.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        for k, v in d["counters"].items():
            counters[k] = counters.get(k, 0) + v
    out = {}
    for name in LAYERS:
        calls, secs = calls_s.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = secs
    for name in CACHED:
        out[f"{name}.misses"] = counters.get(f"{name}.misses", 0)
    scanned = counters.get("kernels.greedy_rank_filter.scanned", 0)
    out["kernels.elim_bytes"] = counters.get("kernels.elim_bytes", 0)
    out["kernels.greedy_rank_filter.kept_ratio"] = (
        counters.get("kernels.greedy_rank_filter.kept", 0) / scanned if scanned else 0.0
    )
    out["kernels.cover_dfs.nodes"] = counters.get("kernels.cover_dfs.nodes", 0)
    out["cycles.solve_factor.rejected"] = counters.get("cycles.solve_factor.rejected", 0)
    out["trace.ops_per_s_untraced"] = untraced_rate
    out["trace.ops_per_s_traced"] = traced_rate
    out["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    return out
