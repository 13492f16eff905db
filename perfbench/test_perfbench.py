"""Self-tests of the benchmark: percentile rule, span arithmetic, verifiers.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import functools
import json
import shutil
from collections import Counter
from fractions import Fraction

import pytest

import machine

machine.use_checkout_source()

import coldcli  # noqa: E402
import inputs  # noqa: E402
import loop  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from tradekernel import cycles, latin  # noqa: E402


# -- percentile rule


def test_tail_is_the_eleventh_largest():
    value, pct, beyond = measure.tail(list(range(1, 31)))
    assert (value, beyond) == (20, 10)
    assert pct == pytest.approx(100 * 20 / 30)
    assert sum(1 for x in range(1, 31) if x > value) == 10


def test_tail_falls_back_to_the_median_with_few_samples():
    assert measure.tail([5, 1, 3]) == (3, pytest.approx(200 / 3), 1)
    value, _, beyond = measure.tail(list(range(11)))
    assert (value, beyond) == (0, 10)


def test_spread_matches_statistics_quantiles():
    vals = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # quantiles(n=4) with the default exclusive method: 11.75, 14.5, 17.25
    assert measure.spread(vals) == pytest.approx((17.25 - 11.75) / 14.5)


# -- spans and self time


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = tracing.Recorder(clock)

    def inner(dt):
        clock.t += dt

    winner = tracing.wrap(rec, "inner", inner)

    def outer():
        clock.t += 1.0
        winner(2.0)
        clock.t += 0.5
        winner(3.0)

    tracing.wrap(rec, "outer", outer)()
    st = tracing.self_times(rec.spans)
    assert st["outer"] == [1, pytest.approx(1.5)]
    assert st["inner"] == [2, pytest.approx(5.0)]
    assert rec.spans[1][3] == 0 and rec.spans[0][3] is None


def test_cache_hits_count_calls_but_not_misses_or_parent_time():
    clock = FakeClock()
    rec = tracing.Recorder(clock)

    @functools.lru_cache(maxsize=None)
    def stage(n):
        clock.t += 4.0
        return n * 2

    wstage = tracing.wrap(rec, "cycles.diamond_stack", stage)

    def caller():
        clock.t += 1.0
        wstage(3)  # miss: real work
        wstage(3)  # hit: no time passes
        clock.t += 1.0

    tracing.wrap(rec, "caller", caller)()
    st = tracing.self_times(rec.spans)
    assert st["caller"] == [1, pytest.approx(2.0)]
    assert st["cycles.diamond_stack"] == [2, pytest.approx(4.0)]
    assert rec.counters["cycles.diamond_stack.misses"] == 1


def test_unlucky_primes_count_only_when_computed():
    rec = tracing.Recorder()

    @functools.lru_cache(maxsize=None)
    def factor(n, p):
        return None if p == 3 else n * p

    wf = tracing.wrap(rec, "cycles.solve_factor", factor, tracing.HOOKS["cycles.solve_factor"])
    wf(9, 3), wf(9, 3), wf(9, 5)
    assert rec.counters["cycles.solve_factor.rejected"] == 1
    assert rec.counters["cycles.solve_factor.misses"] == 2


def test_overlapping_children_are_not_subtracted_twice():
    spans = [["p", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0], ["b", 3.0, 6.0, 0, 0]]
    assert tracing.self_times(spans)["p"] == [1, pytest.approx(5.0)]


def test_per_layer_reports_every_listed_metric():
    rec = tracing.Recorder()
    saved = tracing.install(rec)
    try:
        cycles.diamond_span_rank(7)
        cycles.find_cycle_system(9)
    finally:
        tracing.uninstall(saved)
    values = tracing.per_layer([rec.dump()], 2.0, 1.5)
    assert set(values) == {name for name, _, _ in tracing.PER_LAYER}
    assert values["cycles.diamond_span_rank.calls"] == 1
    assert values["exactla.rank_exact_dense.calls"] == 1
    assert values["kernels.cover_dfs.nodes"] > 0
    assert values["trace.overhead_pct"] == pytest.approx(25.0)
    assert cycles.diamond_span_rank is not None and not hasattr(cycles.diamond_span_rank, "__wrapped__")


def test_benchmark_json_lists_the_metrics_the_code_reports():
    doc = json.loads((machine.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(loop.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)


# -- verifiers reject corrupted outputs


def _diamond(poles, mids, s, t):
    return (poles, mids, s, t)


D1 = _diamond((0, 1), (2, 3, 4, 5), 0, 1)
D2 = _diamond((2, 3), (0, 1, 4, 6), 1, 2)


def test_recombination_rejects_a_corrupted_coefficient():
    target = verify.combine([(D1, 2), (D2, Fraction(-1, 3))])
    assert verify.recombination_error([(D1, 2), (D2, Fraction(-1, 3))], target) is None
    assert verify.recombination_error([(D1, 2), (D2, Fraction(1, 3))], target)
    assert verify.recombination_error([(D1, 3), (D2, Fraction(-1, 3))], target)


def test_replay_rejects_a_corrupted_plan():
    start = Counter(verify.diamond_cycles(*D1[:2], D1[3]))  # the target pairing's two cycles
    goal = Counter(verify.diamond_cycles(*D1[:2], D1[2]))
    assert verify.replay_error(start, goal, [(1, D1)], nonnegative=True) is None
    assert verify.replay_error(start, goal, [(-1, D1)], nonnegative=False)
    assert verify.replay_error(start, goal, [(-1, D1)], nonnegative=True)
    assert verify.replay_error(start, goal, [(1, D1)], nonnegative=True, audit=[1])


def test_replay_of_a_real_virtual_plan_and_a_corruption():
    base = cycles.find_cycle_system(9)
    perm = json.loads((machine.BENCH / "pairs9.json").read_text())["pairs"][0]["perm"]
    other = cycles.CycleSystem(9, [cycles.canonical_cycle([perm[v] for v in c]) for c in base.cycles])
    plan = cycles.transform(base, other, mode="virtual")
    start = verify.system_counter([list(c) for c in base.cycles])
    goal = verify.system_counter([list(c) for c in other.cycles])
    moves = [(s, verify.as_diamond(d)) for s, d in plan.moves]
    assert verify.replay_error(start, goal, moves, False, plan.audit) is None
    bad = list(moves)
    bad[3] = (-bad[3][0], bad[3][1])
    assert verify.replay_error(start, goal, bad, False)


def test_latin_replay_rejects_a_corrupted_plan():
    l1 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    l2 = [[(i + 2 * j) % 5 for j in range(5)] for i in range(5)]
    plan = latin.transform(latin.LatinSquare(l1), latin.LatinSquare(l2))
    assert verify.latin_plan_error(l1, l2, plan.moves, plan.improper_counts) is None
    sign, i, j, k = plan.moves[0]
    bad = [(sign, i, j, (k % 4) + 1 if k != 4 else 1)] + list(plan.moves[1:])
    assert verify.latin_plan_error(l1, l2, bad)


def test_diamond_free_oracle():
    found = cycles.search_diamond_free(9, seed=cycles.DEFAULT_SEED)
    good = [list(c) for c in found.cycles]
    assert verify.diamond_free_error(9, good) is None
    first = [list(c) for c in cycles.find_cycle_system(9).cycles]
    assert verify.diamond_config_count(first) == cycles.count_double_diamond_configs(cycles.find_cycle_system(9))
    assert verify.diamond_config_count(first) > 0 and verify.diamond_free_error(9, first)
    assert verify.diamond_free_error(9, good[:-1])  # an edge left uncovered


def test_basis_check_rejects_a_dependent_set():
    basis = [verify.as_diamond(d) for d in cycles.diamond_basis(7)]
    assert verify.basis_error(7, basis) is None
    assert verify.basis_error(7, basis[:-1] + [basis[0]])
    # D(1,2) = D(0,2) - D(0,1) on the same poles and middles
    p, m = basis[0][0], basis[0][1]
    dependent = [(p, m, 0, 1), (p, m, 0, 2), (p, m, 1, 2)]
    assert verify.basis_error(7, basis[:-3] + dependent)


def test_kernel_check():
    dense = [[1, 2, 0], [0, 1, 1]]
    assert verify.kernel_error(dense, 3, [[2, -1, 1]]) is None
    assert verify.kernel_error(dense, 3, [[2, -1, 2]])
    assert verify.kernel_error(dense, 3, [])


def test_cli_payload_checks_reject_corruption():
    bench = coldcli.ColdCli(seed=5, trace=False)
    shutil.rmtree(bench.work)
    span = bench._check_rank("span", 9)
    payload = {"n": 9, "rows": 36, "cols": 378, "rank": 36, "nullity": 342, "diamond_count": 3780,
               "diamond_span_rank": 342, "deficient": False}
    assert span(payload)[0] is None
    assert span(dict(payload, diamond_span_rank=341))[0]
    a = verify.system_counter([list(c) for c in bench.base9.cycles])
    b = verify.system_counter([list(c) for c in bench.pairs[0].cycles])
    dec = cycles.decompose_trade(bench.base9.vector() - bench.pairs[0].vector())
    basis = cycles.diamond_basis(9)
    coeffs = [[f"poles={basis[i].poles[0]},{basis[i].poles[1]} middles={','.join(map(str, basis[i].middles))} "
               f"from={basis[i].source} to={basis[i].target}", int(c)] for i, c in dec.support()]
    check = bench._check_decompose(a, b)
    good = {"integral": True, "support_size": len(coeffs), "coefficients": coeffs}
    assert check(good)[0] is None
    coeffs[0][1] += 1
    assert check(good)[0]


def test_fail_ratio_counts_failed_operations():
    results = [loop.Result("a1", "a", 1.0), loop.Result("a2", "a", 1.0, error="bad"), loop.Result("b", "b", 2.0)]
    metrics, info = loop.summarize(results, 0.5, 10.0, 0.5)
    assert info["fail_ratio"] == pytest.approx(1 / 3)
    assert metrics["ops_per_s"] == pytest.approx(3 / 4)


def test_each_operation_counts_once_at_its_fastest_run():
    ops = [("x", 1.0), ("y", 3.0), ("x", 1.0)]  # one pass; x runs twice in it
    slower = {"x": 1.5, "y": 2.0}  # a second pass, in another order
    results = [loop.Result(k, "c", t) for k, t in ops]
    results += [loop.Result(k, "c", t, pass_index=1) for k, t in slower.items()]
    assert loop.op_times(results) == [1.0, 2.0, 1.0]
    metrics, info = loop.summarize(results, 0.5, 10.0, 0.5)
    assert metrics["ops_per_s"] == pytest.approx(3 / 4)
    assert metrics["op_s_p50"] == 1.0
    assert info["per_class"] == {"c": {"ops": 3, "s": 4.0}}


def test_times_are_rescaled_by_the_slowdown_of_their_pass():
    # pass 0 ran at half speed, pass 1 at the reference speed
    results = [loop.Result("x", "c", 2.0, slowdown=2.0), loop.Result("y", "c", 4.0, slowdown=2.0)]
    results += [loop.Result("x", "c", 1.5, pass_index=1, slowdown=1.0), loop.Result("y", "c", 1.0, pass_index=1, slowdown=1.0)]
    assert loop.op_times(results) == [1.0, 1.0]
    assert loop.op_times(results, scaled=False) == [1.5, 1.0]
    metrics, info = loop.summarize(results, 0.25, 10.0, 0.5)
    assert info["unscaled"]["ops_per_s"] == pytest.approx(2 / 2.5)
    assert info["speed_factor"] == pytest.approx(1.5)


def test_passes_repeat_until_time_and_minimum_are_reached():
    def make_pass(p):
        return ["a", "b"]

    results, passes = loop.run_passes(make_pass, lambda op: loop.Result(op, "c", 1.0), 3.0, min_passes=1)
    assert passes == 2 and [r.pass_index for r in results] == [0, 0, 1, 1]
    _, passes = loop.run_passes(make_pass, lambda op: loop.Result(op, "c", 1.0), 0.5, min_passes=3)
    assert passes == 3


def test_diamond_free_not_found_is_a_verified_result():
    check = coldcli._check_diamond_free(9)
    exits = (0, coldcli.NOT_FOUND_EXIT)
    missed = json.dumps({"payload": {"n": 9, "found": False, "best_count": 2, "restarts": 1}})
    r = coldcli.judge("df", "small", check, exits, coldcli.NOT_FOUND_EXIT, 0.2, missed, "")
    assert (r.error, r.found) == (None, False)
    # not found must come with a positive best count and the not-found exit code
    zero = json.dumps({"payload": {"n": 9, "found": False, "best_count": 0}})
    assert coldcli.judge("df", "small", check, exits, coldcli.NOT_FOUND_EXIT, 0.2, zero, "").error
    assert coldcli.judge("df", "small", check, exits, 0, 0.2, missed, "").error
    # a found system still goes through the oracle, and must exit 0
    cs = cycles.search_diamond_free(9, seed=inputs.search_seeds(1)[0])
    found = json.dumps({"payload": {"n": 9, "found": True, "cycles": [list(c) for c in cs.cycles]}})
    assert coldcli.judge("df", "small", check, exits, 0, 0.2, found, "").error is None
    assert coldcli.judge("df", "small", check, exits, coldcli.NOT_FOUND_EXIT, 0.2, found, "").error
    # other commands and other exit codes still fail
    assert coldcli.judge("df", "small", check, exits, 2, 0.2, missed, "usage").error
    assert coldcli.judge("span 9", "n9", lambda p: (None, None, None), (0,), 1, 0.2, missed, "").error
