"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Each test records `ACCEPTANCE <k> <name>: PASS|FAIL (<seconds>s)`; the
lines are printed in the terminal summary after the run. Every numeric
claim is checked exactly; timing ceilings are asserted as well.
"""

import functools
import itertools
import json
import math
import random
import time
from collections import Counter

import pytest

from conftest import record_acceptance
from tradekernel import cycles, exactla, latin
from tradekernel.errors import NotAdmissibleError, SpanDeficientError
from tradekernel.primes import sample_primes

DATA = __file__.rsplit("/", 1)[0] + "/data"


def criterion(k, name, limit_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                assert dt < limit_s, f"criterion {k} took {dt:.1f}s (limit {limit_s}s)"
            except BaseException:
                dt = time.perf_counter() - t0
                record_acceptance(f"ACCEPTANCE {k} {name}: FAIL ({dt:.1f}s)")
                raise
            record_acceptance(f"ACCEPTANCE {k} {name}: PASS ({dt:.1f}s)")

        return wrapper

    return deco


@criterion(1, "latin-nullity", 60)
def test_latin_nullity():
    for n, want in [(2, 1), (3, 8), (4, 27), (5, 64)]:
        m = latin.build_inclusion_matrix(n)
        assert (m.n_rows, m.n_cols) == (3 * n * n, n**3)
        rank = exactla.rank_exact(m)
        assert m.n_cols - rank == want == (n - 1) ** 3


@criterion(2, "intercalate-basis", 120)
def test_intercalate_basis():
    rng = random.Random(2024)
    for n in (2, 3, 4, 5):
        basis = latin.intercalate_basis(n)
        assert len(basis) == (n - 1) ** 3
        m = latin.build_inclusion_matrix(n)
        zero = [0] * m.n_rows
        for v in basis:
            assert m.matvec(v.to_ints()) == zero
        stack = exactla.SparseIntMatrix.from_dense([v.to_ints() for v in basis])
        assert exactla.rank_exact(stack) == len(basis)
        for _ in range(200):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            v = latin.TripleVector(n)
            for c, b in zip(coeffs, basis):
                if c:
                    v = v.add_scaled(b, c)
            got = latin.decompose(v)
            recon = latin.TripleVector(n)
            for (i, j, k), c in got.items():
                recon = recon.add_scaled(latin.intercalate_vector(i, j, k, n), c)
            assert recon == v
            assert got == {
                (i, j, k): c
                for t, c in enumerate(coeffs)
                if c
                for i, j, k in [
                    tuple(x + 1 for x in latin.triple_at(n - 1, t))
                ]
            }


@criterion(3, "golden-example-trade", 30)
def test_golden_example_trade():
    with open(f"{DATA}/example4.trade", encoding="utf-8") as fh:
        trade = latin.parse_trade(fh.read())
    got = latin.decompose(latin.trade_vector(trade))
    assert got == {
        (1, 1, 1): 1,
        (1, 1, 2): -1,
        (2, 2, 2): 1,
        (2, 2, 3): -1,
        (3, 3, 3): 1,
    }


@criterion(4, "cycle-matrix-rank", 300)
def test_cycle_matrix_rank():
    assert cycles.matrix_rank_exact(4) == 3  # not full rank: 3 < 6
    for n in (5, 6, 7):
        r = cycles.matrix_rank_exact(n)
        assert r == math.comb(n, 2)
        assert cycles.kernel_dimension(n) == 3 * math.comb(n, 4) - math.comb(n, 2)
    m9 = cycles.build_inclusion_matrix(9)
    primes = sample_primes(3)
    assert len(set(primes)) == 3 and all(2**30 < p < 2**31 for p in primes)
    ranks = [exactla.rank_mod_p(m9, p) for p in primes]
    assert ranks == [36, 36, 36]
    # mod-p rank <= exact rank <= row count = 36, so 36 is exact
    assert m9.n_cols - 36 == 342


@criterion(5, "diamond-span", 600)
def test_diamond_span():
    assert cycles.diamond_span_rank(6) == 30 == cycles.kernel_dimension(6)
    assert cycles.diamond_span_rank(7) == 84 == cycles.kernel_dimension(7)
    # n=9: mod >=3 distinct 31-bit primes; rows lie in ker M (checked at
    # build time), so span rank <= 342, and any mod-p rank bounds it below
    ds = cycles.enumerate_double_diamonds(9)
    assert len(ds) == 3780
    import numpy as np

    from tradekernel import kernels

    stack = np.zeros((3780, 378), dtype=np.int64)
    for r, d in enumerate(ds):
        for c, val in zip(*_diamond_cols(d)):
            stack[r, c] = val
    for p in sample_primes(3):
        assert kernels.modp_rank(stack % p, p) == 342
    assert cycles.diamond_span_rank(9) == 342
    with pytest.warns(UserWarning), pytest.raises(SpanDeficientError):
        cycles.diamond_basis(5)


def _diamond_cols(d):
    v = cycles.diamond_vector(d, 9).to_ints()
    idx = [i for i, x in enumerate(v) if x]
    return idx, [v[i] for i in idx]


@criterion(6, "cycle-system-existence", 300)
def test_cycle_system_existence():
    t0 = time.perf_counter()
    cs9 = cycles.find_cycle_system(9)
    assert time.perf_counter() - t0 < 10
    for cs, n in [(cs9, 9), (cycles.find_cycle_system(17), 17)]:
        assert len(cs) == cycles.edge_count(n) // 4
        covered = Counter(e for c in cs.cycles for e in c.edge_pairs())
        assert len(covered) == cycles.edge_count(n)
        assert set(covered.values()) == {1}
    for n in (8, 10, 12):
        t0 = time.perf_counter()
        with pytest.raises(NotAdmissibleError):
            cycles.find_cycle_system(n)
        assert time.perf_counter() - t0 < 0.5  # arithmetic only, no search


@criterion(7, "transform-twenty-pairs", 600)
def test_transform_twenty_pairs():
    lam_seen = []
    integral_count = 0
    for s in range(20):
        rng = random.Random(1000 + s)
        cs1 = cycles._find_system_shuffled(9, rng, 10**6)
        cs2 = cycles._find_system_shuffled(9, rng, 10**6)
        assert cs1 != cs2, f"pair {s} degenerate"
        out = cycles.transform(cs1, cs2, mode="virtual")
        if isinstance(out, cycles.RationalCertificate):
            assert out.verified
            assert any(c.denominator > 1 for _, c in out.support)
            continue
        integral_count += 1
        # independent replay of the virtual plan: signed counter arithmetic
        state = Counter({c: 1 for c in cs1.cycles})
        for sign, d in out.moves:
            rm, add = (
                (d.target_cycles(), d.source_cycles())
                if sign > 0
                else (d.source_cycles(), d.target_cycles())
            )
            for c in rm:
                state[c] -= 1
            for c in add:
                state[c] += 1
        assert +state == Counter({c: 1 for c in cs2.cycles})
        # integral case must also schedule in lifted mode; replay at its lambda
        plan = cycles.transform(cs1, cs2, mode="lifted", seed=7)
        assert not isinstance(plan, cycles.RationalCertificate)
        lam_seen.append(plan.lam)
        filler = cycles.find_cycle_system(9)
        lifted = Counter()
        for c in cs1.cycles:
            lifted[c] += 1
        for c in filler.cycles:
            lifted[c] += plan.lam - 1
        for sign, d in plan.moves:
            lifted = cycles.apply_diamond_move(lifted, d, sign)
        want = Counter()
        for c in cs2.cycles:
            want[c] += 1
        for c in filler.cycles:
            want[c] += plan.lam - 1
        assert lifted == want
    record_acceptance(
        f"  criterion 7 detail: {integral_count}/20 integral, lambdas={lam_seen}"
    )


@criterion(8, "diamond-free-search", 900)
def test_diamond_free_search():
    def oracle(cyc_list):
        count = 0
        for a, b in itertools.combinations(set(cyc_list), 2):
            shared = tuple(sorted(set(a) & set(b)))
            if len(shared) == 2 and shared in a.diagonals() and shared in b.diagonals():
                count += 1
        return count

    cc = cycles.canonical_cycle
    A, B, C, D = cc((0, 2, 1, 3)), cc((0, 4, 1, 5)), cc((2, 4, 3, 5)), cc((0, 6, 1, 7))
    E, F = cc((0, 1, 2, 3)), cc((0, 1, 4, 5))
    cases = [
        ([A, B], 1),
        ([A, C], 1),
        ([B, C], 1),
        ([A, B, C], 3),
        ([A, B, D], 3),
        ([A, B, C, D], 5),
        ([E, F], 0),
        ([A, E], 0),
        ([E, cc((0, 1, 2, 4))], 0),
        ([E, cc((4, 5, 6, 7))], 0),
    ]
    assert len(cases) == 10
    for cyc_list, want in cases:
        assert cycles.count_double_diamond_configs(cyc_list) == want == oracle(cyc_list)

    # documented default seed, committed here: succeeds within 500 restarts
    out = cycles.search_diamond_free(9, seed=cycles.DEFAULT_SEED, restarts=500)
    assert isinstance(out, cycles.CycleSystem)
    assert cycles.count_double_diamond_configs(out) == 0 == oracle(out.cycles)


@criterion(9, "integrality-experiment", 300)
def test_integrality_experiment():
    with open(f"{DATA}/integrality_n6.json", encoding="utf-8") as fh:
        fixture = json.load(fh)
    m = cycles.build_inclusion_matrix(6)
    kb = exactla.kernel_basis(m)
    assert len(kb) == 30
    dvs = [cycles.diamond_vector(d, 6).to_ints() for d in cycles.enumerate_double_diamonds(6)]
    runs = [exactla.lattice_equal(dvs, kb) for _ in range(2)]
    assert runs[0] == runs[1], "outcome must be deterministic"
    assert runs[0] == fixture["lattice_equal"]
