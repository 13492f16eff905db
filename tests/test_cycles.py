"""4-cycle systems, trades, double-diamonds, moves, and searches."""

import functools
import hashlib
import heapq
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tradekernel
from tradekernel import cycles, exactla, kernels
from tradekernel.cycles import (
    CycleSystem,
    CycleTradePair,
    DiamondSearchReport,
    DoubleDiamond,
    FourCycle,
    RationalCertificate,
    apply_diamond_move,
    build_inclusion_matrix,
    canonical_cycle,
    count_double_diamond_configs,
    decompose_trade,
    diamond_basis,
    diamond_span_rank,
    diamond_vector,
    edge_count,
    edge_endpoints,
    edge_index,
    enumerate_cycles,
    enumerate_double_diamonds,
    find_cycle_system,
    kernel_dimension,
    matrix_rank_exact,
    search_diamond_free,
    trade_vector,
    transform,
    validate_trade_pair,
)
from tradekernel.errors import (
    MissingCyclesError,
    NotAdmissibleError,
    ScheduleFailureError,
    SpanDeficientError,
    VerificationError,
)
from tradekernel.primes import default_primes


def pair_moves(c1, c2):
    """(sign, DoubleDiamond) for each move cycles._pair_moves finds for the pair {c1, c2}."""
    table = cycles._cycle_ranks(1 + max(*c1, *c2))
    rank = table[1]
    return [(sign, DoubleDiamond(*spec)) for sign, spec, _, _ in cycles._pair_moves(table, rank[c1], rank[c2])]


def multiset_distance(a, b):
    """L1 distance of two Counters."""
    return sum(abs(a[c] - b[c]) for c in {*a, *b})


def config_pairs_oracle(cyc_list):
    """Every cycle pair whose edge union is a K_{2,4}, by an O(m^2) scan, sorted by (poles, c1, c2)."""
    out = []
    for a, b in itertools.combinations(sorted(set(cyc_list)), 2):
        verts = set(a) | set(b)
        edges = set(a.edge_pairs()) | set(b.edge_pairs())
        poles = sorted(v for v in verts if sum(v in e for e in edges) == 4)
        if len(verts) == 6 and len(poles) == 2:
            if edges == {tuple(sorted((p, m))) for p in poles for m in verts - set(poles)}:
                out.append((tuple(poles), a, b))
    return [(a, b) for _, a, b in sorted(out)]


def config_count_oracle(cyc_list):
    """Direct pairwise check: shared pair must be a diagonal of both."""
    count = 0
    for a, b in itertools.combinations(set(cyc_list), 2):
        shared = set(a) & set(b)
        if len(shared) != 2:
            continue
        pair = tuple(sorted(shared))
        if pair in a.diagonals() and pair in b.diagonals():
            count += 1
    return count


class TestIndexing:
    @given(st.integers(min_value=2, max_value=12), st.data())
    def test_edge_index_bijection(self, n, data):
        e = data.draw(st.integers(min_value=0, max_value=edge_count(n) - 1))
        u, v = edge_endpoints(e, n)
        assert 0 <= u < v < n
        assert edge_index(u, v, n) == e

    def test_edge_count(self):
        assert edge_count(9) == 36

    def test_canonical_cycle_invariance(self):
        # all 8 walk representations of one cycle canonicalize identically
        base = [3, 0, 5, 2]
        reps = []
        for r in range(4):
            rot = base[r:] + base[:r]
            reps.append(tuple(rot))
            reps.append(tuple(reversed(rot)))
        canon = {canonical_cycle(w) for w in reps}
        assert len(canon) == 1
        c = canon.pop()
        assert c.is_canonical()
        assert c == FourCycle(0, 3, 2, 5)

    def test_enumerate_count(self):
        for n in (4, 5, 6, 9):
            assert len(enumerate_cycles(n)) == 3 * math.comb(n, 4)


class TestInclusionMatrix:
    def test_degrees(self):
        for n in (5, 6, 7):
            m = build_inclusion_matrix(n)
            assert (m.n_rows, m.n_cols) == (edge_count(n), 3 * math.comb(n, 4))
            col = Counter(c for _, c in m.entries)
            assert set(col.values()) == {4}
            row = Counter(r for r, _ in m.entries)
            assert set(row.values()) == {(n - 2) * (n - 3)}

    def test_rank_small(self):
        # full rank C(n,2) from n=5 up; n=4 is the rank-3 exception
        assert matrix_rank_exact(4) == 3
        for n in (5, 6, 7):
            assert matrix_rank_exact(n) == edge_count(n)

    def test_kernel_dimension(self):
        assert kernel_dimension(9) == 342
        assert kernel_dimension(4) == 0

    def test_trade_vector_in_kernel(self):
        d = enumerate_double_diamonds(6)[7]
        tp = d.trade_pair(6)
        v = trade_vector(tp)
        m = build_inclusion_matrix(6)
        assert m.matvec(v.to_ints()) == [0] * m.n_rows


# sparse vectors over the 45 cycles of K_6; small entries make cancellation common
_entries = st.dictionaries(st.integers(0, 44), st.integers(-2, 2), max_size=12)


class TestCycleVector:
    @settings(max_examples=200, deadline=None)
    @given(a=_entries, b=_entries, c=st.integers(-3, 3))
    def test_matches_dense_oracle(self, a, b, c):
        da, db = ([e.get(i, 0) for i in range(45)] for e in (a, b))
        va, vb = cycles.CycleVector(6, a), cycles.CycleVector(6, b)
        results = [
            (va, da),
            (va.add_scaled(vb, c), [x + c * y for x, y in zip(da, db)]),
            (va + vb, [x + y for x, y in zip(da, db)]),
            (va - vb, [x - y for x, y in zip(da, db)]),
            (va - va, [0] * 45),
        ]
        cycs = enumerate_cycles(6)
        for v, dense in results:
            assert v.to_ints() == dense
            assert 0 not in v.entries.values()
            assert v.support() == [(cycs[i], x) for i, x in enumerate(dense) if x]
            assert v.is_zero() == (not any(dense))
            assert repr(v) == f"CycleVector(n=6, nnz={sum(map(bool, dense))})"
        assert (va == vb) == (da == db)
        assert va - va == cycles.CycleVector(6)
        assert cycles.CycleVector(6) != cycles.CycleVector(7)

    @given(i=st.one_of(st.integers(max_value=-1), st.integers(min_value=45)), x=st.integers(-2, 2))
    def test_index_out_of_range(self, i, x):
        with pytest.raises(ValueError):
            cycles.CycleVector(6, {i: x})


class TestSystems:
    def test_find_deterministic_and_valid(self):
        a = find_cycle_system(9)
        b = find_cycle_system(9)
        assert a == b
        assert len(a) == 9
        covered = Counter(e for c in a.cycles for e in c.edge_pairs())
        assert set(covered.values()) == {1}
        assert len(covered) == 36

    def test_not_admissible(self):
        for n in (4, 8, 10, 12):
            with pytest.raises(NotAdmissibleError):
                find_cycle_system(n)

    def test_trivial_system(self):
        assert len(find_cycle_system(1)) == 0

    def test_partition_enforced(self):
        good = find_cycle_system(9)
        cyc_list = good.sorted_cycles()
        with pytest.raises(ValueError):
            CycleSystem(9, cyc_list[:-1])  # uncovered edges
        extra = next(c for c in enumerate_cycles(9) if c not in good.cycles)
        with pytest.raises(ValueError):
            CycleSystem(9, cyc_list + [extra])  # overlap

    def test_trade_pair_validation(self):
        d = enumerate_double_diamonds(6)[0]
        t, ts = d.source_cycles(), d.target_cycles()
        assert validate_trade_pair(t, ts) is None
        assert validate_trade_pair(t, t) is not None  # shares cycles
        bad = [t[0], t[0]]
        assert validate_trade_pair(bad, ts) is not None


# (status, chosen, nodes) of kernels.cover_dfs, recorded while it ran on
# padded numpy candidate arrays. Keys: (n, shuffled by random.Random(5), budget).
COVER_DFS = {
    (9, False, 10**6): (0, [0, 78, 38, 62, 226, 290, 317, 348, 377], 9),
    (9, False, 5): (1, [0, 78, 38, 62, 226, -1, -1, -1, -1], 6),
    (9, True, 10**6): (0, [16, 124, 38, 167, 189, 213, 301, 287, 368], 17),
    (9, True, 5): (1, [16, 124, 38, 167, 189, -1, -1, -1, -1], 6),
    (17, False, 10**6): (0, [
        0, 354, 86, 182, 233, 272, 299, 314, 1990, 3086, 3317, 3197, 3236, 3263, 3278, 4200, 5078,
        5117, 5144, 5159, 5657, 6176, 6215, 6242, 6257, 6762, 6840, 6800, 6824, 6988, 7052, 7079,
        7110, 7139,
    ], 34),
    (17, False, 5): (1, [0, 354, 86, 182, 233] + [-1] * 29, 6),
    (17, True, 10**6): (0, [
        90, 385, 744, 641, 1200, 893, 1557, 821, 1899, 2157, 1772, 2572, 2854, 2486, 2983, 3187,
        3465, 3706, 3840, 4091, 4225, 4537, 4921, 5097, 5215, 5638, 5733, 5829, 5801, 6112, 6259,
        6332, 6675, 6793,
    ], 135),
    (17, True, 5): (1, [90, 385, 744, 641, 1200] + [-1] * 29, 6),
}


class TestCoverSearch:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_edge_table_rows(self, n):
        want = tuple(
            tuple(edge_index(u, v, n) for u, v in c.edge_pairs()) for c in enumerate_cycles(n)
        )
        got = cycles.cycle_edge_array(n)
        assert got == want
        assert all(type(e) is int for row in got for e in row)

    @pytest.mark.parametrize(
        "key", sorted(COVER_DFS), ids=lambda k: f"K{k[0]}-{'shuffled' if k[1] else 'plain'}-budget{k[2]}"
    )
    def test_cover_dfs_pinned(self, key):
        n, shuffled, budget = key
        by_edge = [list(b) for b in cycles._cycles_by_edge(n)]
        if shuffled:
            rng = random.Random(5)
            for b in by_edge:
                rng.shuffle(b)
        status, chosen, nodes = kernels.cover_dfs(edge_count(n), cycles.cycle_edge_array(n), by_edge, budget)
        assert (status, list(chosen), nodes) == COVER_DFS[key]

    def test_cover_dfs_unsatisfiable(self):
        # edge 7 lies on no cycle, so both branches on edge 0 dead-end
        cyc_edges = ((0, 1, 2, 3), (0, 4, 5, 6))
        by_edge = [[0, 1], [0], [0], [0], [1], [1], [1], []]
        assert kernels.cover_dfs(8, cyc_edges, by_edge, 10) == (2, [-1, -1], 2)
        assert kernels.cover_dfs(8, cyc_edges, by_edge, 1) == (1, [-1, -1], 2)
        assert kernels.cover_dfs(4, cyc_edges[:1], by_edge[:4], 10) == (0, [0], 1)


class TestDiamonds:
    def test_enumeration_count(self):
        for n in (6, 7, 9):
            want = math.comb(n, 2) * math.comb(n - 2, 4) * 3
            assert len(enumerate_double_diamonds(n)) == want

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_diamond_count_matches_enumeration(self, n):
        assert cycles.diamond_count(n) == len(enumerate_double_diamonds(n))

    def test_no_diamonds_below_six(self):
        assert [cycles.diamond_count(n) for n in range(6)] == [0] * 6
        with pytest.warns(UserWarning):
            assert enumerate_double_diamonds(5) == []

    def test_diamond_is_a_trade(self):
        for d in enumerate_double_diamonds(6)[:10]:
            tp = d.trade_pair(6)
            assert tp.volume == 2
            assert tp.foundation == 6

    def test_pairing_cycles_are_canonical(self):
        # the direct canonical form of a-x-b-y against the general canonicalizer
        for d in enumerate_double_diamonds(7):
            a, b = d.poles
            for r in range(3):
                pairing = cycles.PAIRINGS[r]
                want = tuple(canonical_cycle((a, d.middles[i], b, d.middles[j])) for i, j in pairing)
                assert cycles._pairing_cycles(d.poles, d.middles, r) == want
            assert d.move_cycles(1) == (d.target_cycles(), d.source_cycles())
            assert d.move_cycles(-1) == (d.source_cycles(), d.target_cycles())

    def test_vector_edge_balance(self):
        d = enumerate_double_diamonds(7)[100]
        v = diamond_vector(d, 7)
        m = build_inclusion_matrix(7)
        assert m.matvec(v.to_ints()) == [0] * m.n_rows

    def test_span_ranks(self):
        assert diamond_span_rank(6) == 30
        assert diamond_span_rank(7) == 84

    def test_span_deficient_small(self):
        assert diamond_span_rank(5) == 0
        with pytest.warns(UserWarning), pytest.raises(SpanDeficientError):
            diamond_basis(5)

    def test_basis_independent_and_sized(self):
        basis = diamond_basis(6)
        assert len(basis) == 30
        stack = exactla.SparseIntMatrix.from_dense(
            [diamond_vector(d, 6).to_ints() for d in basis]
        )
        assert exactla.rank_exact(stack) == 30


# sha256 of repr(_diamond_basis_indices(n)), recorded while the echelon
# pivoted on the first column and inserted every pairing
BASIS_SHA256 = {
    10: "e821257072f673b02f0e0b7599cb895df584b5ec370bfe88fbfefa58acdca59d",
    11: "e5055bed60d86b2d131668ef4fa73fe589d7bc3cdd2aa3e4ab79903376faae43",
}


def _table_rows(n):
    """Every diamond's row as the pairing table gives it, in enumeration order."""
    table = cycles._diamond_stack(n)
    return [cycles._diamond_row(table, i) for i in range(cycles.diamond_count(n))]


def _nonzero(v):
    return {i: x for i, x in enumerate(v.to_ints()) if x}


class TestBasisSelection:
    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_table_rows_are_diamond_vectors(self, n):
        # the rows the selection, the solve factor and the recombination
        # read are the vectors of the enumerated diamonds, index for index
        rows = _table_rows(n)
        diamonds = enumerate_double_diamonds(n)
        assert len(rows) == len(diamonds)
        for row, d in zip(rows, diamonds):
            assert row == _nonzero(diamond_vector(d, n))

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_matches_greedy_mod_p_oracle(self, n):
        # the in-order mod-p rank filter is an independent oracle for the
        # exact selection: on a lucky prime both keep the same rows
        rows = _table_rows(n)
        stack = np.zeros((len(rows), 3 * math.comb(n, 4)), dtype=np.int64)
        for r, row in enumerate(rows):
            for c, v in row.items():
                stack[r, c] = v
        oracle = tuple(int(i) for i in kernels.greedy_rank_filter(stack, default_primes(1)[0]))
        assert cycles._diamond_basis_indices(n) == oracle
        assert diamond_span_rank(n) == kernel_dimension(n) == len(oracle)

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_third_pairing_is_difference_of_first_two(self, n):
        # D(1,2) = D(0,2) - D(0,1) within each (poles, middles) group, so the
        # selection may skip every (1,2) row without changing what it keeps
        rows = _table_rows(n)
        for i in range(0, len(rows), 3):
            diff = Counter(rows[i + 1])
            diff.subtract(rows[i])
            assert {c: v for c, v in diff.items() if v} == rows[i + 2]

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_certificate_rank_matches_dense_kernel(self, n):
        # the rows the certificate sees (the selection), then the same rows
        # with every 7th stack row mixed in, against the numpy elimination,
        # which pivots in row order; p=2 and 3 make rank drops mod p likely
        rows = _table_rows(n)
        sel = cycles._diamond_basis_indices(n)
        for picked in (sel, sorted(set(sel) | set(range(0, len(rows), 7)))):
            m = exactla.SparseIntMatrix(
                len(picked), 3 * math.comb(n, 4), {(r, c): v for r, i in enumerate(picked) for c, v in rows[i].items()}
            )
            dense = np.array(m.to_dense(), dtype=np.int64)
            for p in (2, 3, default_primes(1)[0]):
                assert exactla.rank_mod_p(m, p) == kernels.modp_rank(dense % p, p)

    @pytest.mark.parametrize("n", sorted(BASIS_SHA256))
    def test_selection_pinned(self, n):
        sel = cycles._diamond_basis_indices(n)
        assert hashlib.sha256(repr(sel).encode()).hexdigest() == BASIS_SHA256[n]

    def test_unbalanced_diamond_rejected(self, monkeypatch):
        # poles {0,1} with middles {2,3} now look up the cycle 0-2-1-4: the
        # pairing {2,3},{4,5} covers edge 4-0 twice and misses 0-3
        table = cycles._diagonal_table(6)
        table[0 * 6 + 1][2 * 6 + 3] = table[0 * 6 + 1][2 * 6 + 4]
        monkeypatch.setattr(cycles, "_diagonal_table", lambda n: table)
        with pytest.raises(VerificationError, match="not in ker M"):
            cycles._diamond_stack.__wrapped__(6)  # bypass the cache

    def test_diamonds_built_for_the_basis_only(self, monkeypatch):
        # from cold caches the span rank, the solve factor and the
        # recombination check read the pairing table and build no
        # DoubleDiamond; the basis builds exactly one per selected row
        v = diamond_vector(enumerate_double_diamonds(9)[2000], 9)
        for cached in (
            cycles._diamond_stack,
            cycles._diamond_selection,
            cycles._diamond_basis_indices,
            cycles._basis_diamonds,
            cycles._solve_factor,
        ):
            monkeypatch.setattr(cycles, cached.__name__, functools.lru_cache(maxsize=None)(cached.__wrapped__))
        built = []
        check = cycles.DoubleDiamond.__post_init__
        monkeypatch.setattr(cycles.DoubleDiamond, "__post_init__", lambda d: built.append(check(d)))
        assert diamond_span_rank(9) == 342
        coords = cycles._solve_factor(9).coordinates(_nonzero(v))
        sel = cycles._diamond_basis_indices(9)
        coeffs = [coords.get(pos, Fraction(0)) for pos in range(len(sel))]
        assert cycles._verify_recombination(9, sel, coeffs, v)
        assert built == []
        assert len(diamond_basis(9)) == 342
        assert len(built) == 342

    def test_independence_certificate_survives_optimize(self):
        # under -O every assert is stripped; the certificate must still fire
        # when the mod-p rank of the selected rows falls short of their count
        script = (
            "import sys\n"
            "assert False, 'asserts are live'\n"
            "from tradekernel import cycles\n"
            "from tradekernel.errors import VerificationError\n"
            "cycles.rank_mod_p = lambda a, p: a.n_rows - 1\n"
            "try:\n"
            "    cycles._diamond_basis_indices(7)\n"
            "except VerificationError as e:\n"
            "    print('raised:', e)\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n"
        )
        src = os.path.dirname(os.path.dirname(tradekernel.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert "raised: n=7: 84 diamonds selected" in out.stdout


class TestDecompose:
    def test_single_diamond(self):
        basis = diamond_basis(6)
        v = diamond_vector(basis[3], 6)
        dec = decompose_trade(v)
        assert dec.integral
        assert dec.support() == [(3, Fraction(1))]

    def test_integer_combination_round_trip(self):
        rng = random.Random(12)
        basis = diamond_basis(6)
        coeffs = {i: rng.randint(-2, 2) for i in rng.sample(range(30), 6)}
        v = cycles.CycleVector(6)
        for i, c in coeffs.items():
            if c:
                v = v.add_scaled(diamond_vector(basis[i], 6), c)
        dec = decompose_trade(v)
        assert dec.integral
        assert dict(dec.support()) == {
            i: Fraction(c) for i, c in sorted(coeffs.items()) if c
        }
        sel = cycles._diamond_basis_indices(6)
        assert cycles._verify_recombination(6, sel, dec.coefficients, v)
        corrupted = list(dec.coefficients)
        corrupted[0] += Fraction(1, 3)
        assert not cycles._verify_recombination(6, sel, corrupted, v)

    def test_zero_vector(self):
        dec = decompose_trade(cycles.CycleVector(6))
        assert dec.integral
        assert dec.support() == []

    def test_modular_path_agrees_with_exact(self):
        # a known integer combination of two n=9 basis diamonds comes back exactly
        basis = diamond_basis(9)
        v = diamond_vector(basis[100], 9).add_scaled(diamond_vector(basis[7], 9), -2)
        dec = decompose_trade(v)
        assert dec.integral
        assert dict(dec.support()) == {7: Fraction(-2), 100: Fraction(1)}

    def test_outside_span_is_verification_error(self, monkeypatch):
        # an echelon missing basis diamond 3 cannot express that diamond's vector
        rows = _table_rows(6)
        partial = exactla.SparseEchelon()
        for pos, i in enumerate(cycles._diamond_basis_indices(6)):
            if pos != 3:
                partial.add(rows[i], tag=pos)
        monkeypatch.setattr(cycles, "_solve_factor", lambda n: partial)
        with pytest.raises(VerificationError, match="outside the span"):
            decompose_trade(diamond_vector(diamond_basis(6)[3], 6))


class TestConfigCounting:
    def test_hand_cases(self):
        A = canonical_cycle((0, 2, 1, 3))  # diagonals {0,1}, {2,3}
        B = canonical_cycle((0, 4, 1, 5))  # diagonals {0,1}, {4,5}
        C = canonical_cycle((2, 4, 3, 5))  # diagonals {2,3}, {4,5}
        D = canonical_cycle((0, 6, 1, 7))  # diagonals {0,1}, {6,7}
        E = canonical_cycle((0, 1, 2, 3))  # diagonals {0,2}, {1,3}
        F = canonical_cycle((0, 1, 4, 5))  # diagonals {0,4}, {1,5}
        cases = [
            ([], 0),
            ([A], 0),
            ([A, B], 1),  # shared {0,1} diagonal in both
            ([A, B, D], 3),  # three pairwise-sharing cycles
            ([A, C], 1),  # shared {2,3} diagonal in both
            ([A, B, C], 3),  # triangle of sharing pairs
            ([E, F], 0),  # {0,1} is an edge of both, not a diagonal
            ([A, E], 0),  # {0,1},{2,3} diagonals of A but edges of E
            ([E, canonical_cycle((0, 1, 2, 4))], 0),  # share 3 vertices
            ([E, canonical_cycle((4, 5, 6, 7))], 0),  # disjoint
            ([A, B, C, D], 5),  # C and D are vertex-disjoint
        ]
        for cyc_list, want in cases:
            assert count_double_diamond_configs(cyc_list) == want
            assert config_count_oracle(cyc_list) == want

    def test_system_matches_oracle(self):
        cs = find_cycle_system(9)
        assert count_double_diamond_configs(cs) == config_count_oracle(cs.cycles)

    @settings(deadline=None, max_examples=20)
    @given(st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, rng):
        cs = find_cycle_system(9)
        perm = list(range(9))
        rng.shuffle(perm)
        relabeled = [canonical_cycle(tuple(perm[v] for v in c)) for c in cs.cycles]
        assert count_double_diamond_configs(relabeled) == count_double_diamond_configs(cs)


    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from([9, 17]), st.randoms(use_true_random=False))
    def test_pairs_match_brute_force_order(self, n, rng):
        base = find_cycle_system(n)
        perm = list(range(n))
        rng.shuffle(perm)
        other = [canonical_cycle([perm[v] for v in c]) for c in base.cycles]
        # at n=9 a lifted search's support: the system and part of a relabelled one
        cyc_list = [*base.cycles, *rng.sample(other, rng.randint(0, 9))] if n == 9 else other
        want = config_pairs_oracle(cyc_list)
        assert cycles.diamond_config_pairs(cyc_list) == want
        # the searches' index over the ranks of all cycles of K_n gives the same pairs
        table = cycles._cycle_ranks(n)
        pairs = cycles._ConfigIndex(table, {table[1][c] for c in cyc_list}).pairs()
        assert [(table[0][r1], table[0][r2]) for r1, r2 in pairs] == want

    @settings(deadline=None, max_examples=20)
    @given(st.randoms(use_true_random=False))
    def test_pairs_of_any_cycle_form_and_vertex_numbers(self, rng):
        # each cycle written from any start in either direction, on vertices far apart
        spread = [v * 10**8 + rng.randrange(10**8) for v in range(9)]
        cyc_list = []
        for c in find_cycle_system(9).cycles:
            vs = [spread[v] for v in c]
            k = rng.randrange(4)
            vs = vs[k:] + vs[:k]
            cyc_list.append(FourCycle(*(vs if rng.random() < 0.5 else vs[::-1])))
        assert cycles.diamond_config_pairs(cyc_list) == config_pairs_oracle(cyc_list)

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_rank_table(self, n):
        cycs, rank, diags, masks = cycles._cycle_ranks(n)
        assert list(cycs) == sorted(enumerate_cycles(n))  # rank order is FourCycle order
        assert [rank[c] for c in cycs] == list(range(len(cycs)))
        for c, (d1, d2), mask in zip(cycs, diags, masks):
            assert (edge_endpoints(d1, n), edge_endpoints(d2, n)) == c.diagonals()
            assert mask == sum(1 << v for v in c)

    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from([9, 17]), st.randoms(use_true_random=False))
    def test_move_delta_matches_recount(self, n, rng):
        perm = list(range(n))
        rng.shuffle(perm)
        table = cycles._cycle_ranks(n)
        cycs, rank = table[0], table[1]
        state = {rank[canonical_cycle([perm[v] for v in c])] for c in find_cycle_system(n).cycles}
        index = cycles._ConfigIndex(table, state)
        count = count_double_diamond_configs(cycs[r] for r in state)
        for _ in range(12):
            pairs = index.pairs()
            assert [(cycs[r1], cycs[r2]) for r1, r2 in pairs] == cycles.diamond_config_pairs(cycs[r] for r in state)
            if not pairs:
                break
            _, _, removal, addition = rng.choice(cycles._pair_moves(table, *rng.choice(pairs)))
            count += index.move_delta(removal, addition)
            for r in removal:
                index.discard(r)
                state.remove(r)
            for r in addition:
                index.add(r)
                state.add(r)
            assert count == count_double_diamond_configs(cycs[r] for r in state)
            assert count == config_count_oracle([cycs[r] for r in state])

    def test_pair_moves_reject_non_configurations(self):
        A = canonical_cycle((0, 2, 1, 3))  # diagonals {0,1}, {2,3}
        E = canonical_cycle((0, 1, 2, 3))  # diagonals {0,2}, {1,3}
        F = canonical_cycle((0, 1, 4, 5))  # diagonals {0,4}, {1,5}
        assert len(pair_moves(A, canonical_cycle((0, 4, 1, 5)))) == 2
        for c1, c2 in [
            (A, A),  # one cycle
            (E, F),  # {0,1} is an edge of both
            (A, F),  # {0,1} is a diagonal of A but an edge of F
            (E, canonical_cycle((0, 1, 2, 4))),  # three shared vertices
            (E, canonical_cycle((4, 5, 6, 7))),  # disjoint
        ]:
            with pytest.raises(ValueError, match="not a double-diamond configuration"):
                pair_moves(c1, c2)


class TestMoves:
    def test_apply_move_swaps_pairing(self):
        d = enumerate_double_diamonds(6)[0]
        state = Counter({c: 1 for c in d.target_cycles()})
        out = apply_diamond_move(state, d, +1)
        assert out == Counter({c: 1 for c in d.source_cycles()})
        back = apply_diamond_move(out, d, -1)
        assert back == state

    @settings(deadline=None, max_examples=30)
    @given(st.randoms(use_true_random=False))
    def test_child_state_matches_replay_and_distance(self, rng):
        # multisets like the lifted search's: a system plus copies of a relabelled one
        base = find_cycle_system(9)
        perm = list(range(9))
        rng.shuffle(perm)
        other = [canonical_cycle([perm[v] for v in c]) for c in base.cycles]
        state = Counter(base.cycles) + Counter({c: rng.randint(0, 2) for c in other})
        want = +Counter({c: rng.randint(0, 2) for c in [*base.cycles, *other]})
        table = cycles._cycle_ranks(9)
        rank = table[1]
        want_ranks = [0] * len(rank)
        for c, m in want.items():
            want_ranks[rank[c]] = m
        key = tuple(sorted(rank[c] for c in state.elements()))
        h = multiset_distance(state, want)
        last = None
        for _ in range(10):
            children = cycles._children(cycles._move_table(9), cycles._partner_table(9), want_ranks, key, h, last)
            got = [(sign, DoubleDiamond(*spec)) for _, _, (sign, spec, _, _) in children]
            # by configuration pair, then move, less the undo of the move that made the state
            moves = [m for c1, c2 in cycles.diamond_config_pairs(state) for m in pair_moves(c1, c2)]
            if last is not None:
                # the one child left out is the undo of last: the same diamond at the other sign, back to prev
                undo = (-last[0], DoubleDiamond(*last[1]))
                assert moves.count(undo) == 1
                moves.remove(undo)
                assert apply_diamond_move(state, undo[1], undo[0]) == prev
            assert got == moves
            for ckey, ch, (sign, spec, _, _) in children:
                child = apply_diamond_move(state, DoubleDiamond(*spec), sign)
                assert ckey == tuple(sorted(rank[c] for c in child.elements()))
                assert ch == multiset_distance(child, want)
            if not children:
                break
            key, h, last = rng.choice(children)
            prev, state = state, apply_diamond_move(state, DoubleDiamond(*last[1]), last[0])

    def test_move_requires_cycles_present(self):
        d = enumerate_double_diamonds(6)[0]
        with pytest.raises(MissingCyclesError):
            apply_diamond_move(Counter(), d, +1)

    def test_transform_identity(self):
        cs = find_cycle_system(9)
        plan = transform(cs, cs, mode="virtual")
        assert plan.moves == ()

    def test_replay_that_misses_the_goal_raises(self):
        cs = find_cycle_system(9)
        start = Counter({c: 1 for c in cs.cycles})
        sign, d = pair_moves(*cycles.diamond_config_pairs(cs)[0])[0]
        goal = apply_diamond_move(start, d, sign)
        for nonnegative in (False, True):
            assert cycles._replay(start, goal, [(sign, d)], nonnegative) == (0,)
            with pytest.raises(VerificationError):
                cycles._replay(start, goal, [], nonnegative)

    def test_transform_single_move_pair(self):
        # hand-build two systems one diamond move apart
        cs = find_cycle_system(9)
        pairs = cycles.diamond_config_pairs(cs)
        if not pairs:
            pytest.skip("seed system has no configuration pairs")
        c1, c2 = pairs[0]
        moves = pair_moves(c1, c2)
        sign, d = moves[0]
        target = apply_diamond_move(Counter({c: 1 for c in cs.cycles}), d, sign)
        cs2 = CycleSystem(9, list(target))
        plans = {mode: transform(cs, cs2, mode=mode) for mode in ("virtual", "strict", "lifted")}
        for out in plans.values():
            assert not isinstance(out, RationalCertificate)
            assert len(out.moves) >= 1
            assert out.lam == 1
        # strict and lifted run the same lambda=1 search, and it finds the one move
        for mode in ("strict", "lifted"):
            assert (plans[mode].moves, plans[mode].audit) == (((sign, d),), (0,))

    def test_transform_modes_replay(self):
        rng = random.Random(31)
        cs1 = cycles._find_system_shuffled(9, rng, 10**6)
        cs2 = cycles._find_system_shuffled(9, rng, 10**6)
        assert cs1 != cs2
        out = transform(cs1, cs2, mode="virtual")
        if isinstance(out, RationalCertificate):
            assert out.verified
            assert any(c.denominator > 1 for _, c in out.support)
        else:
            state = Counter({c: 1 for c in cs1.cycles})
            for sign, d in out.moves:
                rm, add = (d.target_cycles(), d.source_cycles()) if sign > 0 else (
                    d.source_cycles(),
                    d.target_cycles(),
                )
                for c in rm:
                    state[c] -= 1
                for c in add:
                    state[c] += 1
            assert +state == Counter({c: 1 for c in cs2.cycles})


class TestDiamondFreeSearch:
    def test_default_seed_succeeds(self):
        out = search_diamond_free(9, seed=1, restarts=500)
        assert isinstance(out, CycleSystem)
        assert count_double_diamond_configs(out) == 0

    def test_trivial_order_is_diamond_free(self):
        assert search_diamond_free(1) == CycleSystem(1, [])

    def test_failure_reports_best(self):
        out = search_diamond_free(9, seed=1, restarts=0)
        assert isinstance(out, DiamondSearchReport)
        assert out.restarts == 0

    def test_same_seed_same_answer(self):
        a = search_diamond_free(9, seed=5, restarts=20)
        b = search_diamond_free(9, seed=5, restarts=20)
        if isinstance(a, CycleSystem):
            assert a == b
        else:
            assert a == b


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded before the configuration counts of both searches became
# incremental: for a fixed seed they must return the same systems, counts
# and plans. Search: sha256 of format_cycle_system of the result.
SEARCH9_SHA256 = {
    1: "0ed297d41ff9b32e3664bcf39516ff4e42ab861a39ac8ca78446bd10963b1dc3",
    2: "bb99927b27a6337d66ddd0d7af31408d6f9a0b261d200b200bac0edb52683196",
    3: "d9a9778ac2c3c85d29f1d9faecd1cad0b741fc90ffe6f61d711d0eb719470910",
    4: "088d9cb274b662c8b52d00d60eab549c211e7009a9aa7a389a4fd086afc96061",
}
SEARCH17_BEST_COUNT = {1: 10, 2: 10, 3: 8, 4: 12, 5: 10}
# Relabellings of find_cycle_system(9) whose difference is integral over
# diamond_basis(9) and schedules in lifted mode at lambda 1.
CATALOGUE_PERMS = (
    (2, 1, 5, 7, 8, 6, 3, 0, 4),
    (8, 7, 4, 3, 0, 5, 6, 1, 2),
    (0, 4, 1, 8, 3, 5, 7, 2, 6),
    (8, 1, 2, 4, 5, 7, 3, 0, 6),
    (4, 8, 3, 1, 0, 5, 6, 7, 2),
    (0, 8, 5, 3, 6, 2, 4, 1, 7),
    (4, 7, 6, 8, 3, 1, 5, 0, 2),
    (5, 1, 4, 6, 8, 2, 3, 0, 7),
)

# lifted plans: sha256 of format_cycle_move_plan, and the move count
LIFTED_CRITERION7 = ("e113caf2620be495b44223452f6ec17c11952b0f0ca56a2e3cd8ad7ce40aca74", 37)
LIFTED_RELABELLED = {
    (2, 1, 5, 7, 8, 6, 3, 0, 4): ("4615b07bc8f759b72aa6ce12f7d2beaab73bb7347faf2e9bb7562560a38fb4a1", 25),
    (8, 7, 4, 3, 0, 5, 6, 1, 2): ("7f9a1ace7c979eb6c887c47702c59e899606ea22390a69c7a49488af78350d2a", 19),
    (0, 4, 1, 8, 3, 5, 7, 2, 6): ("1478104164c4ed8f4415aca6db2fe8585ba746076340a50f64b7ef4f993f7e68", 40),
    (8, 1, 2, 4, 5, 7, 3, 0, 6): ("4acb377789b223d7628b7677b225fe9f27af5b2fa215c18864631d8730ab90e2", 45),
    (4, 8, 3, 1, 0, 5, 6, 7, 2): ("9edda44f86a37182a1fcccece1142b29d3196d7f62bb056ed3d1f3aae2d5ebe5", 19),
    (0, 8, 5, 3, 6, 2, 4, 1, 7): ("49bd25a5ccceb79f6fd3103788f2dbc36b5415a5c6d72b46090982347ff152a1", 34),
    (4, 7, 6, 8, 3, 1, 5, 0, 2): ("cda79ac0918c91126b5f5a27fc2ac4a9605fa2475d4a05ce0ad3be7c50e8d822", 28),
    (5, 1, 4, 6, 8, 2, 3, 0, 7): ("fd2db1b66970bf0b277bee28ea49059be867796858de56756133eb766d97e753", 29),
}
# Recorded before both searches ran on cycle ranks, like the last six
# LIFTED_RELABELLED entries. _best_first_schedule on the second catalogue
# pair, seed 1, both sides augmented by one copy of the filler system
# (lambda=2): sha256 of the move lines, and the move count
BEST_FIRST_LAMBDA2 = ("1ef59a0780f87db46f7a2ea84d8c4a3dea3cac239c8775c8bccf98e8a6ef702d", 19)
# the same pair at lambda=1 needs exactly this many expansions
BEST_FIRST_EXPANSIONS = 490
# sha256 of the virtual plans' audit tuples of the catalogue pairs, one repr a line
VIRTUAL_AUDITS_SHA256 = "ad4cce05f6510c54b4648fad0c3b58417f69b5aea3d4f817cd1b36a0c93c1621"
# Strict mode is the best-first search at lambda 1. The near pairs: sha256
# over one line per pair (the plan file's sha256 and its audit, or a
# certificate), the plan count and the certificate count. The greedy
# scheduler it replaced planned 71 of them and failed on 164.
STRICT_NEAR = ("4fe4cfefdce665d31844368d18c6c79e296f36ee6efe567ceff0b2797aa3b317", 235, 65)


def _relabelled(base, perm):
    return CycleSystem(base.n, [canonical_cycle([perm[v] for v in c]) for c in base.cycles])


def _move_lines(moves):
    return "".join(cycles.format_move(sign, d) + "\n" for sign, d in moves)


@functools.cache
def _near_pairs(count=300):
    """Seeded pairs: a shuffled 4CS(9), and that system after a walk of 1 to 3 random diamond moves."""
    rng = random.Random(5)
    table = cycles._cycle_ranks(9)
    out = []
    for _ in range(count):
        base = cycles._find_system_shuffled(9, rng, 10**6)
        state = Counter(base.cycles)
        for _ in range(rng.randint(1, 3)):
            pairs = cycles.diamond_config_pairs(state)
            if not pairs:
                break
            c1, c2 = rng.choice(pairs)
            sign, spec, _, _ = rng.choice(cycles._pair_moves(table, table[1][c1], table[1][c2]))
            state = apply_diamond_move(state, DoubleDiamond(*spec), sign)
        out.append((base, CycleSystem(9, list(state))))
    return out


class TestSearchGolden:
    @pytest.mark.parametrize("seed", sorted(SEARCH9_SHA256))
    def test_diamond_free_9(self, seed):
        out = search_diamond_free(9, seed=seed)
        assert isinstance(out, CycleSystem)
        assert _sha256(cycles.format_cycle_system(out)) == SEARCH9_SHA256[seed]

    def test_best_count_17(self):
        got = {s: search_diamond_free(17, seed=s, restarts=1).best_count for s in SEARCH17_BEST_COUNT}
        assert got == SEARCH17_BEST_COUNT

    def test_lifted_criterion7_pair(self):
        # the one integral pair among criterion 7's twenty (seed 1000 + 7)
        rng = random.Random(1007)
        cs1 = cycles._find_system_shuffled(9, rng, 10**6)
        cs2 = cycles._find_system_shuffled(9, rng, 10**6)
        plan = transform(cs1, cs2, mode="lifted", seed=7)
        assert (_sha256(cycles.format_cycle_move_plan(plan)), len(plan.moves)) == LIFTED_CRITERION7

    @pytest.mark.parametrize("perm", sorted(LIFTED_RELABELLED))
    def test_lifted_relabelled(self, perm):
        base = find_cycle_system(9)
        plan = transform(base, _relabelled(base, perm), mode="lifted")
        assert plan.lam == 1
        assert (_sha256(cycles.format_cycle_move_plan(plan)), len(plan.moves)) == LIFTED_RELABELLED[perm]

    def test_lifted_best_first_lambda2(self):
        base = find_cycle_system(9)
        filler = Counter(base.cycles)  # transform's filler is find_cycle_system(9) too
        a, b = Counter(base.cycles), Counter(_relabelled(base, CATALOGUE_PERMS[1]).cycles)
        path = cycles._best_first_schedule(9, a + filler, b + filler, 100_000, 1)
        assert (_sha256(_move_lines(path)), len(path)) == BEST_FIRST_LAMBDA2

    def test_lifted_best_first_budget_edge(self):
        base = find_cycle_system(9)
        other = _relabelled(base, CATALOGUE_PERMS[1])
        a, b = Counter(base.cycles), Counter(other.cycles)
        assert cycles._best_first_schedule(9, a, b, BEST_FIRST_EXPANSIONS - 1, 1) is None
        path = cycles._best_first_schedule(9, a, b, BEST_FIRST_EXPANSIONS, 1)
        assert path == list(transform(base, other, mode="lifted").moves)
        # strict is that search at lambda 1 whatever lam_max says, so one expansion fewer fails
        with pytest.raises(ScheduleFailureError) as e:
            transform(base, other, mode="strict", lam_max=6, budget=BEST_FIRST_EXPANSIONS - 1)
        assert str(e.value) == f"strict scheduling failed for lambda up to 1 within budget {BEST_FIRST_EXPANSIONS - 1}"

    def test_strict_from_a_diamond_free_start_has_no_path(self):
        # a diamond-free system admits no move, so the search has seen every state after the start;
        # the pair is integral, and lifted goes on to lambda 2 and plans
        start = search_diamond_free(9, seed=1)
        goal = _relabelled(find_cycle_system(9), (6, 4, 0, 3, 7, 1, 5, 2, 8))
        with pytest.raises(ScheduleFailureError) as e:
            transform(start, goal, mode="strict")
        assert str(e.value) == (
            "strict scheduling failed: no lambda 1 path exists from this start; "
            "the search saw all 1 states reachable from it"
        )
        assert transform(start, goal, mode="lifted", lam_max=2, budget=3000).lam == 2

    def test_virtual_audits_catalogue(self):
        base = find_cycle_system(9)
        audits = [transform(base, _relabelled(base, p), mode="virtual").audit for p in CATALOGUE_PERMS]
        assert _sha256("\n".join(repr(a) for a in audits)) == VIRTUAL_AUDITS_SHA256

    @pytest.mark.parametrize("perm", sorted(LIFTED_RELABELLED))
    def test_strict_catalogue(self, perm):
        # every catalogue pair has a lifted path at lambda 1, so strict, the same search
        # at lambda 1 only, gets the same plan file
        base = find_cycle_system(9)
        plan = transform(base, _relabelled(base, perm), mode="strict")
        assert (plan.mode, plan.lam, set(plan.audit)) == ("strict", 1, {0})
        assert (_sha256(cycles.format_cycle_move_plan(plan)), len(plan.moves)) == LIFTED_RELABELLED[perm]

    def test_strict_near_pairs(self):
        lines, plans, certificates = [], 0, 0
        for i, (a, b) in enumerate(_near_pairs()):
            out = transform(a, b, mode="strict")
            if isinstance(out, RationalCertificate):
                certificates += 1
                lines.append(f"{i} certificate")
            else:
                assert not any(out.audit)
                plans += 1
                lines.append(f"{i} {_sha256(cycles.format_cycle_move_plan(out))} {out.audit}")
        assert (_sha256("\n".join(lines)), plans, certificates) == STRICT_NEAR


# a transform whose schedule is corrupted before its replay, and how the CLI must end under -O:
# exit code, payload error and a part of its message
CORRUPTED_PLANS = {
    # the lifted path stops one move short of the goal
    "lifted-short": ("lifted", "_best_first_schedule", "path[:-1]", 3, "Verification", "does not reach the goal"),
    # the lifted path starts with the first move undone: it removes cycles the start lacks
    "lifted-missing": (
        "lifted", "_best_first_schedule", "[(-path[0][0], path[0][1])] + path", 1, "MissingCycles", "not present"
    ),
    # the strict plan undoes and redoes its first move, so it reaches the goal through negative multiplicities
    "strict-negative": (
        "strict", "_best_first_schedule", "[(-path[0][0], path[0][1]), path[0]] + path", 3, "Verification",
        "not a system",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPTED_PLANS))
def test_corrupted_plan_is_caught_under_optimize(tmp_path, case):
    mode, scheduler, corrupt, code, error, message = CORRUPTED_PLANS[case]
    # the first near pair with a plan of at least one move, strict and lifted alike
    a, b = next((a, b) for a, b in _near_pairs() if getattr(transform(a, b, mode="strict"), "moves", ()))
    files = [tmp_path / "a.cyc", tmp_path / "b.cyc"]
    for f, cs in zip(files, (a, b)):
        f.write_text(cycles.format_cycle_system(cs))
    script = (
        "import sys\n"
        "assert False, 'asserts are live'\n"
        "from tradekernel import cli, cycles\n"
        f"schedule = cycles.{scheduler}\n"
        "def corrupted(*args):\n"
        "    path = schedule(*args)\n"
        f"    return {corrupt}\n"
        f"cycles.{scheduler} = corrupted\n"
        f"sys.exit(cli.main(['cycles', 'transform', '--a', '{files[0]}', '--b', '{files[1]}', '--mode', '{mode}']))\n"
    )
    src = os.path.dirname(os.path.dirname(tradekernel.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == code, out.stderr
    payload = json.loads(out.stdout)["payload"]
    assert payload["error"] == error
    assert message in payload["message"]


# The dict-keyed _best_first_schedule the multiset-keyed search replaced,
# copied verbatim but for the cycles. prefixes, with the _child_state it called.
def _oracle_child_state(state, h, want, removal, addition):
    """The state after a move, and its L1 distance to want: h updated by the four moved ranks."""
    child = dict(state)
    for r in removal:
        m, w = child[r], want.get(r, 0)
        h += abs(m - 1 - w) - abs(m - w)
        if m == 1:
            del child[r]
        else:
            child[r] = m - 1
    for r in addition:
        m, w = child.get(r, 0), want.get(r, 0)
        h += abs(m + 1 - w) - abs(m - w)
        child[r] = m + 1
    return child, h


def _oracle_best_first_schedule(n, start, goal, node_budget, seed):
    table = cycles._cycle_ranks(n)
    rank = table[1]
    rng = random.Random(seed)
    want = {rank[c]: m for c, m in goal.items()}
    state0 = {rank[c]: m for c, m in start.items()}
    h0 = sum(abs(state0.get(r, 0) - want.get(r, 0)) for r in {*state0, *want})
    if h0 == 0:
        return []
    key0 = tuple(sorted(state0.items()))
    heap = [(8 * h0, 0, 0, key0, h0)]
    parents = {key0: None}
    gscore = {key0: 0}
    moves_of = functools.cache(lambda pair: cycles._pair_moves(table, *pair))
    counter = itertools.count(1)
    expanded = 0
    while heap:
        _, _, _, key, h = heapq.heappop(heap)
        g = gscore[key]
        expanded += 1
        if expanded > node_budget:
            return None
        state = dict(key)
        # a state holds positive multiplicities only: its keys are its support
        for pair in cycles._ConfigIndex(table, state).pairs():
            for sign, spec, removal, addition in moves_of(pair):
                child, ch = _oracle_child_state(state, h, want, removal, addition)
                ckey = tuple(sorted(child.items()))
                ng = g + 1
                seen = gscore.get(ckey)
                if seen is not None and seen <= ng:
                    continue
                gscore[ckey] = ng
                parents[ckey] = (key, (sign, spec))
                if ch == 0:
                    path = []
                    while parents[ckey] is not None:
                        ckey, (sign, spec) = parents[ckey]
                        path.append((sign, DoubleDiamond(*spec)))
                    return path[::-1]
                heapq.heappush(heap, (8 * ch + ng, rng.randrange(16), next(counter), ckey, ch))
    return None


class TestBestFirstOracle:
    @pytest.mark.parametrize("lam", [1, 2])
    def test_matches_the_dict_keyed_search(self, lam):
        aug = Counter({c: lam - 1 for c in find_cycle_system(9).cycles})
        reached = set()
        for seed in range(20):
            rng = random.Random(seed)
            a = Counter(cycles._find_system_shuffled(9, rng, 10**6).cycles) + aug
            b = Counter(cycles._find_system_shuffled(9, rng, 10**6).cycles) + aug
            for budget in (300, BEST_FIRST_EXPANSIONS - 1, BEST_FIRST_EXPANSIONS):
                path = cycles._best_first_schedule(9, a, b, budget, 1)
                assert path == _oracle_best_first_schedule(9, a, b, budget, 1), (seed, budget)
                if path is not None:
                    reached.add(seed)
        # so the comparison covers returned paths, not only exhausted budgets
        assert len(reached) == (10 if lam == 2 else 0)


class TestSearchTables:
    """Both searches draw inline what random.Random would draw; every golden rests on it."""

    def test_shuffle_draws_what_random_shuffle_draws(self):
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            for length in range(201):
                x, y = list(range(length)), list(range(length))
                cycles._shuffle(x, ours.getrandbits)
                theirs.shuffle(y)
                assert x == y, (seed, length)
                assert ours.getstate() == theirs.getstate(), (seed, length)

    def test_jitter_draws_what_randrange_draws(self):
        # _best_first_schedule's tie-break: getrandbits(5) redrawn while >= 16
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(200):
                jitter = ours.getrandbits(5)
                while jitter >= 16:
                    jitter = ours.getrandbits(5)
                assert jitter == theirs.randrange(16)
            assert ours.getstate() == theirs.getstate(), seed

    def test_partner_table_matches_brute_force(self):
        cycs = cycles._cycle_ranks(9)[0]
        partners = cycles._PartnerTable(9)
        for r, c in enumerate(cycs):
            mask, shared = 0, {}
            for r2 in range(r + 1, len(cycs)):
                common = tuple(sorted(set(c) & set(cycs[r2])))
                # a configuration: exactly two shared vertices, a diagonal of both cycles
                if len(common) == 2 and common in c.diagonals() and common in cycs[r2].diagonals():
                    mask |= 1 << r2
                    shared[r2] = edge_index(*common, 9)
            assert partners[r] == (mask, shared), r


def _search_and_plan_outputs(search_first):
    base = find_cycle_system(9)
    other = _relabelled(base, CATALOGUE_PERMS[1])

    def search():
        out = search_diamond_free(9, seed=3, restarts=50)
        return cycles.format_cycle_system(out) if isinstance(out, CycleSystem) else repr(out)

    def plan():
        return cycles.format_cycle_move_plan(transform(base, other, mode="lifted"))

    cycles._move_table.cache_clear()
    cycles._partner_table.cache_clear()
    if search_first:
        return search(), plan(), search()
    return plan(), search(), plan()


def test_move_table_does_not_depend_on_call_order():
    search1, plan1, search2 = _search_and_plan_outputs(search_first=True)
    plan2, search3, plan3 = _search_and_plan_outputs(search_first=False)
    assert search1 == search2 == search3
    assert plan1 == plan2 == plan3
    table = cycles._cycle_ranks(9)
    moves_of = cycles._move_table(9)
    assert moves_of  # filled by both searches, kept across calls
    for pair, moves in moves_of.items():
        assert moves == cycles._pair_moves(table, *pair)
    partners, fresh = cycles._partner_table(9), cycles._PartnerTable(9)
    assert partners  # filled by the lifted search
    for r, entry in partners.items():
        assert entry == fresh[r]

# Recorded while decompositions were still solved modulo several primes and
# combined by CRT and rational reconstruction: the exact solve must give the
# same coefficients. sha256 over one `integral;support` line per vector.
DECOMPOSE_SHA256 = {
    6: "69895d87c6f4a4fbcc218545fc6f739be1b9bbb39579cfbcb80ab502554aa710",
    7: "c76a609dc3e58c2d1564666d3292a48fc91c92ad9b61f65a3f39674e11ef2856",
    8: "f50c6d9f29e41becd83b9ea12f1aaa1c8f7e096a239096780d42caf67ec9f6d2",
    9: "61753337473402e301efbd6e54233126da0bfee09e8f887cedaa7a856869d723",
    "pairs9": "c1a2e74ecb0f5ada3795cce09ad5aefd1e589d3ecb4f7185e9032f1ed3cd33a4",
    # recorded while the echelon pivoted on the first column
    10: "e9832a8e24cc912b4a8052bfc726d0559d5698db07b6291b5165c32add099716",
}


def _combinations(n, count=10):
    """Seeded sums of six distinct diamonds, each with sign +1 or -1."""
    rng = random.Random(f"decompose-{n}")
    diamonds = enumerate_double_diamonds(n)
    out = []
    for _ in range(count):
        v = cycles.CycleVector(n)
        for d in rng.sample(diamonds, 6):
            v = v.add_scaled(diamond_vector(d, n), rng.choice((1, -1)))
        out.append(v)
    return out


def _pair_differences():
    """4CS(9) differences: the catalogue pairs, then 12 seeded relabellings."""
    base = find_cycle_system(9)
    rng = random.Random(5)
    perms = list(CATALOGUE_PERMS) + [rng.sample(range(9), 9) for _ in range(12)]
    return [base.vector() - _relabelled(base, p).vector() for p in perms]


def _decomposition_digest(vectors):
    lines = []
    for v in vectors:
        dec = decompose_trade(v)
        lines.append(f"{dec.integral};{[(i, str(c)) for i, c in dec.support()]}\n")
    return _sha256("".join(lines))


class TestDecomposeGolden:
    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_diamond_combinations(self, n):
        assert _decomposition_digest(_combinations(n)) == DECOMPOSE_SHA256[n]

    def test_pair_differences(self):
        assert _decomposition_digest(_pair_differences()) == DECOMPOSE_SHA256["pairs9"]


class TestFormats:
    def test_system_round_trip(self):
        cs = find_cycle_system(9)
        assert cycles.parse_cycle_system(cycles.format_cycle_system(cs)) == cs

    def test_pair_round_trip(self):
        d = enumerate_double_diamonds(6)[11]
        tp = d.trade_pair(6)
        tp2 = cycles.parse_trade_pair_file(cycles.format_trade_pair_file(tp))
        assert tp2.t == tp.t and tp2.t_star == tp.t_star

    def test_plan_round_trip(self):
        cs = find_cycle_system(9)
        pairs = cycles.diamond_config_pairs(cs)
        sign, d = pair_moves(*pairs[0])[0]
        plan = cycles.CycleMovePlan(9, "strict", 1, ((sign, d),), (0,))
        moves, lam = cycles.parse_cycle_move_plan(cycles.format_cycle_move_plan(plan))
        assert moves == [(sign, d)]
        assert lam == 1

    @pytest.mark.parametrize("text", ["lambda=x\n", "+1 poles=0,x middles=2,3,4,5 from=0 to=1\nlambda=1\n"])
    def test_parse_plan_rejects_bad_lines(self, text):
        from tradekernel.errors import FormatError

        with pytest.raises(FormatError):
            cycles.parse_cycle_move_plan(text)

    def test_parse_rejects_noncanonical(self):
        from tradekernel.errors import FormatError

        with pytest.raises(FormatError):
            cycles.parse_cycle_collection("n=6\n1 0 2 3\n")
        # canonical in form, but vertex -1 is outside 0..n-1
        with pytest.raises(FormatError, match="not canonical for n=6"):
            cycles.parse_cycle_collection("n=6\n-1 0 2 3\n")
        with pytest.raises(ValueError, match="outside 0..5"):
            CycleSystem(6, [FourCycle(-1, 0, 2, 3)])
