"""4-cycle systems, trades, double-diamonds, moves, and searches."""

import hashlib
import itertools
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


class TestDiamonds:
    def test_enumeration_count(self):
        for n in (6, 7, 9):
            want = math.comb(n, 2) * math.comb(n - 2, 4) * 3
            assert len(enumerate_double_diamonds(n)) == want

    def test_no_diamonds_below_six(self):
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
                assert d._cycles_of(r) == want
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
        with pytest.raises(SpanDeficientError):
            diamond_basis(5)

    def test_basis_independent_and_sized(self):
        basis = diamond_basis(6)
        assert len(basis) == 30
        stack = exactla.SparseIntMatrix.from_dense(
            [diamond_vector(d, 6).to_ints() for d in basis]
        )
        assert exactla.rank_exact(stack) == 30


class TestBasisSelection:
    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_matches_greedy_mod_p_oracle(self, n):
        # the in-order mod-p rank filter is an independent oracle for the
        # exact selection: on a lucky prime both keep the same rows
        _, rows = cycles._diamond_stack(n)
        stack = np.zeros((len(rows), 3 * math.comb(n, 4)), dtype=np.int64)
        for r, row in enumerate(rows):
            for c, v in row.items():
                stack[r, c] = v
        oracle = tuple(int(i) for i in kernels.greedy_rank_filter(stack, default_primes(1)[0]))
        assert cycles._diamond_basis_indices(n) == oracle
        assert diamond_span_rank(n) == kernel_dimension(n) == len(oracle)

    def test_unbalanced_diamond_rejected(self, monkeypatch):
        def lopsided(d):
            return d._cycles_of(d.source)[0], d._cycles_of(d.target)[1]

        monkeypatch.setattr(cycles.DoubleDiamond, "target_cycles", lopsided)
        with pytest.raises(VerificationError):
            cycles._diamond_stack.__wrapped__(6)  # bypass the cache

    def test_independence_certificate_survives_optimize(self):
        # under -O every assert is stripped; the certificate must still fire
        # when the mod-p rank of the selected rows falls short of their count
        script = (
            "import sys\n"
            "assert False, 'asserts are live'\n"
            "from tradekernel import cycles, kernels\n"
            "from tradekernel.errors import VerificationError\n"
            "kernels.modp_rank = lambda a, p: len(a) - 1\n"
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
        _, rows = cycles._diamond_stack(6)
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


    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from([9, 17]), st.randoms(use_true_random=False))
    def test_move_delta_matches_recount(self, n, rng):
        perm = list(range(n))
        rng.shuffle(perm)
        state = {canonical_cycle([perm[v] for v in c]) for c in find_cycle_system(n).cycles}
        index = cycles._ConfigIndex(state)
        count = count_double_diamond_configs(state)
        for _ in range(12):
            pairs = cycles.diamond_config_pairs(state)
            assert index.pairs() == pairs
            if not pairs:
                break
            sign, d = rng.choice(cycles._config_pair_moves(*rng.choice(pairs)))
            removal, addition = d.move_cycles(sign)
            count += index.move_delta(removal, addition)
            for c in removal:
                index.discard(c)
                state.remove(c)
            for c in addition:
                index.add(c)
                state.add(c)
            assert count == count_double_diamond_configs(state) == config_count_oracle(state)

    def test_pair_moves_reject_non_configurations(self):
        A = canonical_cycle((0, 2, 1, 3))  # diagonals {0,1}, {2,3}
        E = canonical_cycle((0, 1, 2, 3))  # diagonals {0,2}, {1,3}
        F = canonical_cycle((0, 1, 4, 5))  # diagonals {0,4}, {1,5}
        assert len(cycles._config_pair_moves(A, canonical_cycle((0, 4, 1, 5)))) == 2
        for c1, c2 in [
            (A, A),  # one cycle
            (E, F),  # {0,1} is an edge of both
            (A, F),  # {0,1} is a diagonal of A but an edge of F
            (E, canonical_cycle((0, 1, 2, 4))),  # three shared vertices
            (E, canonical_cycle((4, 5, 6, 7))),  # disjoint
        ]:
            with pytest.raises(ValueError, match="not a double-diamond configuration"):
                cycles._config_pair_moves(c1, c2)


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
        h = cycles._multiset_distance(state, want)
        for _ in range(10):
            pairs = cycles.diamond_config_pairs(state)
            if not pairs:
                break
            sign, d = rng.choice(cycles._config_pair_moves(*rng.choice(pairs)))
            child, h = cycles._child_state(dict(state), h, want, *d.move_cycles(sign))
            state = apply_diamond_move(state, d, sign)
            assert child == state
            assert h == cycles._multiset_distance(state, want)

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
        sign, d = cycles._config_pair_moves(*cycles.diamond_config_pairs(cs)[0])[0]
        goal = apply_diamond_move(start, d, sign)
        assert cycles._replay_virtual(start, goal, [(sign, d)]) == (0,)
        with pytest.raises(VerificationError):
            cycles._replay_virtual(start, goal, [])

    def test_transform_single_move_pair(self):
        # hand-build two systems one diamond move apart
        cs = find_cycle_system(9)
        pairs = cycles.diamond_config_pairs(cs)
        if not pairs:
            pytest.skip("seed system has no configuration pairs")
        c1, c2 = pairs[0]
        moves = cycles._config_pair_moves(c1, c2)
        sign, d = moves[0]
        target = apply_diamond_move(Counter({c: 1 for c in cs.cycles}), d, sign)
        cs2 = CycleSystem(9, list(target))
        for mode in ("virtual", "lifted"):
            out = transform(cs, cs2, mode=mode)
            assert not isinstance(out, RationalCertificate)
            assert len(out.moves) >= 1
            assert out.lam == 1
        # greedy strict scheduling may or may not find an order
        try:
            out = transform(cs, cs2, mode="strict")
        except ScheduleFailureError as e:
            assert e.prefix is not None
        else:
            assert out.lam == 1

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
# lifted plans: sha256 of format_cycle_move_plan, and the move count
LIFTED_CRITERION7 = ("e113caf2620be495b44223452f6ec17c11952b0f0ca56a2e3cd8ad7ce40aca74", 37)
LIFTED_RELABELLED = {
    (2, 1, 5, 7, 8, 6, 3, 0, 4): ("4615b07bc8f759b72aa6ce12f7d2beaab73bb7347faf2e9bb7562560a38fb4a1", 25),
    (8, 7, 4, 3, 0, 5, 6, 1, 2): ("7f9a1ace7c979eb6c887c47702c59e899606ea22390a69c7a49488af78350d2a", 19),
}


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
        other = CycleSystem(9, [canonical_cycle([perm[v] for v in c]) for c in base.cycles])
        plan = transform(base, other, mode="lifted")
        assert plan.lam == 1
        assert (_sha256(cycles.format_cycle_move_plan(plan)), len(plan.moves)) == LIFTED_RELABELLED[perm]


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

# Recorded while decompositions were still solved modulo several primes and
# combined by CRT and rational reconstruction: the exact solve must give the
# same coefficients. sha256 over one `integral;support` line per vector.
DECOMPOSE_SHA256 = {
    6: "69895d87c6f4a4fbcc218545fc6f739be1b9bbb39579cfbcb80ab502554aa710",
    7: "c76a609dc3e58c2d1564666d3292a48fc91c92ad9b61f65a3f39674e11ef2856",
    8: "f50c6d9f29e41becd83b9ea12f1aaa1c8f7e096a239096780d42caf67ec9f6d2",
    9: "61753337473402e301efbd6e54233126da0bfee09e8f887cedaa7a856869d723",
    "pairs9": "c1a2e74ecb0f5ada3795cce09ad5aefd1e589d3ecb4f7185e9032f1ed3cd33a4",
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
    return [
        base.vector() - CycleSystem(9, [canonical_cycle([p[v] for v in c]) for c in base.cycles]).vector()
        for p in perms
    ]


def _decomposition_digest(vectors):
    lines = []
    for v in vectors:
        dec = decompose_trade(v)
        lines.append(f"{dec.integral};{[(i, str(c)) for i, c in dec.support()]}\n")
    return _sha256("".join(lines))


class TestDecomposeGolden:
    @pytest.mark.parametrize("n", [6, 7, 8, 9])
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
        sign, d = cycles._config_pair_moves(*pairs[0])[0]
        plan = cycles.CycleMovePlan(9, "strict", 1, ((sign, d),), (0,))
        moves, lam = cycles.parse_cycle_move_plan(cycles.format_cycle_move_plan(plan))
        assert moves == [(sign, d)]
        assert lam == 1

    def test_parse_rejects_noncanonical(self):
        from tradekernel.errors import FormatError

        with pytest.raises(FormatError):
            cycles.parse_cycle_collection("n=6\n1 0 2 3\n")
