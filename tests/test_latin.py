"""Latin squares, trades, the inclusion matrix, and intercalate moves."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradekernel import exactla, latin
from tradekernel.errors import FormatError, IdenticalSquaresError, KernelMembershipError, VerificationError
from tradekernel.latin import (
    LatinSquare,
    PartialLatinSquare,
    TradeViolation,
    TripleVector,
    apply_move,
    build_inclusion_matrix,
    check_trade,
    decompose,
    difference_trade,
    intercalate_basis,
    intercalate_cells,
    intercalate_vector,
    parse_move_plan,
    parse_square,
    parse_trade,
    format_move_plan,
    format_square,
    format_trade,
    trade_vector,
    transform,
    triple_at,
    triple_index,
    validate_trade,
)


def cyclic(n):
    return LatinSquare([[(i + j) % n for j in range(n)] for i in range(n)])


def random_square(n, rng):
    """A random isotope of the cyclic square (rows/cols/symbols permuted)."""
    rp = list(range(n))
    cp = list(range(n))
    sp = list(range(n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    rng.shuffle(sp)
    return LatinSquare([[sp[(rp[i] + cp[j]) % n] for j in range(n)] for i in range(n)])


class TestSquares:
    def test_cyclic_valid(self):
        sq = cyclic(5)
        assert sq.n == 5
        assert sq.cell(2, 4) == 1

    def test_bad_row_rejected(self):
        with pytest.raises(ValueError):
            LatinSquare([[0, 1], [0, 1]])

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError):
            LatinSquare([[0, 2], [2, 0]])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0))
    def test_triple_index_bijection(self, n, t):
        t = t % n**3
        assert triple_index(n, *triple_at(n, t)) == t

    def test_triples_shape(self):
        sq = cyclic(3)
        ts = list(sq.triples())
        assert len(ts) == 9
        assert all(sq.cell(i, j) == k for i, j, k in ts)


class TestPartialAndTrades:
    def test_conflicting_cell_rejected(self):
        with pytest.raises(ValueError):
            PartialLatinSquare(3, [(0, 0, 1), (0, 0, 2)])

    def test_row_symbol_repeat_rejected(self):
        with pytest.raises(ValueError):
            PartialLatinSquare(3, [(0, 0, 1), (0, 2, 1)])

    def test_intercalate_is_a_trade(self):
        t = latin.intercalate(1, 2, 1, 3)
        assert check_trade(t.p, t.q) is None
        assert t.volume == 4

    def test_violation_conditions(self):
        p = PartialLatinSquare(2, [(0, 0, 0)])
        q_shape = PartialLatinSquare(2, [(1, 1, 0)])
        v = check_trade(p, q_shape)
        assert isinstance(v, TradeViolation) and v.condition == 1

        q_same = PartialLatinSquare(2, [(0, 0, 0)])
        v = check_trade(p, q_same)
        assert v.condition == 2

        p2 = PartialLatinSquare(3, [(0, 0, 0), (0, 1, 1)])
        q2 = PartialLatinSquare(3, [(0, 0, 1), (0, 1, 2)])
        v = check_trade(p2, q2)
        assert v.condition == 3

    def test_validate_trade_returns_trade(self):
        t = latin.intercalate(1, 1, 2, 4)
        out = validate_trade(t.p, t.q)
        assert isinstance(out, latin.LatinTrade)

    def test_difference_trade_of_distinct_squares(self):
        a = cyclic(4)
        b = LatinSquare([[(i + 3 * j) % 4 for j in range(4)] for i in range(4)])
        t = difference_trade(a, b)
        assert check_trade(t.p, t.q) is None
        assert t.volume > 0

    def test_difference_identical_rejected(self):
        with pytest.raises(IdenticalSquaresError):
            difference_trade(cyclic(3), cyclic(3))


class TestInclusionMatrix:
    def test_shape_and_degrees(self):
        for n in (2, 3, 4):
            im = build_inclusion_matrix(n)
            m = im.matrix
            assert (m.n_rows, m.n_cols) == (3 * n * n, n**3)
            dense = np.array(m.to_dense())
            assert (dense.sum(axis=0) == 3).all()  # each triple hits 3 lines
            assert (dense.sum(axis=1) == n).all()  # each line holds n triples

    def test_rank_and_nullity_small(self):
        # nullity (n-1)^3: 1, 8, 27
        for n, want in [(2, 7), (3, 19), (4, 37)]:
            m = build_inclusion_matrix(n).matrix
            r = exactla.rank_exact(m)
            assert r == want
            assert m.n_cols - r == (n - 1) ** 3

    def test_row_labels(self):
        im = build_inclusion_matrix(3)
        labels = {im.row_label(r).split("(")[0] for r in range(27)}
        assert labels == {"rc", "rs", "cs"}

    def test_square_vector_line_sums_all_one(self):
        v = TripleVector.from_square(cyclic(4))
        for table in v.line_sums():
            assert (table == 1).all()

    def test_trade_vector_in_kernel(self):
        t = latin.intercalate(2, 1, 3, 4)
        v = trade_vector(t)
        m = build_inclusion_matrix(4).matrix
        assert m.matvec(v.to_ints()) == [0] * m.n_rows

    def test_non_kernel_vector_rejected(self):
        arr = np.zeros(27, dtype=np.int64)
        arr[0] = 1
        v = TripleVector(3, arr)
        with pytest.raises(KernelMembershipError):
            decompose(v)


class TestIntercalateBasis:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basis_spans_kernel_exactly(self, n):
        basis = intercalate_basis(n)
        assert len(basis) == (n - 1) ** 3
        m = build_inclusion_matrix(n).matrix
        for v in basis:
            assert m.matvec(v.to_ints()) == [0] * m.n_rows
        stack = exactla.SparseIntMatrix.from_dense([v.to_ints() for v in basis])
        assert exactla.rank_exact(stack) == len(basis)

    def test_n2_signs(self):
        (v,) = intercalate_basis(2)
        for t in range(8):
            i, j, k = triple_at(2, t)
            assert v.to_ints()[t] == (-1) ** (i + j + k)

    def test_decompose_round_trip_random(self):
        rng = random.Random(42)
        for n in (3, 4):
            basis = intercalate_basis(n)
            for _ in range(20):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                v = TripleVector(n)
                for c, b in zip(coeffs, basis):
                    if c:
                        v = v.add_scaled(b, c)
                got = decompose(v)
                want = {
                    (i + 1, j + 1, k + 1): c
                    for t, c in enumerate(coeffs)
                    if c
                    for i, j, k in [triple_at(n - 1, t)]
                }
                assert got == want

    def test_decompose_intercalate_vector(self):
        v = intercalate_vector(1, 2, 1, 4)
        assert decompose(v) == {(1, 2, 1): 1}


class TestIntercalateCells:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_intercalate(self, n):
        for i in range(1, n):
            for j in range(1, n):
                for k in range(1, n):
                    cells = intercalate_cells(i, j, k, n)
                    assert len({t for t, _ in cells}) == 8
                    v = TripleVector(n)
                    for t, s in cells:
                        v.entries[triple_index(n, *t)] = s
                    for table in v.line_sums():
                        assert not table.any()
                    assert v == intercalate_vector(i, j, k, n)
                    t = latin.intercalate(i, j, k, n)
                    assert t.p.triples == {c for c, s in cells if s == 1}
                    assert t.q.triples == {c for c, s in cells if s == -1}

    @pytest.mark.parametrize("ijk", [(0, 1, 1), (1, 3, 1), (1, 1, -1)])
    def test_range_checked(self, ijk):
        with pytest.raises(ValueError):
            intercalate_cells(*ijk, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_move_entries_are_the_cells(self, n):
        # the replay's flat offsets and signs, against intercalate_cells
        moves = [(sign, i, j, k) for sign in (1, -1) for i in range(1, n) for j in range(1, n) for k in range(1, n)]
        offsets, changes = latin._move_entries(moves, n)
        assert offsets.shape == changes.shape == (len(moves), 8)
        for (sign, i, j, k), xs, ds in zip(moves, offsets.tolist(), changes.tolist()):
            assert list(zip(xs, ds)) == [(triple_index(n, *t), sign * s) for t, s in intercalate_cells(i, j, k, n)]


def _cell_by_cell_sum(coeffs, n):
    """sum of c_ijk B_ijk, scattered cell by cell from intercalate_cells."""
    out = [0] * n**3
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                for t, s in intercalate_cells(i, j, k, n):
                    out[triple_index(n, *t)] += int(coeffs[i - 1, j - 1, k - 1]) * s
    return out


class TestClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_intercalate_sum_matches_cell_by_cell(self, n, data):
        values = data.draw(st.lists(st.integers(-5, 5), min_size=(n - 1) ** 3, max_size=(n - 1) ** 3))
        coeffs = np.array(values, dtype=np.int64).reshape((n - 1,) * 3)
        got = latin._intercalate_sum(coeffs)
        assert got.shape == (n, n, n)
        assert got.ravel().tolist() == _cell_by_cell_sum(coeffs, n)

    def test_decompose_refuses_a_wrong_reconstruction(self, monkeypatch):
        rng = random.Random(11)
        v = TripleVector.from_square(random_square(5, rng)) - TripleVector.from_square(random_square(5, rng))
        assert decompose(v)
        good = latin._intercalate_sum

        def off_by_one(coeffs):
            out = good(coeffs)
            out[0, 0, 0] += 1
            return out

        monkeypatch.setattr(latin, "_intercalate_sum", off_by_one)
        with pytest.raises(VerificationError):
            decompose(v)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_replay_matches_move_by_move(self, n, data):
        # any run of moves from a square, against apply_move and improper_count after each move
        square = random_square(n, random.Random(data.draw(st.integers(0, 10**6))))
        move = st.tuples(st.sampled_from((1, -1)), *[st.integers(1, n - 1)] * 3)
        moves = data.draw(st.lists(move, min_size=1, max_size=30))
        state = TripleVector.from_square(square)
        want = []
        for sign, i, j, k in moves:
            state = apply_move(state, i, j, k, sign)
            want.append(state.improper_count())
        final, counts = latin._replay(TripleVector.from_square(square).entries, *latin._move_entries(moves, n))
        assert counts == want
        assert final.tolist() == state.to_ints()

    def test_square_and_trade_vectors_match_cell_by_cell(self):
        rng = random.Random(12)
        for n in (1, 2, 5, 9):
            a, b = random_square(n, rng), random_square(n, rng)
            want = [0] * n**3
            for i, j, k in a.triples():
                want[triple_index(n, i, j, k)] = 1
            assert TripleVector.from_square(a).to_ints() == want
            if a != b:
                t = difference_trade(a, b)
                want = [0] * n**3
                for triples, s in ((t.p.triples, 1), (t.q.triples, -1)):
                    for i, j, k in triples:
                        want[triple_index(n, i, j, k)] += s
                assert trade_vector(t).to_ints() == want


# pairs drawn per order, and the sha256 of their transform plans (moves,
# improper_counts) and decompose coefficients, recorded with the replay that
# rechecked every line sum and recounted every entry after each move
GOLDEN_PAIRS = {2: 3, 3: 3, 4: 3, 5: 3, 6: 3, 7: 3, 8: 3, 20: 2, 30: 2}
GOLDEN_SHA256 = {
    2: "d89f9a2524e7afaacae0f2d13345dca937712a5c5fff9ee91df7fefb9f88d6c0",
    3: "41720f2bfe96d1148426a528d3b725de0ea2c638082b3c84e1ee3a666f982cf5",
    4: "95a08ab9735378e4cc014f0ad4cf8d8ae2297515df2b25de0b9117f752a3e0e7",
    5: "1a2510112742d9d1c1b702caf5c4d2607f021ae605371bf9e0bc91d036cf6562",
    6: "23d4b980ac835139290279d42d20cc4d445fd5667efc4b3a4b31fcb0ee00a779",
    7: "ea284ad6066bc10ae40ef16150c826e73660c0570dee1af5cf247e9f0a1f134e",
    8: "b5c8550de710f3c03d52c198020b5bd491ce73b4dd375828e4e3c0d95089602a",
    20: "31e4f215ef9535398828b71bd7751a3aadb4a843f59fb178743a99019a1448a2",
    30: "d9bc93248c9c3505e0c52b1882e3b3728f71c5ad30acd40bf372fa8a846a7d95",
}


def golden_pairs(n):
    rng = random.Random(1000 + n)
    return [(random_square(n, rng), random_square(n, rng)) for _ in range(GOLDEN_PAIRS[n])]


@pytest.mark.parametrize("n", sorted(GOLDEN_SHA256))
def test_plans_and_coefficients_pinned(n):
    out = []
    for a, b in golden_pairs(n):
        plan = transform(a, b)
        coeffs = decompose(TripleVector.from_square(a) - TripleVector.from_square(b))
        out.append({
            "moves": [list(m) for m in plan.moves],
            "improper_counts": list(plan.improper_counts),
            "coefficients": [[*ijk, c] for ijk, c in sorted(coeffs.items())],
        })
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest() == GOLDEN_SHA256[n]


def test_latin_paths_never_build_the_inclusion_matrix():
    rng = random.Random(5)
    a, b = random_square(7, rng), random_square(7, rng)
    trade = difference_trade(a, b)
    before = build_inclusion_matrix.cache_info()
    decompose(trade_vector(trade))
    transform(a, b)
    with pytest.raises(KernelMembershipError) as e:
        decompose(TripleVector.from_square(a))
    assert build_inclusion_matrix.cache_info() == before
    assert e.value.label == build_inclusion_matrix(7).row_label(e.value.row)


def test_transform_checks_line_sums_once(monkeypatch):
    # only decompose's kernel check reads line sums; no move can change one
    calls = []
    line_sums = TripleVector.line_sums
    monkeypatch.setattr(TripleVector, "line_sums", lambda v: calls.append(v) or line_sums(v))
    plan = transform(*golden_pairs(8)[0])
    assert len(plan.moves) > 1
    assert len(calls) == 1


class TestMoves:
    def test_apply_move_keeps_line_sums(self):
        state = TripleVector.from_square(cyclic(3))
        out = apply_move(state, 1, 1, 1, +1)
        for table in out.line_sums():
            assert (table == 1).all()
        assert out.improper_count() > 0
        assert state == TripleVector.from_square(cyclic(3))

    def test_apply_move_rejects_malformed_state(self):
        state = apply_move(TripleVector.from_square(cyclic(3)), 1, 1, 1, +1)
        with pytest.raises(ValueError):
            apply_move(state.add_scaled(state, 1), 1, 1, 1, +1)
        with pytest.raises(ValueError):
            apply_move(state, 1, 1, 1, 2)

    def test_transform_replay_lands_on_target(self):
        rng = random.Random(7)
        for _ in range(6):
            a, b = random_square(4, rng), random_square(4, rng)
            plan = transform(a, b)
            state = TripleVector.from_square(a)
            for s, i, j, k in plan.moves:
                state = apply_move(state, i, j, k, s)
            assert state == TripleVector.from_square(b)
            assert len(plan.improper_counts) == len(plan.moves)
            if plan.moves:
                assert plan.improper_counts[-1] == 0

    def test_transform_equal_squares_empty_plan(self):
        plan = transform(cyclic(4), cyclic(4))
        assert plan.moves == ()
        assert plan.improper_max == 0

    def test_improper_max_is_max(self):
        rng = random.Random(3)
        a, b = random_square(4, rng), random_square(4, rng)
        plan = transform(a, b)
        assert plan.improper_max == max(plan.improper_counts, default=0)


class TestFormats:
    def test_square_round_trip(self):
        sq = cyclic(5)
        assert parse_square(format_square(sq)) == sq

    def test_trade_round_trip(self):
        t = latin.intercalate(1, 2, 2, 4)
        t2 = parse_trade(format_trade(t))
        assert t2.p.triples == t.p.triples
        assert t2.q.triples == t.q.triples

    def test_move_plan_round_trip(self):
        rng = random.Random(9)
        plan = transform(random_square(4, rng), random_square(4, rng))
        moves, improper_max = parse_move_plan(format_move_plan(plan))
        assert moves == list(plan.moves)
        assert improper_max == plan.improper_max

    @pytest.mark.parametrize("text", ["+1 1 1 1\nimproper_max=x\n", "+1 1 x 1\nimproper_max=0\n", "+2 1 1 1\nimproper_max=0\n"])
    def test_parse_move_plan_rejects_bad_lines(self, text):
        with pytest.raises(FormatError):
            parse_move_plan(text)

    def test_parse_trade_rejects_a_non_trade(self):
        # well-formed grids, but the same symbol on both sides of a cell (condition 2)
        with pytest.raises(FormatError, match="condition 2"):
            parse_trade("n=2\n0 1\n1 0\n\n0 1\n1 0\n")

    def test_parse_square_rejects_partial(self):
        with pytest.raises(FormatError):
            parse_square("n=2\n0 .\n. 1\n")

    def test_parse_trade_two_headers_must_agree(self):
        with pytest.raises(FormatError):
            parse_trade("n=2\n0 1\n1 0\n\nn=3\n1 0\n0 1\n")
