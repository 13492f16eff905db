"""Latin squares, trades, the inclusion matrix, and intercalate moves."""

import hashlib
import json
import os
import random
import subprocess
import sys

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
    line_label,
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

    def test_parse_trade_returns_trade(self):
        t = latin.intercalate(1, 1, 2, 4)
        assert parse_trade(format_trade(t)) == t

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
            m = build_inclusion_matrix(n)
            assert (m.n_rows, m.n_cols) == (3 * n * n, n**3)
            dense = m.to_dense()
            assert all(sum(col) == 3 for col in zip(*dense))  # each triple hits 3 lines
            assert all(sum(row) == n for row in dense)  # each line holds n triples

    def test_rank_and_nullity_small(self):
        # nullity (n-1)^3: 1, 8, 27
        for n, want in [(2, 7), (3, 19), (4, 37)]:
            m = build_inclusion_matrix(n)
            r = exactla.rank_exact(m)
            assert r == want
            assert m.n_cols - r == (n - 1) ** 3

    def test_row_labels(self):
        labels = {line_label(3, r).split("(")[0] for r in range(27)}
        assert labels == {"rc", "rs", "cs"}

    def test_square_vector_line_sums_all_one(self):
        v = TripleVector.from_square(cyclic(4))
        assert v.line_sums() == {r: 1 for r in range(3 * 16)}

    def test_trade_vector_in_kernel(self):
        t = latin.intercalate(2, 1, 3, 4)
        v = trade_vector(t)
        m = build_inclusion_matrix(4)
        assert m.matvec(v.to_ints()) == [0] * m.n_rows

    def test_non_kernel_vector_rejected(self):
        v = TripleVector(3, {0: 1})
        with pytest.raises(KernelMembershipError) as e:
            decompose(v)
        assert (e.value.row, e.value.label, e.value.value) == (0, "rc(0,0)", 1)
        # the lowest violated row: triple (1,2,2) lies on rc(1,2), rs(1,2) and cs(2,2)
        with pytest.raises(KernelMembershipError) as e:
            decompose(TripleVector(3, {triple_index(3, 1, 2, 2): -2}))
        assert (e.value.row, e.value.label, e.value.value) == (5, "rc(1,2)", -2)
        assert TripleVector(3, {triple_index(3, 1, 2, 2): -2}).line_sums() == {5: -2, 9 + 5: -2, 18 + 8: -2}

    @pytest.mark.parametrize("t", [-1, 27, 10**9])
    def test_index_outside_the_triples_rejected(self, t):
        with pytest.raises(ValueError, match="outside 0..26"):
            TripleVector(3, {0: 1, t: 1})

    def test_zero_entries_are_not_stored(self):
        v = TripleVector(2, {3: 0, 5: 2})
        assert v.entries == {5: 2}
        assert (v - v).entries == {} and (v - v).is_zero()
        assert v.add_scaled(TripleVector(2, {5: 1}), -2).is_zero()


class TestIntercalateBasis:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basis_spans_kernel_exactly(self, n):
        basis = intercalate_basis(n)
        assert len(basis) == (n - 1) ** 3
        m = build_inclusion_matrix(n)
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
                    v = TripleVector(n, {triple_index(n, *t): s for t, s in cells})
                    assert v.line_sums() == {}
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
        # the engine's eight flat indices and changes for one move on an empty map, in
        # intercalate_cells order, against intercalate_cells; four of the eight are -1
        for sign in (1, -1):
            for i in range(1, n):
                for j in range(1, n):
                    for k in range(1, n):
                        state = {}
                        assert latin._apply_moves(n, state, [(sign, i, j, k)]) == [4]
                        cells = [(triple_index(n, *t), sign * s) for t, s in intercalate_cells(i, j, k, n)]
                        assert list(state.items()) == cells


def _dense_intercalate(i, j, k, n):
    """B_ijk as a dense list, from its definition (e0 - e_i) x (e0 - e_j) x (e0 - e_k)."""
    def axis(x):
        return [1 if a == 0 else -1 if a == x else 0 for a in range(n)]

    u, v, w = axis(i), axis(j), axis(k)
    return [u[a] * v[b] * w[c] for a in range(n) for b in range(n) for c in range(n)]


def _cell_by_cell_sum(coeffs, n):
    """sum of c_ijk B_ijk, scattered cell by cell from intercalate_cells."""
    out = [0] * n**3
    for (i, j, k), c in coeffs.items():
        for t, s in intercalate_cells(i, j, k, n):
            out[triple_index(n, *t)] += c * s
    return out


def _dense_line_sums(dense, n):
    """{row of M: nonzero line sum} of a dense vector, row by row."""
    rows = [0] * (3 * n * n)
    for t, x in enumerate(dense):
        i, j, k = triple_at(n, t)
        rows[i * n + j] += x
        rows[n * n + i * n + k] += x
        rows[2 * n * n + j * n + k] += x
    return {r: s for r, s in enumerate(rows) if s}


def _improper(dense):
    return sum(x not in (0, 1) for x in dense)


class TestClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_intercalate_sum_matches_cell_by_cell(self, n, data):
        # the engine runs every coefficient from an empty map, as decompose's reconstruction does
        values = data.draw(st.lists(st.integers(-5, 5), min_size=(n - 1) ** 3, max_size=(n - 1) ** 3))
        coeffs = {tuple(x + 1 for x in triple_at(n - 1, t)): c for t, c in enumerate(values)}
        state = {}
        latin._apply_moves(n, state, [(c, i, j, k) for (i, j, k), c in coeffs.items()])
        assert 0 not in state.values()
        assert TripleVector(n, state).to_ints() == _cell_by_cell_sum(coeffs, n)

    def test_decompose_refuses_a_wrong_reconstruction(self, monkeypatch):
        rng = random.Random(11)
        v = TripleVector.from_square(random_square(5, rng)) - TripleVector.from_square(random_square(5, rng))
        assert decompose(v)
        good = latin._apply_moves

        def off_by_one(n, state, moves):
            counts = good(n, state, moves)
            state[0] = state.get(0, 0) + 1
            return counts

        monkeypatch.setattr(latin, "_apply_moves", off_by_one)
        with pytest.raises(VerificationError, match="do not reconstruct"):
            decompose(v)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_replay_matches_move_by_move(self, n, data):
        # any run of moves (m, i, j, k) from any integer vector, against a dense list
        # that adds m * B_ijk move by move and recounts every entry after each move
        dense = data.draw(st.lists(st.integers(-2, 2), min_size=n**3, max_size=n**3))
        anchor = st.integers(1, n - 1) if n > 1 else st.nothing()
        move = st.tuples(st.integers(-3, 3), anchor, anchor, anchor)
        moves = data.draw(st.lists(move, max_size=30 if n > 1 else 0))
        state = TripleVector(n, dict(enumerate(dense))).entries
        want = []
        for m, i, j, k in moves:
            dense = [x + m * b for x, b in zip(dense, _dense_intercalate(i, j, k, n))]
            want.append(_improper(dense))
        assert latin._apply_moves(n, state, moves) == want
        assert 0 not in state.values()
        assert TripleVector(n, state).to_ints() == dense

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_triple_vector_matches_a_dense_list(self, n, data):
        entries = st.lists(st.integers(-3, 3), min_size=n**3, max_size=n**3)
        x, y = data.draw(entries), data.draw(entries)
        c = data.draw(st.integers(-3, 3))
        u, v = TripleVector(n, dict(enumerate(x))), TripleVector(n, dict(enumerate(y)))
        assert u.to_ints() == x
        assert u.support() == [triple_at(n, t) for t, e in enumerate(x) if e]
        assert [u[triple_at(n, t)] for t in range(n**3)] == x
        assert u.is_zero() == (not any(x))
        assert u.improper_count() == _improper(x)
        assert u.line_sums() == _dense_line_sums(x, n)
        assert u.add_scaled(v, c).to_ints() == [a + c * b for a, b in zip(x, y)]
        assert (u + v).to_ints() == [a + b for a, b in zip(x, y)]
        assert (u - v).to_ints() == [a - b for a, b in zip(x, y)]
        assert (-u).to_ints() == [-a for a in x]
        assert (u == v) == (x == y)
        assert repr(u) == f"TripleVector(n={n}, nnz={sum(map(bool, x))})"
        for w in (u, u - v, -u):
            assert 0 not in w.entries.values()

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
    assert e.value.label == line_label(7, e.value.row)


def test_transform_checks_line_sums_once(monkeypatch):
    # one kernel check on the line sums of the differing cells and one replay; no move can change a line sum
    calls = {"line_sums": 0, "_first_violated_line": 0, "_apply_moves": 0, "decompose": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(TripleVector, "line_sums", counted("line_sums", TripleVector.line_sums))
    for name in ("_first_violated_line", "_apply_moves", "decompose"):
        monkeypatch.setattr(latin, name, counted(name, getattr(latin, name)))
    plan = transform(*golden_pairs(8)[0])
    assert len(plan.moves) > 1
    assert calls == {"line_sums": 0, "_first_violated_line": 1, "_apply_moves": 1, "decompose": 0}


def test_transform_line_sums_are_the_difference_vectors():
    # the one pass over the differing cells gives vec(l1) - vec(l2)'s line sums and decompose's moves
    rng = random.Random(21)
    for n in (2, 3, 5, 8):
        for _ in range(5):
            a, b = random_square(n, rng), random_square(n, rng)
            sums, moves = latin._difference_moves(a, b)
            v = TripleVector.from_square(a) - TripleVector.from_square(b)
            assert sums == v.line_sums() == {}
            if a != b:
                coeffs = decompose(v)
                assert sorted(moves, key=lambda m: (-m[0], m[1:])) == moves
                assert sorted((-s, i, j, k) for s, i, j, k in moves) == sorted((c, *ijk) for ijk, c in coeffs.items())
    # a non-square on one side: the first violated row is decompose's
    a = random_square(4, rng)
    b = LatinSquare.__new__(LatinSquare)
    b.n, b.cells = 4, (a.cells[0], a.cells[0], a.cells[2], a.cells[3])
    sums, _ = latin._difference_moves(a, b)
    with pytest.raises(KernelMembershipError) as want:
        decompose(TripleVector.from_square(a) - TripleVector.from_square(b))
    with pytest.raises(KernelMembershipError) as got:
        transform(a, b)
    assert sums and (got.value.row, got.value.label, got.value.value) == (want.value.row, want.value.label, want.value.value)


# corruptions that the exactness checks must catch: (patched function, corruption, argv, message)
CORRUPTIONS = {
    "decompose-off-by-one-engine": (
        "_apply_moves",
        "def corrupted(n, state, moves):\n    counts = original(n, state, moves)\n    state[0] = state.get(0, 0) + 1\n    return counts\n",
        ["latin", "decompose", "--trade", "{trade}"],
        "do not reconstruct the vector",
    ),
    "transform-move-dropped": (
        "_difference_moves",
        "def corrupted(l1, l2):\n    sums, moves = original(l1, l2)\n    return sums, moves[:-1]\n",
        ["latin", "transform", "--a", "{a}", "--b", "{b}"],
        "does not reach the goal square",
    ),
    "transform-symbol-changed": (
        "_difference_moves",
        "def corrupted(l1, l2):\n    sums, moves = original(l1, l2)\n    s, i, j, k = moves[0]\n"
        "    return sums, [(s, i, j, k % (l1.n - 1) + 1), *moves[1:]]\n",
        ["latin", "transform", "--a", "{a}", "--b", "{b}"],
        "does not reach the goal square",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_engine_or_plan_is_caught_under_optimize(tmp_path, monkeypatch, case):
    name, corruption, argv, message = CORRUPTIONS[case]
    a, b = golden_pairs(6)[0]
    files = {"a": tmp_path / "a.sq", "b": tmp_path / "b.sq", "trade": tmp_path / "t.trade"}
    files["a"].write_text(format_square(a))
    files["b"].write_text(format_square(b))
    files["trade"].write_text(format_trade(difference_trade(a, b)))
    argv = [x.format(**files) for x in argv]
    # in process
    scope = {"original": getattr(latin, name)}
    exec(corruption, scope)
    with monkeypatch.context() as patched:
        patched.setattr(latin, name, scope["corrupted"])
        with pytest.raises(VerificationError, match=message):
            if argv[1] == "decompose":
                decompose(trade_vector(difference_trade(a, b)))
            else:
                transform(a, b)
    # and in a python -O child, where asserts are stripped, through the CLI
    script = (
        "import sys\n"
        "assert False, 'asserts are live'\n"
        "from tradekernel import cli, latin\n"
        f"original = latin.{name}\n"
        f"{corruption}"
        f"latin.{name} = corrupted\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(latin.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 3, out.stderr
    payload = json.loads(out.stdout)["payload"]
    assert payload["error"] == "Verification"
    assert message in payload["message"]


class TestMoves:
    def test_apply_move_keeps_line_sums(self):
        state = TripleVector.from_square(cyclic(3))
        out = apply_move(state, 1, 1, 1, +1)
        assert out.line_sums() == {r: 1 for r in range(27)}
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
