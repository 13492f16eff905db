"""Exact linear algebra: ranks, kernels, span coordinates, lattices."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradekernel import cycles, exactla, kernels, latin
from tradekernel.errors import FormatError
from tradekernel.exactla import (
    SparseEchelon,
    SparseIntMatrix,
    coefficients_in_span,
    dump_matrix,
    hermite_normal_form,
    kernel_basis,
    lattice_equal,
    parse_matrix,
    rank_exact,
    rank_mod_p,
)

P = 2_147_483_629  # 31-bit prime


def fraction_rank(rows):
    """Independent oracle: Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestSparseIntMatrix:
    def test_round_trip_dense(self):
        rows = [[0, 2, 0], [-1, 0, 5]]
        m = SparseIntMatrix.from_dense(rows)
        assert m.to_dense() == rows
        assert m.nnz == 3

    def test_zero_entries_dropped(self):
        m = SparseIntMatrix(2, 2, {(0, 0): 0, (1, 1): 3})
        assert m.nnz == 1

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            SparseIntMatrix(2, 2, {(2, 0): 1})

    def test_matvec_exact(self):
        m = SparseIntMatrix.from_dense([[10**20, 1], [0, -(10**20)]])
        y = m.matvec([1, 1])
        assert y == [10**20 + 1, -(10**20)]

    def test_dump_parse_round_trip(self):
        m = SparseIntMatrix.from_dense([[0, -7], [3, 0], [0, 0]])
        text = dump_matrix(m)
        m2 = parse_matrix(text)
        assert m2 == m

    def test_parse_duplicate_entry_rejected(self):
        with pytest.raises(FormatError):
            parse_matrix("dims 2 2\n0 0 1\n0 0 2\n")

    def test_parse_empty_text_rejected(self):
        # no dims line and no entries is no matrix; declared dimensions with no entries are one
        for text in ("", "\n", "  \n\t\n"):
            with pytest.raises(FormatError, match="empty matrix file"):
                parse_matrix(text)
        assert parse_matrix("dims 0 0\n") == SparseIntMatrix(0, 0, {})
        assert parse_matrix("dims 2 3\n") == SparseIntMatrix(2, 3, {})


class TestRank:
    def test_identity(self):
        m = SparseIntMatrix.from_dense([[1, 0], [0, 1]])
        assert rank_exact(m) == 2
        assert rank_mod_p(m, P) == 2

    def test_zero_matrix(self):
        m = SparseIntMatrix(3, 4, {})
        assert rank_exact(m) == 0
        assert rank_mod_p(m, P) == 0

    def test_rank_drop_visible_only_in_char_p(self):
        # diag(1, p) has full rank over Z but rank 1 mod p
        m = SparseIntMatrix.from_dense([[1, 0], [0, P]])
        assert rank_exact(m) == 2
        assert rank_mod_p(m, P) == 1

    def test_huge_declared_dimensions_stay_sparse(self):
        # a dense pass would ask for 10**12 cells; both ranks read the one entry
        m = SparseIntMatrix(10**6, 10**6, {(0, 0): 1})
        assert rank_exact(m) == 1
        assert rank_mod_p(m, P) == 1

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
            min_size=1,
            max_size=7,
        ),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_mod_p_matches_dense_kernel(self, rows, p):
        # the numpy in-order elimination is an independent oracle; small
        # primes make rank drops mod p common
        m = SparseIntMatrix.from_dense(rows)
        assert rank_mod_p(m, p) == kernels.modp_rank(np.array(rows, dtype=np.int64), p)

    def test_bad_modulus_rejected(self):
        m = SparseIntMatrix.from_dense([[1]])
        with pytest.raises(ValueError):
            rank_mod_p(m, 10)  # composite
        with pytest.raises(ValueError):
            rank_mod_p(m, 2**31 + 11)  # too large

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_fraction_oracle(self, rows):
        m = SparseIntMatrix.from_dense(rows)
        r = rank_exact(m)
        assert r == fraction_rank(rows)
        assert rank_mod_p(m, P) <= r
        assert 0 <= r <= min(m.n_rows, m.n_cols)


class TestSparseEchelon:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
            min_size=1,
            max_size=8,
        )
    )
    def test_selects_the_rows_that_raise_the_rank(self, rows):
        ech = SparseEchelon()
        for i, row in enumerate(rows):
            raised = ech.add(dict(enumerate(row)))
            assert raised == (fraction_rank(rows[: i + 1]) > fraction_rank(rows[:i]))
        assert len(ech) == fraction_rank(rows)

    def test_pivots_primitive_with_positive_lead(self):
        ech = SparseEchelon()
        assert ech.add({0: 2, 3: -4})  # content 2 divided out, negative lead flipped
        assert ech.add({1: 3, 3: 3})  # 2*{1: 1, 3: 1} - pivot 3 = {0: 1, 1: 2}
        assert not ech.add({0: -4, 3: 8})
        assert ech.add({0: 6, 1: 4})  # {0: 3, 1: 2} - pivot 1 = {0: 2}, content 2
        assert not ech.add({})
        for lead, piv in ech.pivots.items():
            assert lead == max(piv) and piv[lead] > 0
            assert math.gcd(*piv.values()) == 1
        assert ech.pivots == {3: {0: -1, 3: 2}, 1: {0: 1, 1: 2}, 0: {0: 1}}


class TestKernel:
    def test_kernel_annihilates(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        m = SparseIntMatrix.from_dense(rows)
        basis = kernel_basis(m)
        assert len(basis) == m.n_cols - rank_exact(m)
        for v in basis:
            assert m.matvec(v) == [0] * m.n_rows

    def test_full_rank_kernel_empty(self):
        m = SparseIntMatrix.from_dense([[2, 0], [1, 1]])
        assert kernel_basis(m) == []

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
            min_size=2,
            max_size=5,
        )
    )
    def test_rank_nullity(self, rows):
        m = SparseIntMatrix.from_dense(rows)
        assert rank_exact(m) + len(kernel_basis(m)) == m.n_cols

    def test_kernel_vectors_primitive(self):
        import math

        m = SparseIntMatrix.from_dense([[2, 4, 6]])
        for v in kernel_basis(m):
            assert math.gcd(*[abs(x) for x in v if x] or [1]) == 1


class TestSpanCoordinates:
    def test_exact_coordinates(self):
        gens = [[1, 0, 1], [0, 1, 1]]
        coeffs = coefficients_in_span(gens, [2, 3, 5])
        assert coeffs == [Fraction(2), Fraction(3)]

    def test_rational_coordinates(self):
        gens = [[2, 0], [0, 3]]
        coeffs = coefficients_in_span(gens, [1, 1])
        assert coeffs == [Fraction(1, 2), Fraction(1, 3)]

    def test_not_in_span(self):
        gens = [[1, 0, 0]]
        assert coefficients_in_span(gens, [0, 1, 0]) is None

    def test_zero_target(self):
        gens = [[1, 2], [3, 4]]
        assert coefficients_in_span(gens, [0, 0]) == [Fraction(0), Fraction(0)]

    def test_dependent_generator_gets_zero(self):
        gens = [[1, 1, 0], [2, 2, 0], [0, 1, 1]]
        assert coefficients_in_span(gens, [3, 4, 1]) == [Fraction(3), Fraction(0), Fraction(1)]

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_matches_fraction_rref_solve(self, data):
        dim = data.draw(st.integers(1, 7))
        entry = st.integers(-3, 3)
        gens = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=6))
        if gens and data.draw(st.booleans()):
            # a generator dependent on the ones before it
            f = data.draw(st.lists(entry, min_size=len(gens), max_size=len(gens)))
            gens.insert(data.draw(st.integers(1, len(gens))), [sum(a * g[i] for a, g in zip(f, gens)) for i in range(dim)])
        if gens and data.draw(st.booleans()):
            scale = st.fractions(min_value=-3, max_value=3, max_denominator=4)
            f = data.draw(st.lists(scale, min_size=len(gens), max_size=len(gens)))
            den = math.lcm(*(x.denominator for x in f))
            target = [int(sum(a * den * g[i] for a, g in zip(f, gens))) for i in range(dim)]
        else:
            target = data.draw(st.lists(entry, min_size=dim, max_size=dim))
        assert coefficients_in_span(gens, target) == fraction_rref_solve(gens, target)


def fraction_rref(mat, n_cols):
    """Oracle: dense reduced row echelon form over Fraction, (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in mat]
    m = len(rows)
    piv = []
    r = 0
    for c in range(n_cols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pe = rows[r][c]
        rows[r] = [x / pe for x in rows[r]]
        rr = rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rr)]
        piv.append(c)
        r += 1
    return rows, piv


def fraction_rref_kernel(m):
    """Oracle: one kernel vector per free column of the dense RREF, primitive, first nonzero positive."""
    rows, piv = fraction_rref(m.to_dense(), m.n_cols)
    out = []
    for f in range(m.n_cols):
        if f in piv:
            continue
        v = [Fraction(0)] * m.n_cols
        v[f] = Fraction(1)
        for r, c in enumerate(piv):
            v[c] = -rows[r][f]
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        lead = next(x for x in ints if x)
        out.append([x // g if lead > 0 else -x // g for x in ints])
    return out


class TestKernelOracle:
    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_matches_fraction_rref(self, data):
        n_rows = data.draw(st.integers(0, 6))
        n_cols = data.draw(st.integers(0, 7))
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
        rows = data.draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
        if len(rows) >= 2 and data.draw(st.booleans()):
            # a row dependent on the others
            f = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows) - 1, max_size=len(rows) - 1))
            rows[-1] = [sum(a * r[j] for a, r in zip(f, rows)) for j in range(n_cols)]
        for j in data.draw(st.sets(st.integers(0, n_cols - 1))) if n_cols else ():
            for r in rows:
                r[j] = 0
        m = SparseIntMatrix(n_rows, n_cols, {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v})
        assert kernel_basis(m) == fraction_rref_kernel(m)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: cycles.build_inclusion_matrix(6),
            lambda: cycles.build_inclusion_matrix(7),
            lambda: latin.build_inclusion_matrix(4),
        ],
        ids=["cycles-6", "cycles-7", "latin-4"],
    )
    def test_inclusion_matrices(self, build):
        m = build()
        assert kernel_basis(m) == fraction_rref_kernel(m)

    def test_reads_only_stored_entries(self):
        # a dense pass would build 10**6 rows; the columns hold two entries
        m = SparseIntMatrix(10**6, 4, {(5, 1): 2, (10**6 - 1, 3): -1})
        assert kernel_basis(m) == [[1, 0, 0, 0], [0, 0, 1, 0]]


def test_to_dense_only_in_matrix_rank_exact():
    # one densify is left in the package, the one perfbench counts; kernel and rank paths read entries
    def to_dense_calls(tree):
        return sum(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "to_dense"
            for n in ast.walk(tree)
        )

    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in Path(exactla.__file__).parent.glob("*.py")}
    (rank_fn,) = (
        n for n in ast.walk(trees["cycles"]) if isinstance(n, ast.FunctionDef) and n.name == "matrix_rank_exact"
    )
    assert sum(to_dense_calls(t) for t in trees.values()) == to_dense_calls(rank_fn) == 1


def fraction_rref_solve(gens, target):
    """Oracle: RREF of [G | t] over Fraction with the generators as columns, free coefficients 0."""
    m = len(gens)
    if m == 0:
        return None if any(target) else []
    rows, piv = fraction_rref([[g[i] for g in gens] + [t] for i, t in enumerate(target)], m + 1)
    if m in piv:
        return None
    coeffs = [Fraction(0)] * m
    for r, c in enumerate(piv):
        coeffs[c] = rows[r][m]
    return coeffs


class TestEchelonCoordinates:
    def test_tagged_rows(self):
        e = SparseEchelon()
        assert e.add({0: 2, 2: 1}, tag="a")
        assert e.add({1: 2, 2: 1}, tag="b")
        assert not e.add({0: 2, 1: 2, 2: 2}, tag="c")  # a + b
        assert e.coordinates({0: 2, 1: 2, 2: 2}) == {"a": 1, "b": 1}
        assert e.coordinates({0: 2, 1: -2}) == {"a": 1, "b": -1}
        assert e.coordinates({0: 1, 1: 1, 2: 1}) == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        assert e.coordinates({0: 1}) is None
        assert e.coordinates({}) == {}
        for scale, combo in e.combos.values():
            assert scale > 0 and combo

    def test_outside_span_is_none(self):
        e = SparseEchelon()
        e.add({0: 1, 1: 1}, tag=0)
        assert e.coordinates({1: 1}) is None
        assert e.coordinates({0: 1, 1: 2}) is None


class TestHermite:
    def test_known_form(self):
        # the standard 2x2 example: rows (2,0),(1,1) reduce to (1,1),(0,2)
        h = hermite_normal_form([[2, 0], [1, 1]])
        assert h == [[1, 1], [0, 2]]

    def test_idempotent(self):
        rows = [[4, 6, 2], [6, 9, 3], [2, 3, 5]]
        h = hermite_normal_form(rows)
        assert hermite_normal_form(h) == h

    def test_pivots_positive_entries_reduced(self):
        h = hermite_normal_form([[-3, 1, 4], [5, -2, 0], [7, 0, 1]])
        pivots = []
        for row in h:
            c = next(i for i, x in enumerate(row) if x != 0)
            pivots.append(c)
            assert row[c] > 0
            for above in h[: h.index(row)]:
                assert 0 <= above[c] < row[c]
        assert pivots == sorted(pivots)

    def test_row_ops_preserve_lattice(self):
        a = [[1, 2], [3, 4]]
        b = [[1, 2], [4, 6], [3, 4]]  # adds a sum row: same lattice
        assert lattice_equal(a, b)

    def test_sublattice_not_equal(self):
        assert not lattice_equal([[2, 0], [0, 2]], [[1, 0], [0, 1]])
        assert not lattice_equal([[1, 0], [0, 1]], [[2, 0], [0, 2]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lattice_equal([[1, 0]], [[1, 0, 0]])

    def test_dimension_cap(self):
        wide = [[0] * 601]
        with pytest.raises(ValueError):
            lattice_equal(wide, wide)

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.permutations(range(4)),
    )
    def test_equal_under_row_shuffle_and_negation(self, rows, perm):
        shuffled = [rows[i] for i in perm if i < len(rows)]
        if not shuffled:
            shuffled = rows
        negated = [[-x for x in r] for r in shuffled] + rows
        assert lattice_equal(rows, negated)
