"""Exact integer linear algebra on small sparse matrices.

Exact rank, basis selection, coordinates and kernel bases come from one
fraction-free elimination over the integers, SparseEchelon, which takes
rows one at a time, says which rows raised the rank and, for tagged
rows, expresses any vector of their span over them; a kernel basis runs
it on the columns. Rank mod a prime (rank_mod_p) is the same sparse
elimination over GF(p); it is a lower bound on the exact rank and serves
as a certificate independent in its arithmetic. Both pivot every row on
its last nonzero column, which keeps the pivot rows of the 4-sparse
diamond rows short; neither ever densifies a matrix, at the price of
pure-Python row operations on dense input. Every result here is exact.

The inclusion matrices of this package are 0/1 with a few nonzeros per
row, and their pivot rows stay small and sparse under SparseEchelon.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .errors import FormatError, VerificationError
from .primes import is_probable_prime


class SparseIntMatrix:
    """Immutable-by-convention sparse integer matrix in dict-of-keys form."""

    def __init__(self, n_rows: int, n_cols: int, entries: Mapping[tuple[int, int], int]):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        clean: dict[tuple[int, int], int] = {}
        for (r, c), v in entries.items():
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"entry ({r}, {c}) out of bounds for {n_rows}x{n_cols}")
            v = int(v)
            if v != 0:
                clean[(r, c)] = v
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = clean

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[int]]) -> "SparseIntMatrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = int(v)
        return cls(n_rows, n_cols, entries)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.n_cols for _ in range(self.n_rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def rows(self) -> list[dict[int, int]]:
        """The nonzero rows as {column: value} dicts, in row order.

        Reads only the stored entries, so the cost is O(nnz) whatever the
        declared dimensions.
        """
        by_row: dict[int, dict[int, int]] = {}
        for (r, c), v in self.entries.items():
            by_row.setdefault(r, {})[c] = v
        return [by_row[r] for r in sorted(by_row)]

    def matvec(self, v: Sequence[int]) -> list[int]:
        """Exact A @ v with Python integers."""
        if len(v) != self.n_cols:
            raise ValueError("dimension mismatch")
        out = [0] * self.n_rows
        for (r, c), a in self.entries.items():
            out[r] += a * v[c]
        return out

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseIntMatrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def dump_matrix(m: SparseIntMatrix) -> str:
    """`dims R C` header, then one line per entry, `row col value`, sorted."""
    lines = [f"dims {m.n_rows} {m.n_cols}"]
    lines += [f"{r} {c} {v}" for (r, c), v in sorted(m.entries.items())]
    return "\n".join(lines) + "\n"


def text_blocks(text: str) -> list[list[str]]:
    """The non-blank lines of text, in blocks separated by blank lines."""
    blocks: list[list[str]] = [[]]
    for ln in text.splitlines():
        if ln.strip():
            blocks[-1].append(ln)
        elif blocks[-1]:
            blocks.append([])
    return [b for b in blocks if b]


def parse_matrix(text: str) -> SparseIntMatrix:
    """Inverse of dump_matrix.

    Dimensions are taken from an optional leading `dims R C` line and
    otherwise inferred as one past the largest indices present; a text with neither is no matrix.
    """
    entries: dict[tuple[int, int], int] = {}
    n_rows = n_cols = None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix file: expected a `dims R C` line or entry lines")
    start = 0
    if lines[0].split()[0] == "dims":
        parts = lines[0].split()
        if len(parts) != 3:
            raise FormatError("dims line must read `dims R C`")
        try:
            n_rows, n_cols = int(parts[1]), int(parts[2])
        except ValueError as e:
            raise FormatError(f"bad dims line: {lines[0]!r}") from e
        start = 1
    for ln in lines[start:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError(f"bad matrix entry line: {ln!r}")
        try:
            r, c, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as e:
            raise FormatError(f"bad matrix entry line: {ln!r}") from e
        if (r, c) in entries:
            raise FormatError(f"duplicate entry at ({r}, {c})")
        entries[(r, c)] = v
    if n_rows is None:
        n_rows = max((r for r, _ in entries), default=-1) + 1
        n_cols = max((c for _, c in entries), default=-1) + 1
    try:
        return SparseIntMatrix(n_rows, n_cols, entries)
    except ValueError as e:  # negative dimensions or an entry out of bounds
        raise FormatError(str(e)) from e


# ---------------------------------------------------------------------------
# exact rank


class SparseEchelon:
    """Row echelon form over Z, grown one sparse row at a time.

    Pivot rows are dicts {column: value}, kept primitive (content 1) with
    a positive leading entry and keyed by their leading column. The
    leading column of a row is its last nonzero column. Any fixed rule
    gives the same rank, the same answer to "does this row raise the
    rank" and the same coordinates; the last column keeps the pivot rows
    of the 4-sparse diamond rows short and their entries small, where
    the first column lets them fill in (structured Gaussian elimination,
    LaMacchia and Odlyzko, CRYPTO '90). An incoming row is reduced
    fraction-free on its leading entry,
    b*row - a*pivot with a/b the two leads in lowest terms, and divided by
    its content after each step; it raises the rank exactly when it does
    not reduce to zero. No division is ever inexact and no prime is
    involved, so the rank is the rank over Q.

    A row added with a tag also records how its pivot was made: a scale
    s > 0 and an integer combination {tag: c} with s * pivot equal to
    sum c * (the row added with that tag). coordinates() reads exact
    coordinates over the tagged rows off these records. Untagged rows,
    as in a rank or a basis selection, skip the combination arithmetic;
    an echelon that gives coordinates takes tagged rows only.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}
        # leading column -> (scale, {tag: coefficient}) for pivots of tagged rows
        self.combos: dict[int, tuple[int, dict[Hashable, int]]] = {}

    def __len__(self) -> int:
        return len(self.pivots)

    def add(self, row: Mapping[int, int], tag: Optional[Hashable] = None) -> bool:
        """Insert row; True when it is outside the span of the rows so far."""
        r = {c: int(v) for c, v in row.items() if v}
        pivots = self.pivots
        # scale * r == sum of combo[t] * (row tagged t), while tagged
        scale, combo = 1, {tag: 1}
        while r:
            g = gcd(*r.values())
            if g != 1:
                r = {c: v // g for c, v in r.items()}
                scale *= g
            lead = max(r)
            piv = pivots.get(lead)
            if piv is None:
                if r[lead] < 0:
                    r = {c: -v for c, v in r.items()}
                    combo = {t: -x for t, x in combo.items()}
                pivots[lead] = r
                if tag is not None:
                    self.combos[lead] = _lowest_terms(scale, combo)
                return True
            a, b = r[lead], piv[lead]
            if b != 1:
                h = gcd(a, b)
                a, b = a // h, b // h
                r = {c: b * v for c, v in r.items()}
            for c, v in piv.items():
                x = r.get(c, 0) - a * v
                if x:
                    r[c] = x
                else:
                    del r[c]
            if tag is not None:
                # scale*ps * (b*r - a*piv) == b*ps*combo - a*scale*pcombo over the tagged rows
                ps, pcombo = self.combos[lead]
                new = {t: b * ps * x for t, x in combo.items()}
                for t, x in pcombo.items():
                    y = new.get(t, 0) - a * scale * x
                    if y:
                        new[t] = y
                    else:
                        new.pop(t, None)
                scale, combo = _lowest_terms(scale * ps, new)
        return False

    def coordinates(self, vector: Mapping[int, int]) -> Optional[dict[Hashable, Fraction]]:
        """Exact coordinates {tag: coefficient} of vector over the tagged rows.

        None when the vector is outside their span. Zero coordinates are
        left out. When the tagged rows are independent the coordinates are
        the unique ones; a row that was dependent when added gets none.
        """
        r = {c: int(v) for c, v in vector.items() if v}
        pivots = self.pivots
        # m * vector == r + sum of q[lead] * pivots[lead]
        m = 1
        q: dict[int, int] = {}
        while r:
            lead = max(r)
            piv = pivots.get(lead)
            if piv is None:
                # no pivot leads at the last nonzero column of r, so no pivot combination cancels it
                return None
            a, b = r[lead], piv[lead]
            if b != 1:
                h = gcd(a, b)
                a, b = a // h, b // h
                r = {c: b * v for c, v in r.items()}
                q = {k: b * x for k, x in q.items()}
                m *= b
            q[lead] = a
            for c, v in piv.items():
                x = r.get(c, 0) - a * v
                if x:
                    r[c] = x
                else:
                    del r[c]
        # vector == sum q[l] / (m * s_l) * combo_l over the tagged rows; over one
        # denominator m * lcm(s_l) every coordinate has an integer numerator
        lcm_s = lcm(*(self.combos[lead][0] for lead in q))
        num: dict[Hashable, int] = {}
        for lead, x in q.items():
            s, combo = self.combos[lead]
            f = x * (lcm_s // s)
            for t, c in combo.items():
                num[t] = num.get(t, 0) + f * c
        den = m * lcm_s
        return {t: Fraction(v, den) for t, v in num.items() if v}


def _lowest_terms(scale: int, combo: dict[Hashable, int]) -> tuple[int, dict[Hashable, int]]:
    g = gcd(scale, *combo.values())
    if g == 1:
        return scale, combo
    return scale // g, {t: x // g for t, x in combo.items()}


def _rank_rows(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank over Q of sparse rows {column: value}: one SparseEchelon pass."""
    echelon = SparseEchelon()
    for row in rows:
        echelon.add(row)
    return len(echelon)


def rank_exact_dense(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of dense rows, read by their nonzeros."""
    return _rank_rows({c: v for c, v in enumerate(row) if v} for row in rows)


def rank_exact(a: SparseIntMatrix) -> int:
    """Exact rank of a sparse integer matrix, read by its stored entries."""
    return _rank_rows(a.rows())


def check_modulus(p: int) -> int:
    """p itself if it is a prime below 2**31, else ValueError.

    The bound is the documented range of `--mod`, inside which the numpy
    kernels' residues stay in int64.
    """
    if not (2 <= p < 2**31) or not is_probable_prime(p):
        raise ValueError(f"p must be a prime below 2**31, got {p}")
    return p


def rank_mod_p(a: SparseIntMatrix, p: int) -> int:
    """Rank mod p. Always a lower bound on the exact rank.

    Sparse elimination over GF(p) on the matrix's rows, with the pivot
    rule of SparseEchelon: each pivot row is keyed by its last nonzero
    column and scaled to lead with 1.
    """
    check_modulus(p)
    pivots: dict[int, dict[int, int]] = {}
    for row in a.rows():
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            lead = max(r)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in r.items()}
                break
            f = r[lead]
            for c, v in piv.items():
                x = (r.get(c, 0) - f * v) % p
                if x:
                    r[c] = x
                else:
                    del r[c]
    return len(pivots)


# ---------------------------------------------------------------------------
# kernels and span coordinates


def kernel_basis(a: SparseIntMatrix) -> list[list[int]]:
    """Primitive integer basis of the right kernel of A.

    One vector per free column of the reduced row echelon form over Q,
    in column order; n_cols - rank vectors, each with content 1 and its
    first nonzero entry positive. The columns, read from the stored
    entries, go into one SparseEchelon in order: a free column is one
    that does not raise the rank, and its coordinates over the columns
    before it are its RREF entries, whatever the pivot rule.
    """
    cols: dict[int, dict[int, int]] = {}
    for (r, c), v in a.entries.items():
        cols.setdefault(c, {})[r] = v
    echelon = SparseEchelon()
    out: list[list[int]] = []
    for f in range(a.n_cols):
        col = cols.get(f, {})
        if echelon.add(col, tag=f):
            continue
        # den * (e_f - sum of x_j e_j) over the coordinates x_j, then divided by its content
        coords = echelon.coordinates(col)
        den = lcm(*(x.denominator for x in coords.values()))
        v = [0] * a.n_cols
        v[f] = den
        for j, x in coords.items():
            v[j] = -x.numerator * (den // x.denominator)
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        out.append([x // g for x in v])
    return out


def coefficients_in_span(
    generators: Sequence[Sequence[int]], target: Sequence[int]
) -> list[Fraction] | None:
    """Rational coefficients expressing target over the generators, or None.

    The generators go into one SparseEchelon in order, and the target is
    read off as coordinates over them. A generator in the span of the
    ones before it gets coefficient zero, so when the generators are
    independent the answer is the unique one. The recombination is
    verified before returning.
    """
    m = len(generators)
    dim = len(target)
    for g in generators:
        if len(g) != dim:
            raise ValueError("generator and target dimensions differ")
    echelon = SparseEchelon()
    for j, g in enumerate(generators):
        echelon.add({i: v for i, v in enumerate(g) if v}, tag=j)
    coords = echelon.coordinates({i: v for i, v in enumerate(target) if v})
    if coords is None:
        return None
    coeffs = [coords.get(j, Fraction(0)) for j in range(m)]
    for i in range(dim):
        acc = Fraction(0)
        for j in range(m):
            if coeffs[j]:
                acc += coeffs[j] * generators[j][i]
        if acc != target[i]:
            raise VerificationError(f"span coefficients recombine to {acc} at entry {i}, not {target[i]}")
    return coeffs


# ---------------------------------------------------------------------------
# lattices


def hermite_normal_form(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form of the integer row lattice.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), zero rows are dropped. Two generating sets span the same
    lattice iff their forms are identical.
    """
    a = [list(map(int, r)) for r in vectors]
    a = [r for r in a if any(r)]
    if not a:
        return []
    m = len(a)
    n = len(a[0])
    if any(len(r) != n for r in a):
        raise ValueError("ragged rows")
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            nz = [i for i in range(r + 1, m) if a[i][c] != 0]
            if a[r][c] == 0:
                if not nz:
                    break
                i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
                a[r], a[i0] = a[i0], a[r]
                continue
            if not nz:
                break
            for i in nz:
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            # remainders are in [0, pivot); promote the smallest nonzero so
            # the pivot strictly shrinks and the loop terminates
            rem = [i for i in range(r + 1, m) if a[i][c] != 0]
            if not rem:
                break
            i0 = min(rem, key=lambda i: (a[i][c], i))
            a[r], a[i0] = a[i0], a[r]
        if a[r][c] == 0:
            continue
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return a[:r]


LATTICE_DIM_CAP = 600


def lattice_equal(
    gens_a: Sequence[Sequence[int]], gens_b: Sequence[Sequence[int]], max_cols: int = LATTICE_DIM_CAP
) -> bool:
    """Whether two integer generating sets span the same row lattice.

    Ambient dimension is capped (HNF entry growth is untamed in general;
    within the cap the structured vectors here stay small).
    """
    dims = {len(r) for r in gens_a} | {len(r) for r in gens_b}
    if len(dims) > 1:
        raise ValueError("all generators must share one ambient dimension")
    if dims and next(iter(dims)) > max_cols:
        raise ValueError(f"ambient dimension exceeds the cap of {max_cols}")
    return hermite_normal_form(gens_a) == hermite_normal_form(gens_b)
