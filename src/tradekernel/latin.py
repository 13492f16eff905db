"""Latin squares, latin trades, and the intercalate move engine.

A latin square of order n is stored as an n x n array over {0,...,n-1};
a partial latin square as a set of (row, column, symbol) triples. Trades
are pairs (P, Q) of partial squares with equal shape, cellwise
disagreement, and matching row and column contents. Everything funnels
through TripleVector, the integer vector of length n^3 indexed by
index(i,j,k) = i*n^2 + j*n + k: squares are 0/1 vectors, trades are
+1/-1 vectors, and intermediate states of a move sequence are arbitrary
integer vectors with unit line sums.

The inclusion matrix M has 3n^2 rows (cell lines, row-symbol lines,
column-symbol lines, in that block order) and n^3 columns; a signed
vector lies in ker M exactly when all its line sums vanish, which is how
kernel membership is checked here without forming M.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from .errors import FormatError, IdenticalSquaresError, KernelMembershipError, VerificationError
from .exactla import SparseIntMatrix

if TYPE_CHECKING:
    import numpy as np


def triple_index(n: int, i: int, j: int, k: int) -> int:
    return i * n * n + j * n + k


def triple_at(n: int, idx: int) -> tuple[int, int, int]:
    i, rest = divmod(idx, n * n)
    j, k = divmod(rest, n)
    return i, j, k


class LatinSquare:
    """An order-n latin square; rows are tuples of symbols."""

    def __init__(self, cells: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in cells)
        n = len(rows)
        if n == 0:
            raise ValueError("empty square")
        full = set(range(n))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if set(row) != full:
                raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            col = {rows[i][j] for i in range(n)}
            if col != full:
                raise ValueError(f"column {j} is not a permutation of 0..{n - 1}")
        self.n = n
        self.cells = rows

    def cell(self, i: int, j: int) -> int:
        return self.cells[i][j]

    def triples(self) -> Iterator[tuple[int, int, int]]:
        for i, row in enumerate(self.cells):
            for j, k in enumerate(row):
                yield (i, j, k)

    def __eq__(self, other) -> bool:
        return isinstance(other, LatinSquare) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"LatinSquare(n={self.n})"


class PartialLatinSquare:
    """A partial filling: triples (row, column, symbol) under the at-most-once rules."""

    def __init__(self, n: int, triples: Iterable[tuple[int, int, int]]):
        if n < 1:
            raise ValueError("order must be at least 1")
        ts = frozenset((int(i), int(j), int(k)) for i, j, k in triples)
        seen_cell: dict[tuple[int, int], int] = {}
        seen_rs: set[tuple[int, int]] = set()
        seen_cs: set[tuple[int, int]] = set()
        for i, j, k in sorted(ts):
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"triple ({i},{j},{k}) out of range for n={n}")
            if (i, j) in seen_cell:
                raise ValueError(f"cell ({i},{j}) filled twice")
            if (i, k) in seen_rs:
                raise ValueError(f"symbol {k} repeated in row {i}")
            if (j, k) in seen_cs:
                raise ValueError(f"symbol {k} repeated in column {j}")
            seen_cell[(i, j)] = k
            seen_rs.add((i, k))
            seen_cs.add((j, k))
        self.n = n
        self.triples = ts
        self._by_cell = seen_cell

    @property
    def shape(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._by_cell)

    @property
    def volume(self) -> int:
        return len(self.triples)

    def symbol_at(self, i: int, j: int) -> Optional[int]:
        return self._by_cell.get((i, j))

    def row_content(self, i: int) -> frozenset[int]:
        return frozenset(k for (r, _, k) in self.triples if r == i)

    def col_content(self, j: int) -> frozenset[int]:
        return frozenset(k for (_, c, k) in self.triples if c == j)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialLatinSquare)
            and self.n == other.n
            and self.triples == other.triples
        )

    def __hash__(self) -> int:
        return hash((self.n, self.triples))

    def __repr__(self) -> str:
        return f"PartialLatinSquare(n={self.n}, volume={self.volume})"


@dataclass(frozen=True)
class TradeViolation:
    """First failed trade condition with a witness. Condition numbering:
    1 = shapes differ, 2 = agreement on a common cell, 3 = line content mismatch."""

    condition: int
    message: str


def check_trade(p: PartialLatinSquare, q: PartialLatinSquare) -> Optional[TradeViolation]:
    """None if (p, q) is a latin trade, else the first violation."""
    if p.n != q.n:
        raise ValueError("orders differ")
    if p.shape != q.shape:
        witness = min(p.shape ^ q.shape)
        return TradeViolation(1, f"shapes differ at cell {witness}")
    for i, j in sorted(p.shape):
        if p.symbol_at(i, j) == q.symbol_at(i, j):
            return TradeViolation(2, f"cell ({i},{j}) holds the same symbol on both sides")
    for i in range(p.n):
        if p.row_content(i) != q.row_content(i):
            return TradeViolation(3, f"row {i} contents differ")
    for j in range(p.n):
        if p.col_content(j) != q.col_content(j):
            return TradeViolation(3, f"column {j} contents differ")
    return None


class LatinTrade:
    """A latin trade (P, Q). Construction validates all three conditions."""

    def __init__(self, p: PartialLatinSquare, q: PartialLatinSquare):
        bad = check_trade(p, q)
        if bad is not None:
            raise ValueError(f"not a trade (condition {bad.condition}): {bad.message}")
        self.p = p
        self.q = q
        self.n = p.n

    @property
    def volume(self) -> int:
        return self.p.volume

    def __eq__(self, other) -> bool:
        return isinstance(other, LatinTrade) and self.p == other.p and self.q == other.q

    def __repr__(self) -> str:
        return f"LatinTrade(n={self.n}, volume={self.volume})"


def validate_trade(
    p: PartialLatinSquare, q: PartialLatinSquare
) -> Union[LatinTrade, TradeViolation]:
    """The trade if the pair qualifies, otherwise the first violation report."""
    bad = check_trade(p, q)
    return bad if bad is not None else LatinTrade(p, q)


class TripleVector:
    """Integer vector over ordered triples; the working state of every latin op.

    Entries are an int64 array treated as immutable; all arithmetic
    returns fresh vectors. Entry magnitudes stay far below int64 range in
    every code path here (moves change entries by 1).
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Optional[np.ndarray] = None):
        import numpy as np

        if n < 1:
            raise ValueError("order must be at least 1")
        if entries is None:
            entries = np.zeros(n**3, dtype=np.int64)
        else:
            entries = np.asarray(entries, dtype=np.int64).copy()
            if entries.shape != (n**3,):
                raise ValueError(f"expected length {n**3}, got {entries.shape}")
        self.n = n
        self.entries = entries

    @classmethod
    def from_square(cls, sq: LatinSquare) -> "TripleVector":
        import numpy as np

        n = sq.n
        v = np.zeros(n**3, dtype=np.int64)
        # cell (i, j) is entry i*n + j of the raveled grid; its triple sits at (i*n + j)*n + k
        v[np.arange(n * n) * n + np.array(sq.cells, dtype=np.int64).ravel()] = 1
        return cls(n, v)

    def __getitem__(self, ijk: tuple[int, int, int]) -> int:
        return int(self.entries[triple_index(self.n, *ijk)])

    def cube(self) -> np.ndarray:
        return self.entries.reshape(self.n, self.n, self.n)

    def line_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cell, row-symbol, column-symbol) line sum tables, each n x n."""
        c = self.cube()
        return c.sum(axis=2), c.sum(axis=1), c.sum(axis=0)

    def improper_count(self) -> int:
        """Number of entries outside {0, 1}."""
        import numpy as np

        e = self.entries
        return int(np.count_nonzero((e != 0) & (e != 1)))

    def is_zero(self) -> bool:
        return not self.entries.any()

    def support(self) -> list[tuple[int, int, int]]:
        import numpy as np

        return [triple_at(self.n, int(i)) for i in np.nonzero(self.entries)[0]]

    def to_ints(self) -> list[int]:
        return [int(x) for x in self.entries]

    def add_scaled(self, other: "TripleVector", c: int) -> "TripleVector":
        if other.n != self.n:
            raise ValueError("orders differ")
        return TripleVector(self.n, self.entries + c * other.entries)

    def __add__(self, other: "TripleVector") -> "TripleVector":
        return self.add_scaled(other, 1)

    def __sub__(self, other: "TripleVector") -> "TripleVector":
        return self.add_scaled(other, -1)

    def __neg__(self) -> "TripleVector":
        return TripleVector(self.n, -self.entries)

    def __eq__(self, other) -> bool:
        import numpy as np

        return (
            isinstance(other, TripleVector)
            and self.n == other.n
            and np.array_equal(self.entries, other.entries)
        )

    def __repr__(self) -> str:
        import numpy as np

        return f"TripleVector(n={self.n}, nnz={int(np.count_nonzero(self.entries))})"


def line_label(n: int, r: int) -> str:
    """Label of row r of the order-n inclusion matrix: rc(i,j), rs(i,k) or cs(j,k)."""
    block, rest = divmod(r, n * n)
    u1, u2 = divmod(rest, n)
    return f"{('rc', 'rs', 'cs')[block]}({u1},{u2})"


@dataclass(frozen=True)
class InclusionMatrix:
    """The 3n^2 x n^3 latin inclusion matrix with labeled rows."""

    n: int
    matrix: SparseIntMatrix

    def row_label(self, r: int) -> str:
        return line_label(self.n, r)


@functools.lru_cache(maxsize=None)
def build_inclusion_matrix(n: int) -> InclusionMatrix:
    """Rows: cell lines (i,j), then row-symbol (i,k), then column-symbol (j,k).

    Each column (i,j,k) meets exactly one row per block, so columns have
    three ones and rows have n ones.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    nn = n * n
    entries = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                col = triple_index(n, i, j, k)
                entries[(i * n + j, col)] = 1
                entries[(nn + i * n + k, col)] = 1
                entries[(2 * nn + j * n + k, col)] = 1
    return InclusionMatrix(n, SparseIntMatrix(3 * nn, n**3, entries))


def _first_violated_line(v: TripleVector) -> Optional[tuple[int, str, int]]:
    """(row index, label, value) of the first nonzero line sum, or None."""
    import numpy as np

    n = v.n
    for block, table in enumerate(v.line_sums()):
        nz = np.argwhere(table != 0)
        if nz.size:
            u1, u2 = int(nz[0][0]), int(nz[0][1])
            r = block * n * n + u1 * n + u2
            return r, line_label(n, r), int(table[u1, u2])
    return None


def trade_vector(t: LatinTrade) -> TripleVector:
    """+1 on P, -1 on Q. Kernel membership (all line sums zero) is checked."""
    import numpy as np

    n = t.n
    triples = np.array([*t.p.triples, *t.q.triples], dtype=np.int64).reshape(-1, 3)
    signs = np.repeat(np.array([1, -1], dtype=np.int64), [t.p.volume, t.q.volume])
    v = np.zeros(n**3, dtype=np.int64)
    np.add.at(v, triples @ np.array([n * n, n, 1], dtype=np.int64), signs)
    out = TripleVector(n, v)
    bad = _first_violated_line(out)
    if bad is not None:
        raise VerificationError(f"trade vector is not in the kernel: line {bad[1]} sums to {bad[2]}")
    return out


def intercalate_cells(i: int, j: int, k: int, n: int) -> list[tuple[tuple[int, int, int], int]]:
    """The eight signed cells ((a, b, c), +-1) of B_ijk = (e0 - e_i) x (e0 - e_j) x (e0 - e_k).

    B_ijk is the volume-4 trade anchored at row 0, column 0, symbol 0;
    its +1 cells are P and its -1 cells are Q. Every line of the square
    meets it in one +1 and one -1 cell or not at all, so its line sums
    are zero. Cells come in lexicographic (a, b, c) order.
    """
    if not (1 <= i < n and 1 <= j < n and 1 <= k < n):
        raise ValueError(f"need 1 <= i,j,k <= {n - 1}, got ({i},{j},{k})")
    return [
        ((a, b, c), sa * sb * sc)
        for a, sa in ((0, 1), (i, -1))
        for b, sb in ((0, 1), (j, -1))
        for c, sc in ((0, 1), (k, -1))
    ]


# B_ijk's sign pattern as read off intercalate_cells: corner (a, b, c) of
# {0,1}^3 stands for row a*i, column b*j and symbol c*k, with sign s
_CORNER_SIGNS = tuple(intercalate_cells(1, 1, 1, 2))


def _move_entries(moves: list[tuple[int, int, int, int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and entry changes of the moves (sign, i, j, k), one row of eight per move.

    Row t lists move t's cells of B_ijk in intercalate_cells order: corner
    ((a, b, c), s) of _CORNER_SIGNS is index a*i*n^2 + b*j*n + c*k, that is
    {0, i*n^2} + {0, j*n} + {0, k}, and changes by sign * s.
    """
    import numpy as np

    bits = np.array([b for b, _ in _CORNER_SIGNS], dtype=np.int64)
    signs = np.array([s for _, s in _CORNER_SIGNS], dtype=np.int64)
    mv = np.array(moves, dtype=np.int64).reshape(-1, 4)
    return (mv[:, 1:] * np.array([n * n, n, 1], dtype=np.int64)) @ bits.T, mv[:, :1] * signs


def _intercalate_sum(coeffs: np.ndarray) -> np.ndarray:
    """The sum of c_ijk * B_ijk for an (n-1)^3 cube of coefficients, as an n x n x n cube.

    Corner ((a, b, c), s) of every B_ijk lands at index 0 on each axis whose
    bit is 0 and at i, j or k on the others, so its share is s times the
    coefficients summed over the axes whose bit is 0.
    As B_ijk = (e0 - e_i) x (e0 - e_j) x (e0 - e_k) is separable, this is
    the map x -> (sum x, -x_1, ..., -x_{n-1}) applied along each axis: O(n^3).
    """
    import numpy as np

    out = np.zeros(tuple(d + 1 for d in coeffs.shape), dtype=np.int64)
    for bits, s in _CORNER_SIGNS:
        share = coeffs.sum(axis=tuple(ax for ax, b in enumerate(bits) if not b), keepdims=True)
        out[tuple(slice(1, None) if b else slice(0, 1) for b in bits)] += s * share
    return out


def intercalate(i: int, j: int, k: int, n: int) -> LatinTrade:
    """The volume-4 trade B_ijk anchored at row 0, column 0, symbol 0."""
    cells = intercalate_cells(i, j, k, n)
    p = PartialLatinSquare(n, [t for t, s in cells if s > 0])
    q = PartialLatinSquare(n, [t for t, s in cells if s < 0])
    return LatinTrade(p, q)


def intercalate_vector(i: int, j: int, k: int, n: int) -> TripleVector:
    """Vector of B_ijk: the tensor (e0 - e_i) x (e0 - e_j) x (e0 - e_k)."""
    import numpy as np

    v = np.zeros(n**3, dtype=np.int64)
    for t, s in intercalate_cells(i, j, k, n):
        v[triple_index(n, *t)] = s
    return TripleVector(n, v)


def intercalate_basis(n: int) -> list[TripleVector]:
    """All (n-1)^3 intercalate vectors in lexicographic (i,j,k) order."""
    if n < 2:
        raise ValueError("order must be at least 2")
    return [
        intercalate_vector(i, j, k, n)
        for i in range(1, n)
        for j in range(1, n)
        for k in range(1, n)
    ]


def decompose(v: TripleVector) -> dict[tuple[int, int, int], int]:
    """Coefficients of v over the intercalate basis, as a nonzero-only map.

    The basis is triangular on the block i,j,k >= 1: B_ijk is the only
    member supported on (i,j,k) there, with entry -1, so c_ijk = -v[i,j,k].
    The reconstruction is checked exactly before returning, which is what
    makes the closed form trustworthy. B_ijk = (e0 - e_i) x (e0 - e_j) x
    (e0 - e_k) is separable, so sum c_ijk B_ijk is the coefficient cube with
    x -> (sum x, -x_1, ..., -x_{n-1}) applied along each axis (O(n^3)).
    """
    import numpy as np

    bad = _first_violated_line(v)
    if bad is not None:
        raise KernelMembershipError(*bad)
    coeffs = -v.cube()[1:, 1:, 1:]
    if not np.array_equal(_intercalate_sum(coeffs).ravel(), v.entries):
        raise VerificationError("intercalate coefficients do not reconstruct the vector")
    # nonzero lists the entries in C order, which is lexicographic (i,j,k)
    nz = np.nonzero(coeffs)
    ijk = (np.stack(nz, axis=1) + 1).tolist()
    return {(i, j, k): c for (i, j, k), c in zip(ijk, coeffs[nz].tolist())}


def difference_trade(l1: LatinSquare, l2: LatinSquare) -> LatinTrade:
    """Restrict both squares to the cells where they disagree."""
    if l1.n != l2.n:
        raise ValueError("orders differ")
    diff = [(i, j) for i in range(l1.n) for j in range(l1.n) if l1.cell(i, j) != l2.cell(i, j)]
    if not diff:
        raise IdenticalSquaresError()
    p = PartialLatinSquare(l1.n, [(i, j, l1.cell(i, j)) for i, j in diff])
    q = PartialLatinSquare(l1.n, [(i, j, l2.cell(i, j)) for i, j in diff])
    return LatinTrade(p, q)


def apply_move(state: TripleVector, i: int, j: int, k: int, sign: int) -> TripleVector:
    """state + sign * B_ijk. The state must have every line sum equal to 1.

    Intercalate vectors have zero line sums, so the move preserves unit
    line sums; entries are free to leave {0,1} (improper states), which
    TripleVector.improper_count reports.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    for table in state.line_sums():
        if not (table == 1).all():
            raise ValueError("malformed state: some line sum differs from 1")
    n = state.n
    out = TripleVector(n, state.entries)
    for t, s in intercalate_cells(i, j, k, n):
        out.entries[triple_index(n, *t)] += sign * s
    return out


def _replay(
    start: np.ndarray, offsets: np.ndarray, changes: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """The state after a run of moves and the improper count after each move.

    offsets and changes are _move_entries' rows, one move each. The final
    state adds every change at its entry. For the counts, each entry's
    changes are taken in move order (a stable sort by entry), so a running
    sum within each entry's run is the entry's value after that change;
    a change that leaves {0, 1} adds one improper cell, one that returns
    removes one. Every row touches eight distinct entries.
    """
    import numpy as np

    x, d = offsets.ravel(), changes.ravel()
    state = start.copy()
    np.add.at(state, x, d)
    order = np.argsort(x, kind="stable")
    xs, ds = x[order], d[order]
    run = np.cumsum(ds)
    first = np.r_[True, xs[1:] != xs[:-1]]
    # the running sum before each entry's first change, spread over its run
    before = (run - ds)[first][np.cumsum(first) - 1]
    new = start[xs] + run - before
    old = new - ds
    flips = np.empty_like(d)
    flips[order] = ((new != 0) & (new != 1)).astype(np.int64) - ((old != 0) & (old != 1))
    return state, np.cumsum(flips.reshape(offsets.shape).sum(axis=1)).tolist()


@dataclass(frozen=True)
class MovePlan:
    """A replayable sequence of signed intercalate moves.

    improper_counts[t] is the number of improper cells after move t;
    improper_max is 0 for the empty plan.
    """

    n: int
    moves: tuple[tuple[int, int, int, int], ...]  # (sign, i, j, k)
    improper_counts: tuple[int, ...]

    @property
    def improper_max(self) -> int:
        return max(self.improper_counts, default=0)


def transform(l1: LatinSquare, l2: LatinSquare) -> MovePlan:
    """A move plan taking l1 to l2, replay-verified before returning.

    Coefficients come from decompose(vec(l1) - vec(l2)); a coefficient c
    on B_ijk turns into |c| moves of sign -sgn(c). Positive-sign moves
    run first, each group in lexicographic (i,j,k) order.
    """
    import numpy as np

    if l1.n != l2.n:
        raise ValueError("orders differ")
    start = TripleVector.from_square(l1)
    goal = TripleVector.from_square(l2)
    if start == goal:
        return MovePlan(l1.n, (), ())
    coeffs = decompose(start - goal)
    # sign +1 (c < 0) first, then sign -1, each in lexicographic (i,j,k) order
    moves = [
        (-1 if c > 0 else 1, i, j, k)
        for (i, j, k), c in sorted(coeffs.items(), key=lambda item: (item[1] > 0, item[0]))
        for _ in range(abs(c))
    ]
    # The start is a latin square (unit line sums) and every B_ijk has zero
    # line sums, so no move can change a line sum: only the eight touched
    # entries and the improper count move.
    state, counts = _replay(start.entries, *_move_entries(moves, l1.n))
    if not np.array_equal(state, goal.entries):
        raise VerificationError("replaying the move plan does not reach the goal square")
    if counts[-1] != 0:
        raise VerificationError(f"the replay reaches the goal square with {counts[-1]} improper cells counted")
    return MovePlan(l1.n, tuple(moves), tuple(counts))


# ---------------------------------------------------------------------------
# text formats


def _parse_header(lines: list[str], what: str) -> int:
    if not lines or not lines[0].startswith("n="):
        raise FormatError(f"{what}: first line must be n=<order>")
    try:
        n = int(lines[0][2:])
    except ValueError as e:
        raise FormatError(f"{what}: bad order {lines[0]!r}") from e
    if n < 1:
        raise FormatError(f"{what}: order must be positive")
    return n


def _parse_grid(n: int, lines: list[str], what: str) -> list[list[Optional[int]]]:
    if len(lines) != n:
        raise FormatError(f"{what}: expected {n} grid lines, got {len(lines)}")
    grid: list[list[Optional[int]]] = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != n:
            raise FormatError(f"{what}: row {ln!r} has {len(parts)} fields, expected {n}")
        row: list[Optional[int]] = []
        for tok in parts:
            if tok == ".":
                row.append(None)
            else:
                try:
                    row.append(int(tok))
                except ValueError as e:
                    raise FormatError(f"{what}: bad symbol {tok!r}") from e
        grid.append(row)
    return grid


def format_square(sq: LatinSquare) -> str:
    lines = [f"n={sq.n}"]
    lines += [" ".join(str(x) for x in row) for row in sq.cells]
    return "\n".join(lines) + "\n"


def parse_grid_file(text: str, kind: str = "square") -> tuple[int, list[list[Optional[int]]]]:
    """(n, grid) with None for empty cells, before any latin checks."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = _parse_header(lines, kind)
    return n, _parse_grid(n, lines[1:], kind)


def parse_square(text: str) -> LatinSquare:
    n, grid = parse_grid_file(text, "square")
    if any(x is None for row in grid for x in row):
        raise FormatError("square: empty cells not allowed")
    try:
        return LatinSquare(grid)
    except ValueError as e:
        raise FormatError(f"square: {e}") from e


def format_partial(p: PartialLatinSquare) -> str:
    grid = [["."] * p.n for _ in range(p.n)]
    for i, j, k in p.triples:
        grid[i][j] = str(k)
    lines = [f"n={p.n}"] + [" ".join(row) for row in grid]
    return "\n".join(lines) + "\n"


def _grid_triples(grid: list[list[Optional[int]]]) -> list[tuple[int, int, int]]:
    return [(i, j, k) for i, row in enumerate(grid) for j, k in enumerate(row) if k is not None]


def format_trade(t: LatinTrade) -> str:
    p_txt = format_partial(t.p)
    q_grid = [["."] * t.n for _ in range(t.n)]
    for i, j, k in t.q.triples:
        q_grid[i][j] = str(k)
    q_txt = "\n".join(" ".join(row) for row in q_grid)
    return p_txt + "\n" + q_txt + "\n"


def parse_trade_grids(text: str) -> tuple[int, list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """(n, triples of first grid, triples of second), before partial-square checks."""
    raw = text.splitlines()
    blocks: list[list[str]] = [[]]
    for ln in raw:
        if ln.strip():
            blocks[-1].append(ln)
        elif blocks[-1]:
            blocks.append([])
    blocks = [b for b in blocks if b]
    if len(blocks) != 2:
        raise FormatError(f"trade: expected two grids separated by a blank line, got {len(blocks)} blocks")
    n = _parse_header(blocks[0], "trade")
    p_grid = _parse_grid(n, blocks[0][1:], "trade (first grid)")
    q_lines = blocks[1]
    if q_lines and q_lines[0].startswith("n="):
        if _parse_header(q_lines, "trade") != n:
            raise FormatError("trade: the two grids declare different orders")
        q_lines = q_lines[1:]
    q_grid = _parse_grid(n, q_lines, "trade (second grid)")
    return n, _grid_triples(p_grid), _grid_triples(q_grid)


def parse_trade_pair(text: str) -> tuple[PartialLatinSquare, PartialLatinSquare]:
    """The two grids of a trade file, unvalidated as a trade."""
    n, p_triples, q_triples = parse_trade_grids(text)
    try:
        p = PartialLatinSquare(n, p_triples)
        q = PartialLatinSquare(n, q_triples)
    except ValueError as e:
        raise FormatError(f"trade: {e}") from e
    return p, q


def parse_trade(text: str) -> LatinTrade:
    p, q = parse_trade_pair(text)
    return LatinTrade(p, q)


def format_move_plan(plan: MovePlan) -> str:
    lines = [f"{'+1' if s > 0 else '-1'} {i} {j} {k}" for s, i, j, k in plan.moves]
    lines.append(f"improper_max={plan.improper_max}")
    return "\n".join(lines) + "\n"


def parse_move_plan(text: str) -> tuple[list[tuple[int, int, int, int]], int]:
    """(moves, improper_max) from the plan format."""
    moves = []
    improper_max = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("improper_max="):
            improper_max = int(ln.split("=", 1)[1])
            continue
        parts = ln.split()
        if len(parts) != 4 or parts[0] not in ("+1", "-1", "1"):
            raise FormatError(f"bad move line: {ln!r}")
        moves.append((int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])))
    if improper_max is None:
        raise FormatError("missing improper_max line")
    return moves, improper_max
