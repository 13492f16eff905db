"""Latin squares, latin trades, and the intercalate move engine.

A latin square of order n is stored as an n x n array over {0,...,n-1};
a partial latin square as a set of (row, column, symbol) triples. Trades
are pairs (P, Q) of partial squares with equal shape, cellwise
disagreement, and matching row and column contents. Everything funnels
through TripleVector, the sparse map {index: nonzero entry} of an integer
vector over the n^3 triples, index(i,j,k) = i*n^2 + j*n + k: squares are
0/1 vectors, trades are +1/-1 vectors, and intermediate states of a move
sequence are arbitrary integer vectors with unit line sums. One engine,
_apply_moves, adds intercalates to such a map.

The inclusion matrix M has 3n^2 rows (cell lines, row-symbol lines,
column-symbol lines, in that block order) and n^3 columns; a signed
vector lies in ker M exactly when all its line sums vanish, which is how
kernel membership is checked here without forming M.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .errors import FormatError, IdenticalSquaresError, InvalidObjectError, KernelMembershipError, VerificationError
from .exactla import SparseIntMatrix, text_blocks


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


class TradeViolation(ValueError):
    """First failed trade condition with a witness. Condition numbering:
    1 = shapes differ, 2 = agreement on a common cell, 3 = line content mismatch.
    check_trade returns it; LatinTrade raises it."""

    def __init__(self, condition: int, message: str):
        self.condition = condition
        self.message = message
        super().__init__(f"not a trade (condition {condition}): {message}")


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
            raise bad
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


class TripleVector:
    """Integer vector over ordered triples; the working state of every latin op.

    Only the nonzero entries are kept, as entries = {triple index: entry};
    a zero is never stored. A square has n^2 nonzero entries of n^3, and
    the difference of two squares at most 2n^2. Arithmetic returns fresh
    vectors; only _apply_moves changes an entries map in place.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Optional[Mapping[int, int]] = None):
        if n < 1:
            raise ValueError("order must be at least 1")
        entries = entries or {}
        dim = n**3
        if entries and not (min(entries) >= 0 and max(entries) < dim):
            bad = next(i for i in entries if not 0 <= i < dim)
            raise ValueError(f"triple index {bad} is outside 0..{dim - 1}")
        self.n = n
        self.entries = {i: x for i, x in entries.items() if x}

    @classmethod
    def from_square(cls, sq: LatinSquare) -> "TripleVector":
        n = sq.n
        # cell (i, j) is i*n + j, and its triple (i*n + j)*n + k
        return cls(n, {(i * n + j) * n + k: 1 for i, row in enumerate(sq.cells) for j, k in enumerate(row)})

    def __getitem__(self, ijk: tuple[int, int, int]) -> int:
        return self.entries.get(triple_index(self.n, *ijk), 0)

    def line_sums(self) -> dict[int, int]:
        """{row of M: line sum} over the support, zero sums left out.

        Triple index t = (i,j,k) lies on rows rc(i,j) = t // n,
        rs(i,k) = n^2 + i*n + k and cs(j,k) = 2n^2 + t % n^2.
        """
        n, nn = self.n, self.n * self.n
        sums: dict[int, int] = {}
        for t, x in self.entries.items():
            for r in (t // n, nn + t // nn * n + t % n, 2 * nn + t % nn):
                sums[r] = sums.get(r, 0) + x
        return {r: s for r, s in sums.items() if s}

    def improper_count(self) -> int:
        """Number of entries outside {0, 1}."""
        return sum(x != 1 for x in self.entries.values())

    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> list[tuple[int, int, int]]:
        return [triple_at(self.n, t) for t in sorted(self.entries)]

    def to_ints(self) -> list[int]:
        return [self.entries.get(t, 0) for t in range(self.n**3)]

    def add_scaled(self, other: "TripleVector", c: int) -> "TripleVector":
        if other.n != self.n:
            raise ValueError("orders differ")
        acc = dict(self.entries)
        for t, x in other.entries.items():
            acc[t] = acc.get(t, 0) + c * x
        return TripleVector(self.n, acc)

    def __add__(self, other: "TripleVector") -> "TripleVector":
        return self.add_scaled(other, 1)

    def __sub__(self, other: "TripleVector") -> "TripleVector":
        return self.add_scaled(other, -1)

    def __neg__(self) -> "TripleVector":
        return TripleVector(self.n, {t: -x for t, x in self.entries.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, TripleVector) and self.n == other.n and self.entries == other.entries

    def __repr__(self) -> str:
        return f"TripleVector(n={self.n}, nnz={len(self.entries)})"


def line_label(n: int, r: int) -> str:
    """Label of row r of the order-n inclusion matrix: rc(i,j), rs(i,k) or cs(j,k)."""
    block, rest = divmod(r, n * n)
    u1, u2 = divmod(rest, n)
    return f"{('rc', 'rs', 'cs')[block]}({u1},{u2})"


@functools.lru_cache(maxsize=None)
def build_inclusion_matrix(n: int) -> SparseIntMatrix:
    """The 3n^2 x n^3 latin inclusion matrix. Rows: cell lines (i,j), then
    row-symbol (i,k), then column-symbol (j,k); line_label names them.

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
    return SparseIntMatrix(3 * nn, n**3, entries)


def _first_violated_line(n: int, sums: Mapping[int, int]) -> Optional[tuple[int, str, int]]:
    """(row index, label, value) of the lowest row in sums, a {row of M: nonzero line sum} map; None if it is empty."""
    if not sums:
        return None
    r = min(sums)
    return r, line_label(n, r), sums[r]


def trade_vector(t: LatinTrade) -> TripleVector:
    """+1 on P, -1 on Q. Kernel membership (all line sums zero) is checked."""
    n = t.n
    # a trade never holds one symbol in a cell on both sides, so P and Q share no triple
    entries = {triple_index(n, *c): 1 for c in t.p.triples}
    entries.update((triple_index(n, *c), -1) for c in t.q.triples)
    out = TripleVector(n, entries)
    bad = _first_violated_line(n, out.line_sums())
    if bad is not None:
        raise VerificationError(f"trade vector is not in the kernel: line {bad[1]} sums to {bad[2]}")
    return out


def _check_anchor(i: int, j: int, k: int, n: int) -> None:
    if not (1 <= i < n and 1 <= j < n and 1 <= k < n):
        raise ValueError(f"need 1 <= i,j,k <= {n - 1}, got ({i},{j},{k})")


def intercalate_cells(i: int, j: int, k: int, n: int) -> list[tuple[tuple[int, int, int], int]]:
    """The eight signed cells ((a, b, c), +-1) of B_ijk = (e0 - e_i) x (e0 - e_j) x (e0 - e_k).

    B_ijk is the volume-4 trade anchored at row 0, column 0, symbol 0;
    its +1 cells are P and its -1 cells are Q. Every line of the square
    meets it in one +1 and one -1 cell or not at all, so its line sums
    are zero. Cells come in lexicographic (a, b, c) order.
    """
    _check_anchor(i, j, k, n)
    return [
        ((a, b, c), sa * sb * sc)
        for a, sa in ((0, 1), (i, -1))
        for b, sb in ((0, 1), (j, -1))
        for c, sc in ((0, 1), (k, -1))
    ]


# B_ijk's sign pattern as read off intercalate_cells: corner (a, b, c) of
# {0,1}^3 stands for row a*i, column b*j and symbol c*k, with sign s
_CORNER_SIGNS = tuple(intercalate_cells(1, 1, 1, 2))


def _apply_moves(n: int, state: dict[int, int], moves: Iterable[tuple[int, int, int, int]]) -> list[int]:
    """Add m * B_ijk to the triple vector entries map state in place for each move (m, i, j, k);
    the improper count (entries outside {0, 1}) after each move.

    The one code path that adds an intercalate's cells to a vector. Corner
    ((a, b, c), s) of _CORNER_SIGNS is index a*i*n^2 + b*j*n + c*k and
    changes by m * s; a zero is dropped as it arises, and only the eight
    touched entries are recounted.
    """
    nn = n * n
    improper = sum(x not in (0, 1) for x in state.values())
    counts = []
    for m, i, j, k in moves:
        i, j = i * nn, j * n
        for (a, b, c), s in _CORNER_SIGNS:
            t = a * i + b * j + c * k
            old = state.get(t, 0)
            new = old + m * s
            if new:
                state[t] = new
                if new != 1:
                    improper += 1
            elif old:
                del state[t]
            if old and old != 1:
                improper -= 1
        counts.append(improper)
    return counts


def intercalate(i: int, j: int, k: int, n: int) -> LatinTrade:
    """The volume-4 trade B_ijk anchored at row 0, column 0, symbol 0."""
    cells = intercalate_cells(i, j, k, n)
    p = PartialLatinSquare(n, [t for t, s in cells if s > 0])
    q = PartialLatinSquare(n, [t for t, s in cells if s < 0])
    return LatinTrade(p, q)


def intercalate_vector(i: int, j: int, k: int, n: int) -> TripleVector:
    """Vector of B_ijk: the tensor (e0 - e_i) x (e0 - e_j) x (e0 - e_k)."""
    _check_anchor(i, j, k, n)
    entries: dict[int, int] = {}
    _apply_moves(n, entries, [(1, i, j, k)])
    return TripleVector(n, entries)


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
    """Coefficients of v over the intercalate basis, as a nonzero-only map in lexicographic (i,j,k) order.

    The kernel check comes first, over the support. The basis is
    triangular on the block i,j,k >= 1: B_ijk is the only member supported
    on (i,j,k) there, with entry -1, so c_ijk = -v[i,j,k]. The
    reconstruction is checked exactly before returning, which is what
    makes the closed form trustworthy: _apply_moves adds every c_ijk B_ijk
    to an empty map, which must end equal to v. All of it is O(nnz).
    """
    n = v.n
    bad = _first_violated_line(n, v.line_sums())
    if bad is not None:
        raise KernelMembershipError(*bad)
    coeffs = {}
    # ascending triple index is lexicographic (i,j,k)
    for t in sorted(v.entries):
        i, j, k = triple_at(n, t)
        if i and j and k:
            coeffs[(i, j, k)] = -v.entries[t]
    rebuilt: dict[int, int] = {}
    _apply_moves(n, rebuilt, [(c, i, j, k) for (i, j, k), c in coeffs.items()])
    if rebuilt != v.entries:
        raise VerificationError("intercalate coefficients do not reconstruct the vector")
    return coeffs


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
    n = state.n
    sums = state.line_sums()
    if len(sums) != 3 * n * n or any(s != 1 for s in sums.values()):
        raise ValueError("malformed state: some line sum differs from 1")
    _check_anchor(i, j, k, n)
    entries = dict(state.entries)
    _apply_moves(n, entries, [(sign, i, j, k)])
    return TripleVector(n, entries)


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


def _difference_moves(l1: LatinSquare, l2: LatinSquare) -> tuple[dict[int, int], list[tuple[int, int, int, int]]]:
    """The nonzero line sums of v = vec(l1) - vec(l2), and the moves (sign, i, j, k) of decompose(v).

    One pass over the cells where the squares differ. Cell (i, j) with
    symbols a != b holds v = +1 at (i, j, a) and -1 at (i, j, b): its cell
    line sums to zero, rs(i,a) and cs(j,a) gain 1, rs(i,b) and cs(j,b)
    lose 1. decompose(v) has c_ijk = -v[i,j,k] on i,j,k >= 1, and c turns
    into |c| moves of sign -sgn(c): for i, j >= 1, a +1 move at (i, j, a)
    when a >= 1 and a -1 move at (i, j, b) when b >= 1. Positive moves run
    first, each group in lexicographic (i,j,k) order, which is cell order
    as a cell holds one symbol on each side.
    """
    n, nn = l1.n, l1.n * l1.n
    sums = [0] * (3 * nn)
    plus, minus = [], []
    for i, (row1, row2) in enumerate(zip(l1.cells, l2.cells)):
        rs = nn + i * n
        for j, (a, b) in enumerate(zip(row1, row2)):
            if a != b:
                cs = 2 * nn + j * n
                sums[rs + a] += 1
                sums[cs + a] += 1
                sums[rs + b] -= 1
                sums[cs + b] -= 1
                if i and j:
                    if a:
                        plus.append((1, i, j, a))
                    if b:
                        minus.append((-1, i, j, b))
    return ({r: s for r, s in enumerate(sums) if s} if any(sums) else {}), plus + minus


def transform(l1: LatinSquare, l2: LatinSquare) -> MovePlan:
    """A move plan taking l1 to l2, replay-verified before returning.

    The plan is what decompose(vec(l1) - vec(l2)) gives: a coefficient c
    on B_ijk turns into |c| moves of sign -sgn(c). Positive-sign moves run
    first, each group in lexicographic (i,j,k) order. _difference_moves
    reads the kernel check's line sums and the moves off the differing
    cells, so no n^3 object is built. The plan is replayed once from
    vec(l1) and ends at vec(l1) - sum c_ijk B_ijk; the check that this is
    exactly vec(l2) proves sum c_ijk B_ijk = vec(l1) - vec(l2), the
    identity decompose's reconstruction proves, so transform does not
    compute that sum a second time. The last improper count must be 0.
    """
    if l1.n != l2.n:
        raise ValueError("orders differ")
    n = l1.n
    if l1 == l2:
        return MovePlan(n, (), ())
    sums, moves = _difference_moves(l1, l2)
    bad = _first_violated_line(n, sums)
    if bad is not None:
        raise KernelMembershipError(*bad)
    # The start is a latin square (unit line sums) and every B_ijk has zero
    # line sums, so no move can change a line sum: only the eight touched
    # entries and the improper count move.
    state = TripleVector.from_square(l1).entries
    counts = _apply_moves(n, state, moves)
    if state != TripleVector.from_square(l2).entries:
        raise VerificationError("replaying the move plan does not reach the goal square")
    if counts[-1] != 0:
        raise VerificationError(f"the replay reaches the goal square with {counts[-1]} improper cells counted")
    return MovePlan(n, tuple(moves), tuple(counts))


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


def parse_square(text: str) -> LatinSquare:
    """The latin square of a square file; InvalidObjectError when the grid is not one."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    grid = _parse_grid(_parse_header(lines, "square"), lines[1:], "square")
    if any(x is None for row in grid for x in row):
        raise InvalidObjectError("square", "grid has empty cells")
    try:
        return LatinSquare(grid)
    except ValueError as e:
        raise InvalidObjectError("square", str(e)) from e


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


def parse_trade(text: str) -> LatinTrade:
    """The latin trade of a trade file; InvalidObjectError when a grid is not a
    partial latin square or the two are not a trade (with the failed condition)."""
    blocks = text_blocks(text)
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
    try:
        return LatinTrade(PartialLatinSquare(n, _grid_triples(p_grid)), PartialLatinSquare(n, _grid_triples(q_grid)))
    except TradeViolation as e:
        raise InvalidObjectError("trade", e.message, e.condition) from e
    except ValueError as e:
        raise InvalidObjectError("trade", str(e)) from e


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
        parts = ln.split()
        try:
            if ln.startswith("improper_max="):
                improper_max = int(ln.split("=", 1)[1])
            elif len(parts) == 4 and parts[0] in ("+1", "-1", "1"):
                moves.append((int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])))
            else:
                raise ValueError(ln)
        except ValueError as e:
            raise FormatError(f"bad plan line: {ln!r}") from e
    if improper_max is None:
        raise FormatError("missing improper_max line")
    return moves, improper_max
