"""4-cycle systems of K_n, double-diamond trades, and the move planner.

Cycles are canonical tuples (v0,v1,v2,v3): v0 is the smallest vertex and
its two neighbors satisfy v1 < v3, so rotations and reflections collapse
to one representative. The column order of the inclusion matrix lists
4-subsets lexicographically with three variants each: (w,x,y,z),
(w,x,z,y), (w,y,x,z) for w<x<y<z. A CycleVector over that order keeps
only its nonzero entries, as a {cycle index: entry} dict.

A double-diamond is the volume-2 trade living on two poles {a,b} and
four middles: each of the three pairings of the middles yields two
cycles through the poles, and any ordered pair of distinct pairings is a
trade whose edge union is the K_{2,4} on poles x middles. Identity is
kept unordered (source index < target index in enumeration); direction
is carried by the sign of a move.

The diamond rows come from one cached integer pairing table per n
(_diamond_stack); DoubleDiamond objects are built only for payloads and
plans. One exact elimination over Z of those 4-sparse rows (SparseEchelon,
pivoting each row on its last column) gives the diamond span rank, the
basis, and the coordinates of any kernel vector over that basis. The
selection skips the rows with pairings (1,2), which are the difference
of the two rows before them. The selected rows are cross-checked by a
sparse mod-p rank on one prime, and every decomposition by exact
recombination of the table's rows before it is returned. Every such
check raises VerificationError, never asserts, so `python -O` keeps it.

Both searches run on cycle ranks: positions in sorted(enumerate_cycles(n)).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from . import exactla, kernels
from .errors import (
    FormatError,
    InvalidObjectError,
    KernelMembershipError,
    MissingCyclesError,
    NotAdmissibleError,
    ScheduleFailureError,
    SearchExhaustedError,
    SpanDeficientError,
    VerificationError,
)
from .exactla import SparseEchelon, SparseIntMatrix, rank_mod_p
from .kernels import DEFAULT_SEED, search_budget
# perfbench/tracing.py wraps these names here as well as in their own modules;
# cycles calls exactla.rank_exact_dense through its module, so a wrapper that
# cycles picked up on import is not counted twice
from .exactla import coefficients_in_span, rank_exact_dense  # noqa: F401
from .primes import default_primes
from .primes import sample_primes  # noqa: F401

# ---------------------------------------------------------------------------
# edges and cycles


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


def edge_index(u: int, v: int, n: int) -> int:
    """Linear index of edge {u,v} of K_n, u < v required."""
    if not (0 <= u < v < n):
        raise ValueError(f"need 0 <= u < v < n, got ({u},{v}) with n={n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def edge_endpoints(idx: int, n: int) -> tuple[int, int]:
    if not (0 <= idx < edge_count(n)):
        raise ValueError(f"edge index {idx} out of range for n={n}")
    u = 0
    while idx >= n - 1 - u:
        idx -= n - 1 - u
        u += 1
    return u, u + 1 + idx


class FourCycle(NamedTuple):
    v0: int
    v1: int
    v2: int
    v3: int

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        a, b, c, d = self
        return (min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(c, d), max(c, d)), (min(d, a), max(d, a))

    def diagonals(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two non-adjacent vertex pairs, each sorted."""
        a, b, c, d = self
        return ((a, c) if a < c else (c, a), (b, d) if b < d else (d, b))

    def is_canonical(self) -> bool:
        a, b, c, d = self
        return len({a, b, c, d}) == 4 and a == min(self) and b < d

    def in_range(self, n: int) -> bool:
        """The vertex rule of systems, trade pairs and cycle files: 0 <= v < n."""
        return 0 <= min(self) and max(self) < n


def canonical_cycle(vs: Sequence[int]) -> FourCycle:
    """Canonical form of the 4-cycle visiting vs in order."""
    if len(vs) != 4 or len(set(vs)) != 4:
        raise ValueError(f"need 4 distinct vertices, got {vs}")
    if min(vs) < 0:
        raise ValueError("vertices must be nonnegative")
    p = vs.index(min(vs))
    n1, n3 = vs[(p + 1) % 4], vs[(p - 1) % 4]
    if n1 > n3:
        n1, n3 = n3, n1
    return FourCycle(vs[p], n1, vs[(p + 2) % 4], n3)


@functools.lru_cache(maxsize=None)
def enumerate_cycles(n: int) -> tuple[FourCycle, ...]:
    """All 3*C(n,4) canonical cycles in the fixed column order."""
    if n < 4:
        raise ValueError("need n >= 4")
    out = []
    for w, x, y, z in itertools.combinations(range(n), 4):
        out.append(FourCycle(w, x, y, z))
        out.append(FourCycle(w, x, z, y))
        out.append(FourCycle(w, y, x, z))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def cycle_index_map(n: int) -> dict[FourCycle, int]:
    return {c: i for i, c in enumerate(enumerate_cycles(n))}


@functools.lru_cache(maxsize=None)
def cycle_edge_array(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Edge indices of every canonical cycle, one 4-tuple per cycle in enumeration order.

    Row i lists the edges of enumerate_cycles(n)[i] in edge_pairs() order.
    """
    eidx = [[0] * n for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        eidx[u][v] = eidx[v][u] = edge_index(u, v, n)
    return tuple((eidx[a][b], eidx[b][c], eidx[c][d], eidx[d][a]) for a, b, c, d in enumerate_cycles(n))


@functools.lru_cache(maxsize=None)
def build_inclusion_matrix(n: int) -> SparseIntMatrix:
    """C(n,2) x 3*C(n,4) 0/1 matrix, rows edges, columns cycles.

    Each column has 4 ones. Each row has (n-2)(n-3) ones: an edge lies in
    two of the three cycles on each of the C(n-2,2) supersets.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    arr = cycle_edge_array(n)
    entries = {(e, col): 1 for col, edges in enumerate(arr) for e in edges}
    return SparseIntMatrix(edge_count(n), len(arr), entries)


@functools.lru_cache(maxsize=None)
def matrix_rank_exact(n: int) -> int:
    return exactla.rank_exact_dense(build_inclusion_matrix(n).to_dense())


def kernel_dimension(n: int) -> int:
    return 3 * math.comb(n, 4) - matrix_rank_exact(n)


# ---------------------------------------------------------------------------
# vectors, systems, trade pairs


class CycleVector:
    """Integer vector over the canonical cycle order for one n.

    Only the nonzero entries are kept, as entries = {cycle index: entry};
    a zero is never stored. Vectors of ker M are sparse (the difference
    of two 4CS(9) has at most 18 nonzero entries of 378).
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Optional[Mapping[int, int]] = None):
        dim = 3 * math.comb(n, 4)
        entries = entries or {}
        bad = [i for i in entries if not 0 <= i < dim]
        if bad:
            raise ValueError(f"cycle index {bad[0]} is outside 0..{dim - 1}")
        self.n = n
        self.entries = {i: x for i, x in entries.items() if x}

    @classmethod
    def from_multiset(cls, n: int, cycles: Mapping[FourCycle, int]) -> "CycleVector":
        idx = cycle_index_map(n)
        return cls(n, {idx[c]: mult for c, mult in cycles.items()})

    def support(self) -> list[tuple[FourCycle, int]]:
        cycles = enumerate_cycles(self.n)
        return [(cycles[i], x) for i, x in sorted(self.entries.items())]

    def to_ints(self) -> list[int]:
        return [self.entries.get(i, 0) for i in range(3 * math.comb(self.n, 4))]

    def is_zero(self) -> bool:
        return not self.entries

    def add_scaled(self, other: "CycleVector", c: int) -> "CycleVector":
        if other.n != self.n:
            raise ValueError("orders differ")
        acc = dict(self.entries)
        for i, x in other.entries.items():
            acc[i] = acc.get(i, 0) + c * x
        return CycleVector(self.n, acc)

    def __add__(self, other: "CycleVector") -> "CycleVector":
        return self.add_scaled(other, 1)

    def __sub__(self, other: "CycleVector") -> "CycleVector":
        return self.add_scaled(other, -1)

    def __eq__(self, other) -> bool:
        return isinstance(other, CycleVector) and self.n == other.n and self.entries == other.entries

    def __repr__(self) -> str:
        return f"CycleVector(n={self.n}, nnz={len(self.entries)})"


def _check_canonical_in_range(cycles: Iterable[FourCycle], n: int) -> None:
    for c in cycles:
        if not isinstance(c, FourCycle) or not c.is_canonical():
            raise ValueError(f"cycle {tuple(c)} is not in canonical form")
        if not c.in_range(n):
            raise ValueError(f"cycle {tuple(c)} has a vertex outside 0..{n - 1}")


class CycleSystem:
    """A partition of the edges of K_n into 4-cycles."""

    def __init__(self, n: int, cycles: Iterable[FourCycle]):
        cycles = frozenset(cycles)
        _check_canonical_in_range(cycles, n)
        seen: dict[tuple[int, int], FourCycle] = {}
        for c in sorted(cycles):
            for e in c.edge_pairs():
                if e in seen:
                    raise ValueError(f"edge {e} covered by both {tuple(seen[e])} and {tuple(c)}")
                seen[e] = c
        if len(seen) != edge_count(n):
            missing = edge_count(n) - len(seen)
            raise ValueError(f"{missing} edges of K_{n} are uncovered")
        self.n = n
        self.cycles = cycles

    def vector(self) -> CycleVector:
        return CycleVector.from_multiset(self.n, {c: 1 for c in self.cycles})

    def sorted_cycles(self) -> list[FourCycle]:
        return sorted(self.cycles)

    def __len__(self) -> int:
        return len(self.cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, CycleSystem) and self.n == other.n and self.cycles == other.cycles

    def __hash__(self) -> int:
        return hash((self.n, self.cycles))

    def __repr__(self) -> str:
        return f"CycleSystem(n={self.n}, cycles={len(self.cycles)})"


def validate_trade_pair(t: Iterable[FourCycle], t_star: Iterable[FourCycle]) -> Optional[str]:
    """None if (T, T*) is a 4-cycle trade, else the first failing condition."""
    t, t_star = list(t), list(t_star)
    for name, side in (("T", t), ("T*", t_star)):
        seen: set[tuple[int, int]] = set()
        for c in sorted(side):
            for e in c.edge_pairs():
                if e in seen:
                    return f"{name} is not edge-disjoint: edge {e} repeats"
                seen.add(e)
    common = set(t) & set(t_star)
    if common:
        return f"T and T* share the cycle {tuple(min(common))}"
    edges = lambda side: {e for c in side for e in c.edge_pairs()}
    if edges(t) != edges(t_star):
        witness = min(edges(t) ^ edges(t_star))
        return f"edge unions differ at {witness}"
    return None


class CycleTradePair:
    """An edge-balanced pair of disjoint cycle sets (a 4-cycle trade). A
    violation is a ValueError whose text is validate_trade_pair's."""

    def __init__(self, n: int, t: Iterable[FourCycle], t_star: Iterable[FourCycle]):
        t, t_star = list(t), list(t_star)  # checked as given: a cycle listed twice repeats its edges
        _check_canonical_in_range({*t, *t_star}, n)
        bad = validate_trade_pair(t, t_star)
        if bad is not None:
            raise ValueError(bad)
        self.n = n
        self.t = frozenset(t)
        self.t_star = frozenset(t_star)

    @property
    def volume(self) -> int:
        return len(self.t)

    @property
    def foundation(self) -> int:
        return len({v for c in self.t for v in c})

    def __repr__(self) -> str:
        return f"CycleTradePair(n={self.n}, volume={self.volume}, foundation={self.foundation})"


def trade_vector(tp: CycleTradePair) -> CycleVector:
    """+1 on T, -1 on T*. M X = 0 is checked via the edge multisets."""
    # row e of M X is (cycles of T on e) - (cycles of T* on e)
    edges = lambda side: Counter(e for c in side for e in c.edge_pairs())
    if edges(tp.t) != edges(tp.t_star):
        raise VerificationError("T and T* cover different edge multisets, so X is not in ker M")
    # T and T* are disjoint
    return CycleVector.from_multiset(tp.n, {**dict.fromkeys(tp.t, 1), **dict.fromkeys(tp.t_star, -1)})


# ---------------------------------------------------------------------------
# double diamonds

# the three pairings of four sorted middles, in fixed order
PAIRINGS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


def _pairing_cycles(poles: tuple[int, int], mids: Sequence[int], pairing: int) -> tuple[FourCycle, FourCycle]:
    """The cycles a-x-b-y of a pairing of sorted middles, started at min(a, x)."""
    a, b = poles
    out = []
    for i, j in PAIRINGS[pairing]:
        x, y = mids[i], mids[j]
        out.append(FourCycle(a, x, b, y) if a < x else FourCycle(x, a, y, b))
    return tuple(out)


@dataclass(frozen=True)
class DoubleDiamond:
    """Poles {a,b}, four middles, and two distinct pairings of the middles.

    The trade replaces the target pairing's two cycles with the source
    pairing's two cycles; both sides cover the same K_{2,4}. Enumeration
    emits source < target (unordered identity); reversed orientation is a
    sign, not a different diamond.
    """

    poles: tuple[int, int]
    middles: tuple[int, int, int, int]
    source: int
    target: int

    def __post_init__(self):
        a, b = self.poles
        if a >= b:
            raise ValueError("poles must be sorted")
        if tuple(sorted(self.middles)) != self.middles or len(set(self.middles)) != 4:
            raise ValueError("middles must be 4 distinct sorted vertices")
        if {a, b} & set(self.middles):
            raise ValueError("poles must avoid the middles")
        if self.source == self.target or not (0 <= self.source <= 2 and 0 <= self.target <= 2):
            raise ValueError("source and target must be distinct pairing indices 0..2")

    def source_cycles(self) -> tuple[FourCycle, FourCycle]:
        return _pairing_cycles(self.poles, self.middles, self.source)

    def target_cycles(self) -> tuple[FourCycle, FourCycle]:
        return _pairing_cycles(self.poles, self.middles, self.target)

    def move_cycles(self, sign: int) -> tuple[tuple[FourCycle, FourCycle], tuple[FourCycle, FourCycle]]:
        """(removed, added) cycles of the signed move: +1 swaps target for source."""
        if sign == 1:
            return self.target_cycles(), self.source_cycles()
        return self.source_cycles(), self.target_cycles()

    def trade_pair(self, n: int) -> CycleTradePair:
        return CycleTradePair(n, self.source_cycles(), self.target_cycles())


def diamond_vector(d: DoubleDiamond, n: int) -> CycleVector:
    """+1 on the source cycles, -1 on the target cycles."""
    return CycleVector.from_multiset(n, {**dict.fromkeys(d.source_cycles(), 1), **dict.fromkeys(d.target_cycles(), -1)})


def diamond_count(n: int) -> int:
    """len(enumerate_double_diamonds(n)), without building them."""
    return 3 * math.comb(n, 2) * math.comb(n - 2, 4) if n >= 6 else 0


# the (source, target) pairings of a group's three diamonds, in enumeration order
_GROUP_DIAMONDS = ((0, 1), (0, 2), (1, 2))


def _diamond_groups(n: int) -> Iterable[tuple[tuple[int, int], tuple[int, ...]]]:
    """(poles, middles) of every diamond group: poles lex, then middles lex."""
    for a, b in itertools.combinations(range(n), 2):
        rest = [v for v in range(n) if v != a and v != b]
        for mids in itertools.combinations(rest, 4):
            yield (a, b), mids


def enumerate_double_diamonds(n: int) -> list[DoubleDiamond]:
    """All diamond_count(n) diamonds: diamond 3g + j is group g with pairings _GROUP_DIAMONDS[j]."""
    if n < 6:
        warnings.warn(f"no double-diamonds exist below order 6 (n={n})", stacklevel=2)
        return []
    return [DoubleDiamond(poles, mids, s, t) for poles, mids in _diamond_groups(n) for s, t in _GROUP_DIAMONDS]


def _diagonal_table(n: int) -> list[list[int]]:
    """table[a*n + b][x*n + y] is the index of the cycle a-x-b-y, whose diagonals are {a,b} and {x,y}."""
    table = [[-1] * n * n for _ in range(n * n)]
    for i, c in enumerate(enumerate_cycles(n)):
        (a, b), (x, y) = c.diagonals()
        table[a * n + b][x * n + y] = table[x * n + y][a * n + b] = i
    return table


@functools.lru_cache(maxsize=None)
def _diamond_stack(n: int) -> tuple[int, ...]:
    """The pairing table: group g's pairing k has its two cycle indices at 6g + 2k and 6g + 2k + 1.

    Every group is checked to lie in ker M: its three pairings cover the
    same eight edges, compared as sums of 4**edge (exact, as no edge occurs
    more than twice). So no set of diamond rows has rank above dim ker M.
    """
    if n < 6:
        return ()
    by_diagonals = _diagonal_table(n)
    cover = [sum(1 << 2 * e for e in es) for es in cycle_edge_array(n)]
    table: list[int] = []
    for (a, b), (w, x, y, z) in _diamond_groups(n):
        arm = by_diagonals[a * n + b]
        group = (arm[w * n + x], arm[y * n + z], arm[w * n + y], arm[x * n + z], arm[w * n + z], arm[x * n + y])
        c0, c1, c2, c3, c4, c5 = (cover[i] for i in group)
        if not c0 + c1 == c2 + c3 == c4 + c5:
            raise VerificationError(f"the diamonds on poles {(a, b)} and middles {(w, x, y, z)} are not in ker M")
        table += group
    return tuple(table)


def _diamond_row(table: Sequence[int], i: int) -> dict[int, int]:
    """Diamond i's vector as {cycle index: +-1}: +1 on its source pairing's cycles, -1 on its target's."""
    g, j = divmod(i, 3)
    s, t = _GROUP_DIAMONDS[j]
    s, t = 6 * g + 2 * s, 6 * g + 2 * t
    # two distinct pairings share no cycle
    return {table[s]: 1, table[s + 1]: 1, table[t]: -1, table[t + 1]: -1}


# the `cycles span` payload labels diamond families up to this size "exact"
# and larger ones "mod-p certified"; every span rank is exact either way
_EXACT_DIAMOND_LIMIT = 500


@functools.lru_cache(maxsize=None)
def _diamond_selection(n: int) -> tuple[int, ...]:
    """Indices of the diamonds that raise the rank, scanning in enumeration order.

    One exact elimination over Z (SparseEchelon) on the 4-sparse rows,
    stopped once the rank reaches dim ker M, which no set of rows can
    exceed. Rows with pairings (1,2) are never inserted: with P_k the
    vector of pairing k's two cycles, D(1,2) = P_1 - P_2 = D(0,2) - D(0,1),
    and both of those rows come just before it in the same group, so the
    scan could never keep it. The selection does not depend on the
    echelon's pivot rule. The mod-p rank of the selected rows on one prime
    must equal their count: a second proof of independence, in other
    arithmetic (GF(p), not fraction-free Z) but with the same pivot rule.
    """
    table = _diamond_stack(n)
    need = kernel_dimension(n) if table else 0
    echelon = SparseEchelon()
    sel = []
    for i in range(diamond_count(n)):
        if len(sel) == need:
            break
        if i % 3 != 2 and echelon.add(_diamond_row(table, i)):
            sel.append(i)
    selected = SparseIntMatrix(
        len(sel), 3 * math.comb(n, 4), {(r, c): v for r, i in enumerate(sel) for c, v in _diamond_row(table, i).items()}
    )
    p = default_primes(1)[0]
    rank_p = rank_mod_p(selected, p)
    if rank_p != len(sel):
        raise VerificationError(
            f"n={n}: {len(sel)} diamonds selected as independent, but their rank mod {p} is {rank_p}"
        )
    return tuple(sel)


def diamond_span_rank(n: int) -> int:
    """Rank of the stacked diamond vectors, exact over Q.

    The length of the one cached diamond selection. The scan stops at the
    kernel dimension, which bounds the rank from above because every row
    lies in ker M; so the value is the full span rank in every case.
    """
    return len(_diamond_selection(n))


@functools.lru_cache(maxsize=None)
def _diamond_basis_indices(n: int) -> tuple[int, ...]:
    sel = _diamond_selection(n)
    need = kernel_dimension(n)
    if len(sel) != need:
        raise SpanDeficientError(n, len(sel), need)
    return sel


@functools.lru_cache(maxsize=None)
def _basis_diamonds(n: int) -> tuple[DoubleDiamond, ...]:
    """The DoubleDiamonds at _diamond_basis_indices(n), built from their groups alone."""
    sel = _diamond_basis_indices(n)
    wanted = {i // 3 for i in sel}
    groups = {g: pm for g, pm in enumerate(_diamond_groups(n)) if g in wanted}
    return tuple(DoubleDiamond(*groups[i // 3], *_GROUP_DIAMONDS[i % 3]) for i in sel)


def diamond_basis(n: int) -> list[DoubleDiamond]:
    """Greedy basis of ker M drawn from the enumeration order.

    Size equals the kernel dimension or SpanDeficient is raised (n=5 has
    kernel dimension 5 and no diamonds at all).
    """
    if n < 6:
        warnings.warn(f"no double-diamonds exist below order 6 (n={n})", stacklevel=2)
    return list(_basis_diamonds(n))


# ---------------------------------------------------------------------------
# decompose


@dataclass(frozen=True)
class DiamondDecomposition:
    """Exact rational coordinates of a kernel vector over diamond_basis(n)."""

    n: int
    coefficients: tuple[Fraction, ...]
    integral: bool

    def support(self) -> list[tuple[int, Fraction]]:
        """(basis position, coefficient) for the nonzero coefficients."""
        return [(i, c) for i, c in enumerate(self.coefficients) if c]


def _assert_kernel_member(v: CycleVector) -> None:
    m = build_inclusion_matrix(v.n)
    prod = m.matvec(v.to_ints())
    for r, val in enumerate(prod):
        if val != 0:
            u, w = edge_endpoints(r, v.n)
            raise KernelMembershipError(r, f"edge ({u},{w})", val)


@functools.lru_cache(maxsize=None)
def _solve_factor(n: int) -> SparseEchelon:
    """SparseEchelon of the diamond_basis(n) rows, tagged by basis position.

    Built once per n; its coordinates() are the exact coordinates of a
    kernel vector over the basis.
    """
    table = _diamond_stack(n)
    echelon = SparseEchelon()
    for pos, i in enumerate(_diamond_basis_indices(n)):
        if not echelon.add(_diamond_row(table, i), tag=pos):
            raise VerificationError(f"n={n}: basis diamond {pos} is dependent on the ones before it")
    return echelon


def _verify_recombination(
    n: int, sel: Sequence[int], coeffs: Sequence[Fraction], v: CycleVector
) -> bool:
    """Exact check that sum c_i D_i = v, using the diamond rows of the pairing table.

    Scaled by the lcm L of the coefficient denominators, the check is
    sum (L c_i) D_i = L v, all in integers.
    """
    table = _diamond_stack(n)
    scale = math.lcm(*(c.denominator for c in coeffs))
    acc: dict[int, int] = {}
    for i, c in zip(sel, coeffs):
        if not c:
            continue
        c = c.numerator * (scale // c.denominator)
        for col, sign in _diamond_row(table, i).items():
            acc[col] = acc.get(col, 0) + sign * c
    return {j: val for j, val in acc.items() if val} == {j: scale * x for j, x in v.entries.items()}


def decompose_trade(v: CycleVector) -> DiamondDecomposition:
    """Exact rational coordinates of a kernel vector over diamond_basis(n).

    A fraction-free integer reduction of v against the cached echelon of
    the basis rows (_solve_factor) gives the coordinates; the
    recombination is verified exactly, from the pairing table's rows,
    before returning.
    """
    _assert_kernel_member(v)
    n = v.n
    sel = _diamond_basis_indices(n)  # SpanDeficient propagates from here
    if v.is_zero():
        coeffs: tuple[Fraction, ...] = tuple(Fraction(0) for _ in sel)
        return DiamondDecomposition(n, coeffs, True)
    coords = _solve_factor(n).coordinates(v.entries)
    if coords is None:
        # the basis spans ker M and v lies in it, so this cannot happen
        raise VerificationError(f"n={n}: a kernel vector is outside the span of the diamond basis")
    coeffs = tuple(coords.get(pos, Fraction(0)) for pos in range(len(sel)))
    if not _verify_recombination(n, sel, coeffs, v):
        raise VerificationError(f"n={n}: the diamond coordinates do not recombine to the vector")
    integral = all(c.denominator == 1 for c in coeffs)
    return DiamondDecomposition(n, coeffs, integral)


# ---------------------------------------------------------------------------
# system construction


@functools.lru_cache(maxsize=None)
def _cycles_by_edge(n: int) -> tuple[tuple[int, ...], ...]:
    """Per edge, the indices of the cycles through it, in enumeration order."""
    by_edge: list[list[int]] = [[] for _ in range(edge_count(n))]
    for ci, edges in enumerate(cycle_edge_array(n)):
        for e in edges:
            by_edge[e].append(ci)
    return tuple(tuple(b) for b in by_edge)


def _run_cover(n: int, by_edge: Sequence[Sequence[int]], budget: int) -> CycleSystem:
    status, chosen, _nodes = kernels.cover_dfs(edge_count(n), cycle_edge_array(n), by_edge, budget)
    if status == 1:
        raise SearchExhaustedError(budget, f"4CS({n}) cover search")
    if status == 2:
        raise RuntimeError(f"exhaustive search found no 4CS({n}); admissibility arithmetic is wrong")
    cycles = enumerate_cycles(n)
    return CycleSystem(n, [cycles[i] for i in chosen])


def find_cycle_system(n: int, budget: Optional[int] = None) -> CycleSystem:
    """A 4CS(n) by depth-first cover of the lowest uncovered edge.

    Candidates are tried in canonical enumeration order, so the result is
    the lexicographically first system and is deterministic. Admissibility
    (n = 1 mod 8) is decided arithmetically before any search.
    """
    if n < 1 or n % 8 != 1:
        raise NotAdmissibleError(n)
    if n == 1:
        return CycleSystem(1, [])
    return _run_cover(n, _cycles_by_edge(n), search_budget(budget))


def _shuffle(x: list, getrandbits) -> None:
    """random.Random.shuffle(x) with its _randbelow inlined: the same swaps from the same bits."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _find_system_shuffled(n: int, rng: random.Random, budget: int) -> CycleSystem:
    """find_cycle_system's cover DFS on its by-edge lists, each shuffled in edge order by _shuffle,
    which makes rng.shuffle's draws, so a seed gives the system rng.shuffle would."""
    by_edge = [list(b) for b in _cycles_by_edge(n)]  # same order as the cached table, so the same draws
    getrandbits = rng.getrandbits
    for b in by_edge:
        _shuffle(b, getrandbits)
    return _run_cover(n, by_edge, budget)


# ---------------------------------------------------------------------------
# diamond configurations in a system


def _ranks_of(cycs: Sequence[FourCycle]) -> tuple:
    """(cycles, rank, diags, masks) of sorted cycles: rank order is FourCycle order,
    diags the edge indices of FourCycle.diagonals."""
    n = 1 + max(map(max, cycs))  # edge index order is the same for any larger n
    return (
        tuple(cycs),
        {c: r for r, c in enumerate(cycs)},
        tuple(tuple(edge_index(*d, n) for d in c.diagonals()) for c in cycs),
        tuple((1 << a) | (1 << b) | (1 << c) | (1 << d) for a, b, c, d in cycs),
    )


@functools.lru_cache(maxsize=None)
def _cycle_ranks(n: int) -> tuple:
    """_ranks_of all cycles of K_n; not cycle_index_map, whose order is not sorted."""
    return _ranks_of(sorted(enumerate_cycles(n)))


def _config_pairs(by_diag: Mapping[int, list[int]], masks: Sequence[int]) -> list[tuple[int, int]]:
    """All configuration pairs of a diagonal -> ranks index, by diagonal, then r1 < r2."""
    out = []
    for diag in sorted(by_diag):
        group = by_diag[diag]
        if len(group) > 1:
            group.sort()
            for r1, r2 in itertools.combinations(group, 2):
                if (masks[r1] & masks[r2]).bit_count() == 2:
                    out.append((r1, r2))
    return out


class _ConfigIndex:
    """Diagonal -> ranks index of one cycle set, for its configuration pairs.

    A configuration is a cycle pair whose union is a K_{2,4}: the cycles
    share exactly two vertices, a diagonal of both, so each pair sits
    under one diagonal and its vertex masks share two bits. A diamond move
    swaps two cycles for two others, so the change in the pair count only
    involves pairs touching those four cycles (move_delta).
    """

    def __init__(self, table: tuple, ranks: Iterable[int]):
        _, _, self.diags, self.masks = table
        self.by_diag: dict[int, list[int]] = {}
        for r in ranks:
            self.add(r)

    def add(self, r: int) -> None:
        for diag in self.diags[r]:
            self.by_diag.setdefault(diag, []).append(r)

    def discard(self, r: int) -> None:
        for diag in self.diags[r]:
            self.by_diag[diag].remove(r)

    def pairs(self) -> list[tuple[int, int]]:
        return _config_pairs(self.by_diag, self.masks)

    def partners(self, r: int, skip: Sequence[int] = ()) -> int:
        """Pairs r forms with indexed ranks other than r and those in skip."""
        mask = self.masks[r]
        count = 0
        for diag in self.diags[r]:
            for other in self.by_diag.get(diag, ()):
                if other != r and other not in skip and (mask & self.masks[other]).bit_count() == 2:
                    count += 1
        return count

    def move_delta(self, removal: Sequence[int], addition: Sequence[int]) -> int:
        """Change in the pair count when the indexed removal ranks give way to the addition.

        The addition ranks must not be indexed, which holds for every
        move on a 4CS: they cover the edges the removal cycles cover.
        """
        r1, r2 = removal
        a1, a2 = addition
        lost = self.partners(r1) + self.partners(r2, (r1,))
        gained = self.partners(a1, removal) + self.partners(a2, removal)
        # the two cycles of one pairing share just the poles, a diagonal of both
        return gained + 1 - lost


def diamond_config_pairs(
    cs: Union[CycleSystem, Iterable[FourCycle]],
) -> list[tuple[FourCycle, FourCycle]]:
    """Unordered cycle pairs whose union is a K_{2,4}: exactly two shared
    vertices, diagonal in both cycles. Accepts any cycle collection; the
    pairs come by diagonal, then c1 < c2."""
    cycs = sorted(set(cs.cycles if isinstance(cs, CycleSystem) else cs))
    if not cycs:
        return []
    # own ranks on vertices renumbered 0..k-1 in order: same orders, k-bit masks
    label = {v: i for i, v in enumerate(sorted({v for c in cycs for v in c}))}
    table = _ranks_of([FourCycle(*map(label.__getitem__, c)) for c in cycs])
    return [(cycs[r1], cycs[r2]) for r1, r2 in _ConfigIndex(table, range(len(cycs))).pairs()]


def count_double_diamond_configs(cs: Union[CycleSystem, Iterable[FourCycle]]) -> int:
    return len(diamond_config_pairs(cs))


def _pair_moves(table: tuple, r1: int, r2: int) -> list[tuple]:
    """The two signed canonical diamond moves that remove the configuration {r1, r2}.

    Each is (sign, (poles, middles, source, target), removed ranks, added
    ranks): pairing r moves to either other pairing t, sign +1 when r is
    the target. ValueError for a non-configuration.
    """
    cycs, rank, diags, masks = table
    shared = set(diags[r1]).intersection(diags[r2])
    if len(shared) != 1 or (masks[r1] & masks[r2]).bit_count() != 2:
        raise ValueError(f"{tuple(cycs[r1])} and {tuple(cycs[r2])} are not a double-diamond configuration")
    # each cycle joins the poles through its other diagonal, a pair of middles
    a, b, c, d = cycs[r1]
    poles, j1 = ((a, c), (b, d)) if diags[r1][0] in shared else ((b, d), (a, c))
    a, b, c, d = cycs[r2]
    j2 = (b, d) if diags[r2][0] in shared else (a, c)
    mids = tuple(sorted(j1 + j2))
    # the pairing the two cycles realise is fixed by the middle joined to mids[0]:
    # PAIRINGS[r] joins middle 0 to middle r + 1
    r = mids.index(j1[1] if j1[0] == mids[0] else j2[1]) - 1
    out = []
    for t in range(3):
        if t != r:
            added = tuple(rank[c] for c in _pairing_cycles(poles, mids, t))
            out.append((1 if t < r else -1, (poles, mids, min(t, r), max(t, r)), (r1, r2), added))
    return out


class _MoveTable(dict):
    """Configuration pair -> _pair_moves on the ranks of order n, filled on first lookup."""

    def __init__(self, n: int):
        self.table = _cycle_ranks(n)

    def __missing__(self, pair: tuple[int, int]) -> list[tuple]:
        moves = self[pair] = _pair_moves(self.table, *pair)
        return moves


# one move table per order, shared by both searches and kept across calls
_move_table = functools.lru_cache(maxsize=None)(_MoveTable)


class _PartnerTable(dict):
    """Rank r -> (bit mask of the higher ranks that form a configuration with r, {such rank: the
    diagonal the pair shares}), on the ranks of order n, filled on first lookup."""

    def __init__(self, n: int):
        self.table = _cycle_ranks(n)
        self.by_diag = _ConfigIndex(self.table, range(len(self.table[0]))).by_diag

    def __missing__(self, r: int) -> tuple[int, dict[int, int]]:
        _, _, diags, masks = self.table
        mask, shared = 0, {}
        for diag in diags[r]:
            for r2 in self.by_diag[diag]:
                if r2 > r and (masks[r] & masks[r2]).bit_count() == 2:
                    mask |= 1 << r2
                    shared[r2] = diag
        entry = self[r] = (mask, shared)
        return entry


_partner_table = functools.lru_cache(maxsize=None)(_PartnerTable)


def apply_diamond_move(
    state: Union[Mapping[FourCycle, int], Iterable[FourCycle]],
    d: DoubleDiamond,
    sign: int,
) -> Counter:
    """state + sign * vector(d) as a cycle multiset.

    sign +1 removes the target cycles and adds the source cycles. The
    removed cycles must be present; the covered edge multiset is
    invariant either way.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    cnt = Counter(state)
    _apply_moves(cnt, [(sign, d)], True)
    return +cnt


def _apply_moves(state: dict, moves, nonnegative: bool) -> list[int]:
    """Apply signed diamond moves to the cycle multiset state in place; the count of multiplicities
    outside {0,1} after each move. With nonnegative, a move removing an absent cycle raises MissingCyclesError."""
    improper = sum(m not in (0, 1) for m in state.values())
    audit = []
    for sign, d in moves:
        removal, addition = d.move_cycles(sign)
        if nonnegative:
            missing = [c for c in removal if state.get(c, 0) < 1]
            if missing:
                raise MissingCyclesError(missing)
        for c, m in zip((*removal, *addition), (-1, -1, 1, 1)):
            old = state.pop(c, 0)
            m += old
            improper += (m not in (0, 1)) - (old not in (0, 1))
            if m:
                state[c] = m
        audit.append(improper)
    return audit


@dataclass(frozen=True)
class DiamondSearchReport:
    """Negative result of search_diamond_free: best configuration count seen."""

    n: int
    seed: int
    restarts: int
    best_count: int


def search_diamond_free(
    n: int,
    seed: int = DEFAULT_SEED,
    restarts: int = 500,
    steps: int = 400,
    budget: Optional[int] = None,
) -> Union[CycleSystem, DiamondSearchReport]:
    """Hill-climb toward a 4CS(n) with no double-diamond configuration.

    Each restart draws a fresh randomized system (shuffled DFS cover) and
    walks diamond moves that do not increase the configuration count,
    sideways steps allowed. All randomness flows from the one seed.
    Returns the first zero-count system, else a report with the best
    count (diamond-free systems exist for every admissible n, but this
    search is not guaranteed to find one).
    """
    if n < 1 or n % 8 != 1:
        raise NotAdmissibleError(n)
    if n == 1:
        return CycleSystem(1, [])
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    node_budget = search_budget(budget)
    moves_of = _move_table(n)
    cycs, rank, _, _ = table = moves_of.table
    best = None
    for _ in range(restarts):
        index = _ConfigIndex(table, (rank[c] for c in _find_system_shuffled(n, rng, node_budget).cycles))
        pairs = index.pairs()
        count = len(pairs)
        for _ in range(steps):
            if count == 0:
                break
            moves = [m for pair in pairs for m in moves_of[pair]]
            _shuffle(moves, getrandbits)
            for _, _, removal, addition in moves:
                delta = index.move_delta(removal, addition)
                if delta <= 0:
                    for r in removal:
                        index.discard(r)
                    for r in addition:
                        index.add(r)
                    pairs = index.pairs()
                    if len(pairs) != count + delta:
                        raise VerificationError(
                            f"incremental configuration count {count + delta} != recount {len(pairs)}"
                        )
                    count = len(pairs)
                    break
            else:
                break
        best = count if best is None else min(best, count)
        if count == 0:
            out = CycleSystem(n, {cycs[r] for group in index.by_diag.values() for r in group})
            if count_double_diamond_configs(out) != 0:
                raise VerificationError(f"hill-climb reported a diamond-free 4CS({n}) that has configurations")
            return out
    return DiamondSearchReport(n, seed, restarts, int(best) if best is not None else -1)


# ---------------------------------------------------------------------------
# transform


@dataclass(frozen=True)
class CycleMovePlan:
    """A replayable sequence of signed diamond moves.

    audit[t] counts cycle multiplicities outside {0,1} after move t
    (virtual mode may go negative; strict and lifted plans come from the
    nonnegative best-first search and keep it 0, strict because every
    state is a system, lifted in the multiset sense of never dropping
    below zero).
    """

    n: int
    mode: str
    lam: int
    moves: tuple[tuple[int, DoubleDiamond], ...]
    audit: tuple[int, ...]


@dataclass(frozen=True)
class RationalCertificate:
    """Non-integral coordinates of vec(cs1) - vec(cs2) over diamond_basis(n). From n=7 on that
    basis spans an index-16 sublattice of the diamond lattice, so a lifted path may still exist."""

    n: int
    support: tuple[tuple[DoubleDiamond, Fraction], ...]
    verified: bool


def _signed_moves_from(dec: DiamondDecomposition) -> list[tuple[int, DoubleDiamond]]:
    """Moves realizing -v for integral decomposition of v, in basis order."""
    basis = diamond_basis(dec.n)
    moves = []
    for i, c in dec.support():
        sign = -1 if c > 0 else 1
        moves.extend((sign, basis[i]) for _ in range(abs(int(c))))
    return moves


def _replay(start: Counter, goal: Counter, moves, nonnegative: bool) -> tuple[int, ...]:
    """The audit of the moves replayed on a copy of start; VerificationError unless they reach goal."""
    state = dict(start)
    audit = _apply_moves(state, moves, nonnegative)
    if state != goal:
        raise VerificationError("replaying the move plan does not reach the goal system")
    return tuple(audit)


def _children(moves_of: _MoveTable, partners: _PartnerTable, want: Sequence[int], key: tuple, h: int, last) -> list:
    """(key, h, move-table entry) of each child of the state keyed by key, by configuration pair, then move.

    A key is a multiset's sorted ranks with repeats, h its L1 distance to
    want; each of a move's four distinct ranks moves h by one. The pairs
    are the partner-table hits among the state's ranks, sorted by
    (diagonal, r1, r2) as _config_pairs orders them. The undo of last, the
    move that made the state (None at the root), is left out unbuilt."""
    mult, present = {}, 0
    for r in key:
        if r in mult:
            mult[r] += 1
        else:
            mult[r] = 1
            present |= 1 << r
    hits = []
    for r1 in mult:
        mask, shared = partners[r1]
        mask &= present
        while mask:
            low = mask & -mask
            r2 = low.bit_length() - 1
            hits.append((shared[r2], r1, r2))
            mask ^= low
    hits.sort()
    undo = None
    if last is not None:  # of the two moves of last's added pair, the one adding back last's removed ranks
        m1, m2 = moves_of[tuple(sorted(last[3]))]
        undo = m1 if last[2][0] in m1[3] else m2
    out = []
    for _, r1, r2 in hits:
        rest = list(key)
        rest.remove(r1)
        rest.remove(r2)
        hr = h + (1 if mult[r1] <= want[r1] else -1) + (1 if mult[r2] <= want[r2] else -1)
        for move in moves_of[r1, r2]:
            if move is undo:
                continue
            a1, a2 = move[3]
            child = [*rest, a1, a2]
            child.sort()
            ch = hr + (1 if mult.get(a1, 0) >= want[a1] else -1) + (1 if mult.get(a2, 0) >= want[a2] else -1)
            out.append((tuple(child), ch, move))
    return out


def _best_first_schedule(
    n: int, start: Counter, goal: Counter, node_budget: int, seed: int
) -> Union[list, int, None]:
    """Best-first search over all applicable diamond moves, on the ranks of _cycle_ranks(n).

    Priority 8*h + g with h the multiset L1 distance to the goal; a small
    seeded jitter, randrange(16)'s draws inlined, breaks ties reproducibly.
    A state is keyed by its sorted ranks with repeats and its heap entry
    carries its h; best keeps its g, parent key and the move-table entry
    of the move from there. _children derives each child's key and h and
    skips that move's undo: the parent, known at g - 1, so never pushed.
    Only the returned path is built as DoubleDiamonds. Returns it, None on
    budget exhaustion, or, when every state reachable from start was
    expanded without meeting the goal (no path exists at any budget), the
    number of states seen.
    """
    moves_of, partners = _move_table(n), _partner_table(n)
    cycs, rank, _, _ = moves_of.table
    getrandbits = random.Random(seed).getrandbits
    want = [goal[c] for c in cycs]
    h0 = sum(abs(start[c] - goal[c]) for c in {*start, *goal})
    if h0 == 0:
        return []
    key0 = tuple(sorted(rank[c] for c in start.elements()))
    heap = [(8 * h0, 0, 0, key0, h0)]
    best: dict[tuple, tuple] = {key0: (0, None, None)}  # key -> (g, parent key, move)
    counter = itertools.count(1)
    expanded = 0
    while heap:
        _, _, _, key, h = heapq.heappop(heap)
        g, _, last = best[key]
        ng = g + 1
        expanded += 1
        if expanded > node_budget:
            return None
        for ckey, ch, move in _children(moves_of, partners, want, key, h, last):
            seen = best.get(ckey)
            if seen is not None and seen[0] <= ng:
                continue
            best[ckey] = (ng, key, move)
            if ch == 0:
                path = []
                while ckey != key0:
                    _, ckey, (sign, spec, _, _) = best[ckey]
                    path.append((sign, DoubleDiamond(*spec)))
                return path[::-1]
            jitter = getrandbits(5)
            while jitter >= 16:
                jitter = getrandbits(5)
            heapq.heappush(heap, (8 * ch + ng, jitter, next(counter), ckey, ch))
    return len(best)


def transform(
    cs1: CycleSystem,
    cs2: CycleSystem,
    mode: str = "virtual",
    lam_max: int = 6,
    seed: int = DEFAULT_SEED,
    budget: Optional[int] = None,
) -> Union[CycleMovePlan, RationalCertificate]:
    """A diamond-move plan from cs1 to cs2, or a rational certificate.

    The difference vector is decomposed over the diamond basis. Rational
    coefficients end the story in any mode (certificate). Integral ones
    are scheduled: virtual applies the decomposition moves in basis order
    and tolerates negative multiplicities; lifted searches for a
    nonnegative path between both systems augmented with lam-1 copies of
    the deterministic filler system, raising lam up to lam_max until the
    search succeeds; strict is that search at lam = 1 only. A diamond move
    whose two removed cycles are present turns a 4CS into a 4CS (the two
    added cycles cover exactly the K_{2,4} edges the removed ones free),
    so every state of a lam = 1 path is a system. Each plan is replayed
    once, by _replay, before it is returned; strict's replay also checks
    that no state has a multiplicity outside {0,1}.
    """
    if cs1.n != cs2.n:
        raise ValueError("orders differ")
    if mode not in ("virtual", "strict", "lifted"):
        raise ValueError(f"unknown mode {mode!r}")
    n = cs1.n
    start, goal = Counter(cs1.cycles), Counter(cs2.cycles)
    if start == goal:
        return CycleMovePlan(n, mode, 1, (), ())
    dec = decompose_trade(cs1.vector() - cs2.vector())
    if not dec.integral:
        basis = diamond_basis(n)
        support = tuple((basis[i], c) for i, c in dec.support())
        return RationalCertificate(n, support, True)
    if mode == "virtual":
        moves = _signed_moves_from(dec)
        return CycleMovePlan(n, mode, 1, tuple(moves), _replay(start, goal, moves, False))
    top = 1 if mode == "strict" else lam_max
    filler = find_cycle_system(n).cycles if top > 1 else ()
    node_budget = search_budget(budget if budget is not None else 100_000)
    for lam in range(1, top + 1):
        aug = Counter({c: lam - 1 for c in filler})
        a, b = start + aug, goal + aug
        path = _best_first_schedule(n, a, b, node_budget, seed)
        if isinstance(path, int) and mode == "strict":
            raise ScheduleFailureError(
                f"strict scheduling failed: no lambda 1 path exists from this start; "
                f"the search saw all {path} states reachable from it"
            )
        if not isinstance(path, list):
            continue
        if mode == "strict":
            audit = _replay(start, goal, path, False)
            if any(audit):
                raise VerificationError("a strict plan passed through a state that is not a system")
            return CycleMovePlan(n, mode, 1, tuple(path), audit)
        _replay(a, b, path, True)
        return CycleMovePlan(n, "lifted", lam, tuple(path), tuple(0 for _ in path))
    raise ScheduleFailureError(f"{mode} scheduling failed for lambda up to {top} within budget {node_budget}")


# ---------------------------------------------------------------------------
# text formats


def format_cycle_system(cs: CycleSystem) -> str:
    lines = [f"n={cs.n}"]
    lines += [" ".join(str(v) for v in c) for c in cs.sorted_cycles()]
    return "\n".join(lines) + "\n"


def parse_cycle_collection(text: str) -> tuple[int, list[FourCycle]]:
    """(n, cycles) from the system format, without the partition check."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise FormatError("cycle file: first line must be n=<order>")
    try:
        n = int(lines[0][2:])
    except ValueError as e:
        raise FormatError(f"cycle file: bad order {lines[0]!r}") from e
    if n < 0:
        raise FormatError(f"cycle file: order must be non-negative, got {n}")
    cycles = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise FormatError(f"cycle file: bad cycle line {ln!r}")
        try:
            c = FourCycle(*(int(x) for x in parts))
        except ValueError as e:
            raise FormatError(f"cycle file: bad cycle line {ln!r}") from e
        if not c.is_canonical() or not c.in_range(n):
            raise FormatError(f"cycle file: {tuple(c)} is not canonical for n={n}")
        cycles.append(c)
    return n, cycles


def parse_cycle_system(text: str) -> CycleSystem:
    """The 4-cycle system of a cycle file; InvalidObjectError when its cycles are not one."""
    n, cycles = parse_cycle_collection(text)
    if len(set(cycles)) != len(cycles):
        raise InvalidObjectError("system", "duplicate cycle")
    try:
        return CycleSystem(n, cycles)
    except ValueError as e:
        raise InvalidObjectError("system", str(e)) from e


def format_trade_pair_file(tp: CycleTradePair) -> str:
    top = [f"n={tp.n}"] + [" ".join(str(v) for v in c) for c in sorted(tp.t)]
    bot = [" ".join(str(v) for v in c) for c in sorted(tp.t_star)]
    return "\n".join(top) + "\n\n" + "\n".join(bot) + "\n"


def parse_trade_pair_file(text: str) -> CycleTradePair:
    """Two cycle blocks (T then T*) separated by a blank line; InvalidObjectError when they are not a trade pair."""
    blocks = exactla.text_blocks(text)
    if len(blocks) != 2:
        raise FormatError(f"trade pair: expected two blocks, got {len(blocks)}")
    n, t = parse_cycle_collection("\n".join(blocks[0]))
    second = blocks[1]
    if second and second[0].startswith("n="):
        n2, t_star = parse_cycle_collection("\n".join(second))
        if n2 != n:
            raise FormatError("trade pair: blocks declare different orders")
    else:
        _, t_star = parse_cycle_collection("\n".join([f"n={n}"] + second))
    try:
        return CycleTradePair(n, t, t_star)
    except ValueError as e:
        raise InvalidObjectError("pair", str(e)) from e


def format_diamond(d: DoubleDiamond) -> str:
    """A diamond as the move plan format names it: `poles=a,b middles=w,x,y,z from=i to=j`."""
    mids = ",".join(str(m) for m in d.middles)
    return f"poles={d.poles[0]},{d.poles[1]} middles={mids} from={d.source} to={d.target}"


def format_move(sign: int, d: DoubleDiamond) -> str:
    """One move line of the plan format: `+1` or `-1`, then the diamond."""
    return f"{'+1' if sign > 0 else '-1'} {format_diamond(d)}"


def format_cycle_move_plan(plan: CycleMovePlan) -> str:
    lines = [format_move(sign, d) for sign, d in plan.moves]
    lines.append(f"lambda={plan.lam}")
    return "\n".join(lines) + "\n"


def parse_cycle_move_plan(text: str) -> tuple[list[tuple[int, DoubleDiamond]], int]:
    """(moves, lambda) from the plan format."""
    moves, lam = [], None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("lambda="):
            try:
                lam = int(ln.split("=", 1)[1])
            except ValueError as e:
                raise FormatError(f"bad lambda line: {ln!r}") from e
            continue
        parts = ln.split()
        if len(parts) != 5 or parts[0] not in ("+1", "-1", "1"):
            raise FormatError(f"bad move line: {ln!r}")
        fields = dict(tok.partition("=")[::2] for tok in parts[1:])
        try:
            poles = tuple(int(x) for x in fields["poles"].split(","))
            mids = tuple(int(x) for x in fields["middles"].split(","))
            d = DoubleDiamond(poles, mids, int(fields["from"]), int(fields["to"]))
        except (KeyError, ValueError) as e:
            raise FormatError(f"bad move line: {ln!r}") from e
        moves.append((int(parts[0]), d))
    if lam is None:
        raise FormatError("missing lambda line")
    return moves, lam
