"""4-cycle systems of K_n, double-diamond trades, and the move planner.

Cycles are canonical tuples (v0,v1,v2,v3): v0 is the smallest vertex and
its two neighbors satisfy v1 < v3, so rotations and reflections collapse
to one representative. The column order of the inclusion matrix lists
4-subsets lexicographically with three variants each: (w,x,y,z),
(w,x,z,y), (w,y,x,z) for w<x<y<z.

A double-diamond is the volume-2 trade living on two poles {a,b} and
four middles: each of the three pairings of the middles yields two
cycles through the poles, and any ordered pair of distinct pairings is a
trade whose edge union is the K_{2,4} on poles x middles. Identity is
kept unordered (source index < target index in enumeration); direction
is carried by the sign of a move.

One exact elimination over Z of the 4-sparse diamond rows (SparseEchelon)
gives the diamond span rank, the basis, and the coordinates of any
kernel vector over that basis. The selected rows are cross-checked by a
mod-p rank on one prime, and every decomposition by exact recombination
before it is returned. Every such check raises VerificationError, never
asserts, so `python -O` keeps it.
"""

import functools
import heapq
import itertools
import math
import os
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import kernels
from .errors import (
    FormatError,
    KernelMembershipError,
    MissingCyclesError,
    NotAdmissibleError,
    ScheduleFailureError,
    SearchExhaustedError,
    SpanDeficientError,
    VerificationError,
)
from .exactla import SparseEchelon, SparseIntMatrix, rank_exact_dense
# perfbench/tracing.py wraps cycles.coefficients_in_span and cycles.sample_primes
from .exactla import coefficients_in_span  # noqa: F401
from .primes import default_primes
from .primes import sample_primes  # noqa: F401

DEFAULT_SEED = 1
DEFAULT_SEARCH_BUDGET = 1_000_000


def search_budget(explicit: Optional[int] = None) -> int:
    """Node budget for searches: explicit value, else TRADE_KERNEL_BUDGET, else default."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("TRADE_KERNEL_BUDGET", "").strip()
    if env:
        return int(env)
    return DEFAULT_SEARCH_BUDGET


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

    def vertices(self) -> frozenset[int]:
        return frozenset(self)

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        a, b, c, d = self
        return (
            (min(a, b), max(a, b)),
            (min(b, c), max(b, c)),
            (min(c, d), max(c, d)),
            (min(d, a), max(d, a)),
        )

    def diagonals(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two non-adjacent vertex pairs, each sorted."""
        a, b, c, d = self
        return ((a, c) if a < c else (c, a), (b, d) if b < d else (d, b))

    def is_canonical(self) -> bool:
        a, b, c, d = self
        return len({a, b, c, d}) == 4 and a == min(self) and b < d


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
def cycle_edge_array(n: int) -> np.ndarray:
    """Edge indices of every canonical cycle, shape (3*C(n,4), 4)."""
    cycles = enumerate_cycles(n)
    arr = np.empty((len(cycles), 4), dtype=np.int64)
    for i, c in enumerate(cycles):
        for j, (u, v) in enumerate(c.edge_pairs()):
            arr[i, j] = edge_index(u, v, n)
    return arr


@functools.lru_cache(maxsize=None)
def build_inclusion_matrix(n: int) -> SparseIntMatrix:
    """C(n,2) x 3*C(n,4) 0/1 matrix, rows edges, columns cycles.

    Each column has 4 ones. Each row has (n-2)(n-3) ones: an edge lies in
    two of the three cycles on each of the C(n-2,2) supersets.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    arr = cycle_edge_array(n)
    entries = {}
    for col in range(arr.shape[0]):
        for e in arr[col]:
            entries[(int(e), col)] = 1
    return SparseIntMatrix(edge_count(n), arr.shape[0], entries)


@functools.lru_cache(maxsize=None)
def matrix_rank_exact(n: int) -> int:
    return rank_exact_dense(build_inclusion_matrix(n).to_dense())


def kernel_dimension(n: int) -> int:
    return 3 * math.comb(n, 4) - matrix_rank_exact(n)


# ---------------------------------------------------------------------------
# vectors, systems, trade pairs


class CycleVector:
    """Integer vector over the canonical cycle order for one n."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Optional[np.ndarray] = None):
        dim = 3 * math.comb(n, 4)
        if entries is None:
            entries = np.zeros(dim, dtype=np.int64)
        else:
            entries = np.asarray(entries, dtype=np.int64).copy()
            if entries.shape != (dim,):
                raise ValueError(f"expected length {dim}, got {entries.shape}")
        self.n = n
        self.entries = entries

    @classmethod
    def from_multiset(cls, n: int, cycles: Mapping[FourCycle, int]) -> "CycleVector":
        idx = cycle_index_map(n)
        v = np.zeros(3 * math.comb(n, 4), dtype=np.int64)
        for c, mult in cycles.items():
            v[idx[c]] += mult
        return cls(n, v)

    def support(self) -> list[tuple[FourCycle, int]]:
        cycles = enumerate_cycles(self.n)
        return [(cycles[int(i)], int(self.entries[i])) for i in np.nonzero(self.entries)[0]]

    def to_ints(self) -> list[int]:
        return [int(x) for x in self.entries]

    def is_zero(self) -> bool:
        return not self.entries.any()

    def add_scaled(self, other: "CycleVector", c: int) -> "CycleVector":
        if other.n != self.n:
            raise ValueError("orders differ")
        return CycleVector(self.n, self.entries + c * other.entries)

    def __add__(self, other: "CycleVector") -> "CycleVector":
        if other.n != self.n:
            raise ValueError("orders differ")
        return CycleVector(self.n, self.entries + other.entries)

    def __sub__(self, other: "CycleVector") -> "CycleVector":
        if other.n != self.n:
            raise ValueError("orders differ")
        return CycleVector(self.n, self.entries - other.entries)

    def __neg__(self) -> "CycleVector":
        return CycleVector(self.n, -self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycleVector)
            and self.n == other.n
            and np.array_equal(self.entries, other.entries)
        )

    def __repr__(self) -> str:
        return f"CycleVector(n={self.n}, nnz={int(np.count_nonzero(self.entries))})"


def _check_canonical_in_range(cycles: Iterable[FourCycle], n: int) -> None:
    for c in cycles:
        if not isinstance(c, FourCycle) or not c.is_canonical():
            raise ValueError(f"cycle {tuple(c)} is not in canonical form")
        if max(c) >= n:
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
    t = list(t)
    t_star = list(t_star)
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
    """An edge-balanced pair of disjoint cycle sets (a 4-cycle trade)."""

    def __init__(self, n: int, t: Iterable[FourCycle], t_star: Iterable[FourCycle]):
        t = frozenset(t)
        t_star = frozenset(t_star)
        _check_canonical_in_range(t | t_star, n)
        bad = validate_trade_pair(t, t_star)
        if bad is not None:
            raise ValueError(f"not a trade pair: {bad}")
        self.n = n
        self.t = t
        self.t_star = t_star

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
    idx = cycle_index_map(tp.n)
    v = np.zeros(3 * math.comb(tp.n, 4), dtype=np.int64)
    for c in tp.t:
        v[idx[c]] += 1
    for c in tp.t_star:
        v[idx[c]] -= 1
    # row e of M X is (cycles of T on e) - (cycles of T* on e)
    if Counter(e for c in tp.t for e in c.edge_pairs()) != Counter(
        e for c in tp.t_star for e in c.edge_pairs()
    ):
        raise VerificationError("T and T* cover different edge multisets, so X is not in ker M")
    return CycleVector(tp.n, v)


# ---------------------------------------------------------------------------
# double diamonds

# the three pairings of four sorted middles, in fixed order
PAIRINGS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


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

    def _cycles_of(self, pairing: int) -> tuple[FourCycle, FourCycle]:
        a, b = self.poles
        out = []
        for i, j in PAIRINGS[pairing]:
            x, y = self.middles[i], self.middles[j]
            # canonical form of the cycle a-x-b-y: with a < b and x < y the
            # smaller of a and x is its least vertex
            out.append(FourCycle(a, x, b, y) if a < x else FourCycle(x, a, y, b))
        return tuple(out)

    def source_cycles(self) -> tuple[FourCycle, FourCycle]:
        return self._cycles_of(self.source)

    def target_cycles(self) -> tuple[FourCycle, FourCycle]:
        return self._cycles_of(self.target)

    def move_cycles(self, sign: int) -> tuple[tuple[FourCycle, FourCycle], tuple[FourCycle, FourCycle]]:
        """(removed, added) cycles of the signed move: +1 swaps target for source."""
        if sign == 1:
            return self.target_cycles(), self.source_cycles()
        return self.source_cycles(), self.target_cycles()

    def trade_pair(self, n: int) -> CycleTradePair:
        return CycleTradePair(n, self.source_cycles(), self.target_cycles())


def diamond_vector(d: DoubleDiamond, n: int) -> CycleVector:
    """+1 on the source cycles, -1 on the target cycles."""
    idx = cycle_index_map(n)
    v = np.zeros(3 * math.comb(n, 4), dtype=np.int64)
    for c in d.source_cycles():
        v[idx[c]] += 1
    for c in d.target_cycles():
        v[idx[c]] -= 1
    return CycleVector(n, v)


def enumerate_double_diamonds(n: int) -> list[DoubleDiamond]:
    """All 3*C(n,2)*C(n-2,4) diamonds: poles lex, middles lex, pairing pair lex."""
    if n < 6:
        warnings.warn(f"no double-diamonds exist below order 6 (n={n})", stacklevel=2)
        return []
    out = []
    for a, b in itertools.combinations(range(n), 2):
        rest = [v for v in range(n) if v != a and v != b]
        for mids in itertools.combinations(rest, 4):
            for i, j in ((0, 1), (0, 2), (1, 2)):
                out.append(DoubleDiamond((a, b), mids, i, j))
    return out


@functools.lru_cache(maxsize=None)
def _diamond_stack(n: int) -> tuple[tuple[DoubleDiamond, ...], tuple[dict[int, int], ...]]:
    """(diamonds, rows): per enumerated diamond its vector as {cycle index: +-1}.

    Every row is checked to lie in ker M (both sides cover the same eight
    K_{2,4} edges), so the rank of any set of rows is at most dim ker M.
    """
    diamonds = tuple(enumerate_double_diamonds(n))
    idx = cycle_index_map(n) if n >= 4 else {}
    rows = []
    for d in diamonds:
        src = d.source_cycles()
        tgt = d.target_cycles()
        if Counter(e for c in src for e in c.edge_pairs()) != Counter(
            e for c in tgt for e in c.edge_pairs()
        ):
            raise VerificationError(f"diamond {d} is not edge-balanced, so not in ker M")
        # the two pairings are distinct, so the four cycles are too
        rows.append({idx[src[0]]: 1, idx[src[1]]: 1, idx[tgt[0]]: -1, idx[tgt[1]]: -1})
    return diamonds, tuple(rows)


# the `cycles span` payload labels diamond families up to this size "exact"
# and larger ones "mod-p certified"; every span rank is exact either way
_EXACT_DIAMOND_LIMIT = 500


@functools.lru_cache(maxsize=None)
def _diamond_selection(n: int) -> tuple[int, ...]:
    """Indices of the diamonds that raise the rank, scanning in enumeration order.

    One exact elimination over Z (SparseEchelon) on the 4-sparse rows,
    stopped once the rank reaches dim ker M, which no set of rows can
    exceed. The mod-p rank of the selected rows on one prime must equal
    their count: a second, independent proof that they are independent.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diamonds, rows = _diamond_stack(n)
    if not diamonds:
        return ()
    need = kernel_dimension(n)
    echelon = SparseEchelon()
    sel = []
    for i, row in enumerate(rows):
        if len(sel) == need:
            break
        if echelon.add(row):
            sel.append(i)
    selected = np.zeros((len(sel), 3 * math.comb(n, 4)), dtype=np.int64)
    for r, i in enumerate(sel):
        for c, v in rows[i].items():
            selected[r, c] = v
    p = default_primes(1)[0]
    rank_p = kernels.modp_rank(selected, p)
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


def diamond_basis(n: int) -> list[DoubleDiamond]:
    """Greedy basis of ker M drawn from the enumeration order.

    Size equals the kernel dimension or SpanDeficient is raised (n=5 has
    kernel dimension 5 and no diamonds at all).
    """
    diamonds, _ = _diamond_stack(n)
    return [diamonds[i] for i in _diamond_basis_indices(n)]


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
    _, rows = _diamond_stack(n)
    echelon = SparseEchelon()
    for pos, i in enumerate(_diamond_basis_indices(n)):
        if not echelon.add(rows[i], tag=pos):
            raise VerificationError(f"n={n}: basis diamond {pos} is dependent on the ones before it")
    return echelon


def _verify_recombination(
    n: int, sel: Sequence[int], coeffs: Sequence[Fraction], v: CycleVector
) -> bool:
    """Exact check that sum c_i D_i = v, using the 4-sparse diamond rows.

    Scaled by the lcm L of the coefficient denominators, the check is
    sum (L c_i) D_i = L v, all in integers.
    """
    diamonds, _ = _diamond_stack(n)
    idx = cycle_index_map(n)
    scale = math.lcm(*(c.denominator for c in coeffs))
    acc: dict[int, int] = {}
    for i, c in zip(sel, coeffs):
        if not c:
            continue
        c = c.numerator * (scale // c.denominator)
        d = diamonds[i]
        for cyc in d.source_cycles():
            acc[idx[cyc]] = acc.get(idx[cyc], 0) + c
        for cyc in d.target_cycles():
            acc[idx[cyc]] = acc.get(idx[cyc], 0) - c
    for j, val in acc.items():
        if val != scale * int(v.entries[j]):
            return False
    nonzero = {j for j, val in acc.items() if val}
    for j in np.nonzero(v.entries)[0]:
        if int(j) not in nonzero:
            return False
    return True


def decompose_trade(v: CycleVector) -> DiamondDecomposition:
    """Exact rational coordinates of a kernel vector over diamond_basis(n).

    A fraction-free integer reduction of v against the cached echelon of
    the basis rows (_solve_factor) gives the coordinates; the
    recombination is verified exactly, from the diamonds themselves,
    before returning.
    """
    _assert_kernel_member(v)
    n = v.n
    sel = _diamond_basis_indices(n)  # SpanDeficient propagates from here
    if v.is_zero():
        coeffs: tuple[Fraction, ...] = tuple(Fraction(0) for _ in sel)
        return DiamondDecomposition(n, coeffs, True)
    nz = np.flatnonzero(v.entries)
    coords = _solve_factor(n).coordinates(dict(zip(nz.tolist(), v.entries[nz].tolist())))
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
    arr = cycle_edge_array(n)
    by_edge: list[list[int]] = [[] for _ in range(edge_count(n))]
    for ci, edges in enumerate(arr.tolist()):
        for e in edges:
            by_edge[e].append(ci)
    return tuple(tuple(b) for b in by_edge)


def _run_cover(n: int, by_edge: Sequence[Sequence[int]], budget: int) -> CycleSystem:
    arr = cycle_edge_array(n)
    ne = edge_count(n)
    maxdeg = max((len(b) for b in by_edge), default=0)
    cand = np.full((ne, maxdeg), -1, dtype=np.int64)
    cand_len = np.zeros(ne, dtype=np.int64)
    for e, lst in enumerate(by_edge):
        cand[e, : len(lst)] = lst
        cand_len[e] = len(lst)
    status, chosen, _nodes = kernels.cover_dfs(ne, arr, cand, cand_len, budget)
    if status == 1:
        raise SearchExhaustedError(budget, f"4CS({n}) cover search")
    if status == 2:
        raise RuntimeError(f"exhaustive search found no 4CS({n}); admissibility arithmetic is wrong")
    cycles = enumerate_cycles(n)
    return CycleSystem(n, [cycles[int(i)] for i in chosen if i >= 0])


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


def _find_system_shuffled(n: int, rng: random.Random, budget: int) -> CycleSystem:
    by_edge = [list(b) for b in _cycles_by_edge(n)]  # same order as the cached table, so the same draws
    for b in by_edge:
        rng.shuffle(b)
    return _run_cover(n, by_edge, budget)


# ---------------------------------------------------------------------------
# diamond configurations in a system


class _ConfigIndex:
    """Diagonal -> cycles index of one cycle set, for its configuration pairs.

    A configuration is an unordered cycle pair whose union is a K_{2,4}:
    the two cycles share exactly two vertices and those form a diagonal
    of both, so each pair sits under exactly one diagonal. A diamond move
    swaps two cycles for two others, so the change in the pair count only
    involves pairs touching those four cycles (move_delta).
    """

    def __init__(self, cycles: Iterable[FourCycle]):
        self.by_diag: dict[tuple[int, int], list[FourCycle]] = {}
        for c in cycles:
            self.add(c)

    def add(self, c: FourCycle) -> None:
        for diag in c.diagonals():
            group = self.by_diag.get(diag)
            if group is None:
                self.by_diag[diag] = [c]
            else:
                group.append(c)

    def discard(self, c: FourCycle) -> None:
        for diag in c.diagonals():
            group = self.by_diag[diag]
            group.remove(c)
            if not group:
                del self.by_diag[diag]

    def pairs(self) -> list[tuple[FourCycle, FourCycle]]:
        """All configuration pairs, by diagonal, then c1 < c2."""
        out = []
        for diag in sorted(self.by_diag):
            group = self.by_diag[diag]
            if len(group) > 1:
                group.sort()
                for c1, c2 in itertools.combinations(group, 2):
                    if len({*c1, *c2}) == 6:
                        out.append((c1, c2))
        return out

    def partners(self, c: FourCycle, skip: Sequence[FourCycle] = ()) -> int:
        """Configuration pairs c forms with the indexed cycles other than c and those in skip."""
        count = 0
        for diag in c.diagonals():
            for other in self.by_diag.get(diag, ()):
                if other != c and other not in skip and len({*c, *other}) == 6:
                    count += 1
        return count

    def move_delta(self, removal: Sequence[FourCycle], addition: Sequence[FourCycle]) -> int:
        """Change in the pair count when the indexed removal cycles give way to the addition.

        The addition cycles must not be indexed, which holds for every
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
    return _ConfigIndex(cs.cycles if isinstance(cs, CycleSystem) else set(cs)).pairs()


def count_double_diamond_configs(cs: Union[CycleSystem, Iterable[FourCycle]]) -> int:
    return len(diamond_config_pairs(cs))


def _config_pair_moves(
    c1: FourCycle, c2: FourCycle
) -> list[tuple[int, DoubleDiamond]]:
    """The two signed canonical diamond moves that remove the pair {c1, c2}.

    The shared diagonal gives the poles; the pair's pairing index r can
    move to either other pairing t, encoded on the canonical diamond
    (source < target) with sign +1 when r is the target side. A pair that
    is not a configuration raises ValueError.
    """
    diags1, diags2 = c1.diagonals(), c2.diagonals()
    poles = tuple(sorted(set(c1).intersection(c2)))
    if len(poles) != 2 or poles not in diags1 or poles not in diags2:
        raise ValueError(f"{tuple(c1)} and {tuple(c2)} are not a double-diamond configuration")
    # each cycle joins the poles through its other diagonal, a pair of middles
    j1 = diags1[1] if diags1[0] == poles else diags1[0]
    j2 = diags2[1] if diags2[0] == poles else diags2[0]
    mids = tuple(sorted(j1 + j2))
    # the pairing the two cycles realise is fixed by the middle joined to mids[0]:
    # PAIRINGS[r] joins middle 0 to middle r + 1
    r = mids.index(j1[1] if j1[0] == mids[0] else j2[1]) - 1
    out = []
    for t in range(3):
        if t == r:
            continue
        if t < r:
            out.append((1, DoubleDiamond(poles, mids, t, r)))
        else:
            out.append((-1, DoubleDiamond(poles, mids, r, t)))
    return out


def _pair_moves(memo: dict, pair: tuple[FourCycle, FourCycle]) -> list:
    """_config_pair_moves(*pair) as (sign, d, removed, added), memoized in a search's own dict."""
    moves = memo.get(pair)
    if moves is None:
        moves = memo[pair] = [(sign, d, *d.move_cycles(sign)) for sign, d in _config_pair_moves(*pair)]
    return moves


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
    cnt = Counter(state) if not isinstance(state, Mapping) else Counter(dict(state))
    removal, addition = d.move_cycles(sign)
    missing = [c for c in removal if cnt[c] < 1]
    if missing:
        raise MissingCyclesError(missing)
    for c in removal:
        cnt[c] -= 1
    for c in addition:
        cnt[c] += 1
    return +cnt


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
    node_budget = search_budget(budget)
    best = None
    for _ in range(restarts):
        state = set(_find_system_shuffled(n, rng, node_budget).cycles)
        index = _ConfigIndex(state)
        memo: dict = {}
        pairs = index.pairs()
        count = len(pairs)
        for _ in range(steps):
            if count == 0:
                break
            moves = [m for pair in pairs for m in _pair_moves(memo, pair)]
            rng.shuffle(moves)
            for _, _, removal, addition in moves:
                delta = index.move_delta(removal, addition)
                if delta <= 0:
                    for c in removal:
                        index.discard(c)
                        state.remove(c)
                    for c in addition:
                        index.add(c)
                        state.add(c)
                    pairs = index.pairs()
                    if len(pairs) != count + delta:
                        raise VerificationError(
                            f"incremental configuration count {count + delta} != recount {len(pairs)}"
                        )
                    count = len(pairs)
                    break
            else:
                break
        if best is None or count < best:
            best = count
        if count == 0:
            out = CycleSystem(n, state)
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
    (virtual mode may go negative; strict and lifted replays keep it 0,
    lifted in the multiset sense of never dropping below zero).
    """

    n: int
    mode: str
    lam: int
    moves: tuple[tuple[int, DoubleDiamond], ...]
    audit: tuple[int, ...]


@dataclass(frozen=True)
class RationalCertificate:
    """Non-integral decomposition of vec(cs1) - vec(cs2); no integer move
    sequence exists over the basis, so the transform stops here."""

    n: int
    support: tuple[tuple[DoubleDiamond, Fraction], ...]
    verified: bool


def _improper_count(cnt: Counter) -> int:
    return sum(1 for v in cnt.values() if v not in (0, 1))


def _signed_moves_from(dec: DiamondDecomposition) -> list[tuple[int, DoubleDiamond]]:
    """Moves realizing -v for integral decomposition of v, in basis order."""
    basis = diamond_basis(dec.n)
    moves = []
    for i, c in dec.support():
        sign = -1 if c > 0 else 1
        moves.extend((sign, basis[i]) for _ in range(abs(int(c))))
    return moves


def _counter_of(cs: CycleSystem) -> Counter:
    return Counter({c: 1 for c in cs.cycles})


def _replay_virtual(start: Counter, goal: Counter, moves) -> tuple[int, ...]:
    state = Counter(start)
    audit = []
    for sign, d in moves:
        removal, addition = d.move_cycles(sign)
        for c in removal:
            state[c] -= 1
        for c in addition:
            state[c] += 1
        state = Counter({c: m for c, m in state.items() if m})
        audit.append(_improper_count(state))
    if state != goal:
        raise VerificationError("replaying the move plan does not reach the goal system")
    return tuple(audit)


def _schedule_strict(start: Counter, goal: Counter, pending: list) -> list:
    """Greedy order keeping every intermediate a valid system (0/1 mults)."""
    state = Counter(start)
    plan = []
    pending = list(pending)
    while pending:
        chosen = None
        for idx, (sign, d) in enumerate(pending):
            removal, addition = d.move_cycles(sign)
            if all(state[c] == 1 for c in removal) and all(state[c] == 0 for c in addition):
                chosen = idx
                break
        if chosen is None:
            raise ScheduleFailureError(
                f"strict scheduling stuck with {len(pending)} moves left", prefix=plan
            )
        sign, d = pending.pop(chosen)
        state = apply_diamond_move(state, d, sign)
        plan.append((sign, d))
    if state != goal:
        raise VerificationError("the strict schedule does not reach the goal system")
    return plan


def _multiset_distance(a: Mapping[FourCycle, int], b: Mapping[FourCycle, int]) -> int:
    only_b = sum(abs(m) for k, m in b.items() if k not in a)
    return sum(abs(m - b.get(k, 0)) for k, m in a.items()) + only_b


def _child_state(
    state: dict[FourCycle, int],
    h: int,
    want: Mapping[FourCycle, int],
    removal: Sequence[FourCycle],
    addition: Sequence[FourCycle],
) -> tuple[dict[FourCycle, int], int]:
    """The state after a move, and its distance to want given h, the state's own.

    The removal cycles must be in state. Only the four moved cycles change
    their terms of the distance, so h moves by the change in those terms.
    """
    child = dict(state)
    for c in removal:
        m, w = child[c], want.get(c, 0)
        h += abs(m - 1 - w) - abs(m - w)
        if m == 1:
            del child[c]
        else:
            child[c] = m - 1
    for c in addition:
        m, w = child.get(c, 0), want.get(c, 0)
        h += abs(m + 1 - w) - abs(m - w)
        child[c] = m + 1
    return child, h


def _best_first_schedule(
    start: Counter, goal: Counter, node_budget: int, seed: int
) -> Optional[list]:
    """Best-first search over all applicable diamond moves.

    Priority 8*h + g with h the multiset L1 distance to the goal; a small
    seeded jitter breaks ties reproducibly. A state is keyed by the sorted
    tuple of its (cycle, multiplicity) items. The moves of a state are
    those of the configuration pairs in its support; each pair's moves,
    with the cycles they remove and add, are worked out once per call. A
    child differs from its parent in those four cycles only: it is a copy
    of the parent's dict with four entries changed, and its h is the
    parent's h plus the change in the same four terms of the distance.
    Returns the move list or None on budget exhaustion.
    """
    rng = random.Random(seed)
    want = dict(goal)
    h0 = _multiset_distance(start, want)
    if h0 == 0:
        return []
    key0 = tuple(sorted(start.items()))
    heap = [(8 * h0, 0, 0, key0)]
    parents: dict[tuple, Optional[tuple]] = {key0: None}
    gscore = {key0: 0}
    memo: dict = {}
    counter = itertools.count(1)
    expanded = 0
    while heap:
        _, _, _, key = heapq.heappop(heap)
        state = dict(key)
        g = gscore[key]
        expanded += 1
        if expanded > node_budget:
            return None
        h = _multiset_distance(state, want)
        # every state holds positive multiplicities only, so its keys are its support
        for pair in diamond_config_pairs(state):
            for sign, d, removal, addition in _pair_moves(memo, pair):
                child, ch = _child_state(state, h, want, removal, addition)
                ckey = tuple(sorted(child.items()))
                ng = g + 1
                seen = gscore.get(ckey)
                if seen is not None and seen <= ng:
                    continue
                gscore[ckey] = ng
                parents[ckey] = (key, (sign, d))
                if ch == 0:
                    path = [(sign, d)]
                    cur = key
                    while parents[cur] is not None:
                        cur, mv = parents[cur]
                        path.append(mv)
                    path.reverse()
                    return path
                heapq.heappush(heap, (8 * ch + ng, rng.randrange(16), next(counter), ckey))
    return None


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
    and tolerates negative multiplicities; strict demands every
    intermediate be a valid system and may fail; lifted searches for a
    nonnegative path between both systems augmented with lam-1 copies of
    the deterministic filler system, raising lam until the search
    succeeds. Replay verification runs before anything is returned.
    """
    if cs1.n != cs2.n:
        raise ValueError("orders differ")
    if mode not in ("virtual", "strict", "lifted"):
        raise ValueError(f"unknown mode {mode!r}")
    n = cs1.n
    start = _counter_of(cs1)
    goal = _counter_of(cs2)
    if start == goal:
        return CycleMovePlan(n, mode, 1, (), ())
    dec = decompose_trade(cs1.vector() - cs2.vector())
    if not dec.integral:
        basis = diamond_basis(n)
        support = tuple((basis[i], c) for i, c in dec.support())
        return RationalCertificate(n, support, True)
    moves = _signed_moves_from(dec)
    if mode == "virtual":
        audit = _replay_virtual(start, goal, moves)
        return CycleMovePlan(n, mode, 1, tuple(moves), audit)
    if mode == "strict":
        plan = _schedule_strict(start, goal, moves)
        audit = _replay_virtual(start, goal, plan)
        if any(audit):
            raise VerificationError("a strict plan passed through a state that is not a system")
        return CycleMovePlan(n, mode, 1, tuple(plan), audit)
    # lifted
    filler = _counter_of(find_cycle_system(n))
    node_budget = search_budget(budget if budget is not None else 100_000)
    for lam in range(1, lam_max + 1):
        aug = Counter({c: m * (lam - 1) for c, m in filler.items()})
        a = start + aug
        b = goal + aug
        path = _best_first_schedule(a, b, node_budget, seed)
        if path is None:
            continue
        state = Counter(a)
        for sign, d in path:
            # raises MissingCycles if the path ever went negative
            state = apply_diamond_move(state, d, sign)
        if state != b:
            raise VerificationError(f"replaying the lifted plan at lambda={lam} does not reach the goal")
        return CycleMovePlan(n, "lifted", lam, tuple(path), tuple(0 for _ in path))
    raise ScheduleFailureError(
        f"lifted scheduling failed for lambda up to {lam_max} within budget {node_budget}"
    )


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
    cycles = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise FormatError(f"cycle file: bad cycle line {ln!r}")
        try:
            c = FourCycle(*(int(x) for x in parts))
        except ValueError as e:
            raise FormatError(f"cycle file: bad cycle line {ln!r}") from e
        if not c.is_canonical() or max(c) >= n:
            raise FormatError(f"cycle file: {tuple(c)} is not canonical for n={n}")
        cycles.append(c)
    return n, cycles


def parse_cycle_system(text: str) -> CycleSystem:
    n, cycles = parse_cycle_collection(text)
    if len(set(cycles)) != len(cycles):
        raise FormatError("cycle file: duplicate cycle")
    try:
        return CycleSystem(n, cycles)
    except ValueError as e:
        raise FormatError(f"cycle file: {e}") from e


def format_trade_pair_file(tp: CycleTradePair) -> str:
    top = [f"n={tp.n}"] + [" ".join(str(v) for v in c) for c in sorted(tp.t)]
    bot = [" ".join(str(v) for v in c) for c in sorted(tp.t_star)]
    return "\n".join(top) + "\n\n" + "\n".join(bot) + "\n"


def parse_trade_pair_blocks(text: str) -> tuple[int, list[FourCycle], list[FourCycle]]:
    """The two cycle blocks of a trade file, without the trade checks."""
    blocks: list[list[str]] = [[]]
    for ln in text.splitlines():
        if ln.strip():
            blocks[-1].append(ln)
        elif blocks[-1]:
            blocks.append([])
    blocks = [b for b in blocks if b]
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
    return n, t, t_star


def parse_trade_pair_file(text: str) -> CycleTradePair:
    """Two cycle blocks (T then T*) separated by a blank line."""
    n, t, t_star = parse_trade_pair_blocks(text)
    try:
        return CycleTradePair(n, t, t_star)
    except ValueError as e:
        raise FormatError(f"trade pair: {e}") from e


def format_cycle_move_plan(plan: CycleMovePlan) -> str:
    lines = []
    for sign, d in plan.moves:
        s = "+1" if sign > 0 else "-1"
        mids = ",".join(str(m) for m in d.middles)
        lines.append(
            f"{s} poles={d.poles[0]},{d.poles[1]} middles={mids} from={d.source} to={d.target}"
        )
    lines.append(f"lambda={plan.lam}")
    return "\n".join(lines) + "\n"


def parse_cycle_move_plan(text: str) -> tuple[list[tuple[int, DoubleDiamond]], int]:
    """(moves, lambda) from the plan format."""
    moves = []
    lam = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("lambda="):
            lam = int(ln.split("=", 1)[1])
            continue
        parts = ln.split()
        if len(parts) != 5 or parts[0] not in ("+1", "-1", "1"):
            raise FormatError(f"bad move line: {ln!r}")
        fields = {}
        for tok in parts[1:]:
            k, _, val = tok.partition("=")
            fields[k] = val
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
