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

The diamond span rank and basis come from one exact elimination over Z
of the 4-sparse diamond rows, cross-checked by a mod-p rank on one
prime. Decompositions are solved modulo seeded 31-bit primes and
verified by exact rational recombination before being returned.
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
from .exactla import coefficients_in_span  # noqa: F401  (perfbench/tracing.py wraps cycles.coefficients_in_span)
from .primes import default_primes, sample_primes

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
        return ((min(a, c), max(a, c)), (min(b, d), max(b, d)))

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
    """+1 on T, -1 on T*. M X = 0 is asserted via the edge multisets."""
    idx = cycle_index_map(tp.n)
    v = np.zeros(3 * math.comb(tp.n, 4), dtype=np.int64)
    for c in tp.t:
        v[idx[c]] += 1
    for c in tp.t_star:
        v[idx[c]] -= 1
    # row e of M X is (cycles of T on e) - (cycles of T* on e)
    assert Counter(e for c in tp.t for e in c.edge_pairs()) == Counter(
        e for c in tp.t_star for e in c.edge_pairs()
    )
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
            out.append(canonical_cycle((a, self.middles[i], b, self.middles[j])))
        return tuple(out)

    def source_cycles(self) -> tuple[FourCycle, FourCycle]:
        return self._cycles_of(self.source)

    def target_cycles(self) -> tuple[FourCycle, FourCycle]:
        return self._cycles_of(self.target)

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
def _diamond_stack(n: int) -> tuple[tuple[DoubleDiamond, ...], np.ndarray]:
    """(diamonds, stacked vectors) with one row per enumerated diamond.

    Every row is checked to lie in ker M (both sides cover the same eight
    K_{2,4} edges), so the rank of any set of rows is at most dim ker M.
    """
    diamonds = tuple(enumerate_double_diamonds(n))
    idx = cycle_index_map(n) if n >= 4 else {}
    stack = np.zeros((len(diamonds), 3 * math.comb(n, 4)), dtype=np.int64)
    for r, d in enumerate(diamonds):
        src = d.source_cycles()
        tgt = d.target_cycles()
        if Counter(e for c in src for e in c.edge_pairs()) != Counter(
            e for c in tgt for e in c.edge_pairs()
        ):
            raise VerificationError(f"diamond {d} is not edge-balanced, so not in ker M")
        for c in src:
            stack[r, idx[c]] += 1
        for c in tgt:
            stack[r, idx[c]] -= 1
    return diamonds, stack


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
        diamonds, stack = _diamond_stack(n)
    if not diamonds:
        return ()
    need = kernel_dimension(n)
    echelon = SparseEchelon()
    sel = []
    for i, row in enumerate(stack):
        if len(sel) == need:
            break
        cols = np.flatnonzero(row)
        if echelon.add(dict(zip(cols.tolist(), row[cols].tolist()))):
            sel.append(i)
    p = default_primes(1)[0]
    rank_p = kernels.modp_rank(stack[sel], p)
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


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    g, s, _ = _ext_gcd(m1, m2)
    if g != 1:
        raise VerificationError(f"CRT moduli {m1} and {m2} are not coprime")
    m = m1 * m2
    x = (r1 + (r2 - r1) * s % m2 * m1) % m
    return x, m


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _rational_reconstruct(a: int, m: int) -> Optional[Fraction]:
    """The unique p/q with |p|, q <= sqrt(m/2) and p = a q (mod m), if any."""
    a %= m
    bound = math.isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    p, q = r1, s1
    if q < 0:
        p, q = -p, -q
    if q == 0 or q > bound or math.gcd(p, q) != 1:
        return None
    if (p - a * q) % m != 0:
        return None
    return Fraction(p, q)


@functools.lru_cache(maxsize=None)
def _solve_factor(n: int, p: int) -> Optional[np.ndarray]:
    """E with E A = [I; 0] mod p for A = stacked basis columns, or None.

    RREF of [A | I]: the first rows of E read off coefficients of any
    column-space member, the remaining rows are a consistency check. None
    when p is unlucky (pivots fail to be exactly the basis columns).
    """
    _, stack = _diamond_stack(n)
    sel = _diamond_basis_indices(n)
    a = stack[list(sel)].T % p
    dim, nb = a.shape
    aug = np.concatenate([a, np.eye(dim, dtype=np.int64)], axis=1)
    rref, piv = kernels.modp_rref(aug, p)
    # the first nb pivots must be exactly the columns of A; later pivots
    # fall in the identity block and only pad the consistency rows
    if list(piv[:nb]) != list(range(nb)):
        return None
    return np.ascontiguousarray(rref[:, nb:])


def _decompose_modular(v: CycleVector) -> tuple[Fraction, ...]:
    n = v.n
    sel = _diamond_basis_indices(n)
    nb = len(sel)
    residues: list[np.ndarray] = []
    moduli: list[int] = []
    for p in sample_primes(12):
        e = _solve_factor(n, p)
        if e is None:
            continue
        r = kernels.modp_matvec(e, v.entries, p)
        if np.any(r[nb:]):
            # v is in ker M exactly and the basis spans ker M, so a
            # nonzero consistency row can only mean an unlucky prime
            continue
        residues.append(r[:nb].astype(object))
        moduli.append(p)
        if len(moduli) < 3:
            continue
        acc = residues[0]
        mod = moduli[0]
        for rr, pp in zip(residues[1:], moduli[1:]):
            acc = np.array(
                [_crt_pair(int(x), mod, int(y), pp)[0] for x, y in zip(acc, rr)], dtype=object
            )
            mod *= pp
        coeffs = [_rational_reconstruct(int(x), mod) for x in acc]
        if any(c is None for c in coeffs):
            continue
        if _verify_recombination(n, sel, coeffs, v):
            return tuple(coeffs)
    raise RuntimeError(f"modular decomposition failed to stabilize at n={n}")


def _verify_recombination(
    n: int, sel: Sequence[int], coeffs: Sequence[Fraction], v: CycleVector
) -> bool:
    """Exact check that sum c_i D_i = v, using the 4-sparse diamond rows."""
    diamonds, _ = _diamond_stack(n)
    idx = cycle_index_map(n)
    acc: dict[int, Fraction] = {}
    for i, c in zip(sel, coeffs):
        if not c:
            continue
        d = diamonds[i]
        for cyc in d.source_cycles():
            acc[idx[cyc]] = acc.get(idx[cyc], Fraction(0)) + c
        for cyc in d.target_cycles():
            acc[idx[cyc]] = acc.get(idx[cyc], Fraction(0)) - c
    for j, val in acc.items():
        if val != int(v.entries[j]):
            return False
    nonzero = {j for j, val in acc.items() if val}
    for j in np.nonzero(v.entries)[0]:
        if int(j) not in nonzero:
            return False
    return True


def decompose_trade(v: CycleVector) -> DiamondDecomposition:
    """Exact rational coordinates of a kernel vector over diamond_basis(n).

    Solved modulo several primes with cached solve factors, combined by
    CRT and rational reconstruction; the recombination is verified
    exactly before returning.
    """
    _assert_kernel_member(v)
    n = v.n
    sel = _diamond_basis_indices(n)  # SpanDeficient propagates from here
    if v.is_zero():
        coeffs: tuple[Fraction, ...] = tuple(Fraction(0) for _ in sel)
        return DiamondDecomposition(n, coeffs, True)
    coeffs = _decompose_modular(v)
    integral = all(c.denominator == 1 for c in coeffs)
    return DiamondDecomposition(n, coeffs, integral)


# ---------------------------------------------------------------------------
# system construction


def _cycles_by_edge(n: int) -> list[list[int]]:
    arr = cycle_edge_array(n)
    by_edge: list[list[int]] = [[] for _ in range(edge_count(n))]
    for ci in range(arr.shape[0]):
        for e in arr[ci]:
            by_edge[int(e)].append(ci)
    return by_edge


def _run_cover(n: int, by_edge: list[list[int]], budget: int) -> CycleSystem:
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
    by_edge = [list(b) for b in _cycles_by_edge(n)]
    for b in by_edge:
        rng.shuffle(b)
    return _run_cover(n, by_edge, budget)


# ---------------------------------------------------------------------------
# diamond configurations in a system


def _as_cycle_list(cs: Union[CycleSystem, Iterable[FourCycle]]) -> list[FourCycle]:
    if isinstance(cs, CycleSystem):
        return cs.sorted_cycles()
    return sorted(set(cs))


def diamond_config_pairs(
    cs: Union[CycleSystem, Iterable[FourCycle]],
) -> list[tuple[FourCycle, FourCycle]]:
    """Unordered cycle pairs whose union is a K_{2,4}: exactly two shared
    vertices, diagonal in both cycles. Accepts any cycle collection."""
    cycles = _as_cycle_list(cs)
    by_diag: dict[tuple[int, int], list[FourCycle]] = {}
    for c in cycles:
        for diag in c.diagonals():
            by_diag.setdefault(diag, []).append(c)
    out = []
    for diag, group in sorted(by_diag.items()):
        for c1, c2 in itertools.combinations(group, 2):
            if len(c1.vertices() & c2.vertices()) == 2:
                out.append((c1, c2))
    return out


def count_double_diamond_configs(cs: Union[CycleSystem, Iterable[FourCycle]]) -> int:
    return len(diamond_config_pairs(cs))


def _config_pair_moves(
    c1: FourCycle, c2: FourCycle
) -> list[tuple[int, DoubleDiamond]]:
    """The two signed canonical diamond moves that remove the pair {c1, c2}.

    The shared diagonal gives the poles; the pair's pairing index r can
    move to either other pairing t, encoded on the canonical diamond
    (source < target) with sign +1 when r is the target side.
    """
    shared = c1.vertices() & c2.vertices()
    poles = tuple(sorted(shared))
    mids = tuple(sorted((c1.vertices() | c2.vertices()) - shared))
    # identify which pairing of the middles matches the two cycles
    have = {frozenset(c1.vertices() - shared), frozenset(c2.vertices() - shared)}
    r = None
    for pi, pairs in enumerate(PAIRINGS):
        want = {frozenset((mids[i], mids[j])) for i, j in pairs}
        if want == have:
            r = pi
            break
    assert r is not None
    out = []
    for t in range(3):
        if t == r:
            continue
        if t < r:
            out.append((1, DoubleDiamond(poles, mids, t, r)))
        else:
            out.append((-1, DoubleDiamond(poles, mids, r, t)))
    return out


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
    removal = d.target_cycles() if sign == 1 else d.source_cycles()
    addition = d.source_cycles() if sign == 1 else d.target_cycles()
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
        pairs = diamond_config_pairs(state)
        count = len(pairs)
        for _ in range(steps):
            if count == 0:
                break
            moves = []
            for c1, c2 in pairs:
                moves.extend(_config_pair_moves(c1, c2))
            rng.shuffle(moves)
            accepted = False
            for sign, d in moves:
                nxt = set(apply_diamond_move({c: 1 for c in state}, d, sign))
                npairs = diamond_config_pairs(nxt)
                if len(npairs) <= count:
                    state, pairs, count = nxt, npairs, len(npairs)
                    accepted = True
                    break
            if not accepted:
                break
        if best is None or count < best:
            best = count
        if count == 0:
            out = CycleSystem(n, state)
            assert count_double_diamond_configs(out) == 0
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
        removal = d.target_cycles() if sign == 1 else d.source_cycles()
        addition = d.source_cycles() if sign == 1 else d.target_cycles()
        for c in removal:
            state[c] -= 1
        for c in addition:
            state[c] += 1
        state = Counter({c: m for c, m in state.items() if m})
        audit.append(_improper_count(state))
    assert state == goal
    return tuple(audit)


def _schedule_strict(start: Counter, goal: Counter, pending: list) -> list:
    """Greedy order keeping every intermediate a valid system (0/1 mults)."""
    state = Counter(start)
    plan = []
    pending = list(pending)
    while pending:
        chosen = None
        for idx, (sign, d) in enumerate(pending):
            removal = d.target_cycles() if sign == 1 else d.source_cycles()
            addition = d.source_cycles() if sign == 1 else d.target_cycles()
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
    assert state == goal
    return plan


def _applicable_moves(state: Counter) -> list[tuple[int, DoubleDiamond]]:
    moves = []
    for c1, c2 in diamond_config_pairs([c for c, m in state.items() if m > 0]):
        moves.extend(_config_pair_moves(c1, c2))
    return moves


def _multiset_distance(a: Counter, b: Counter) -> int:
    keys = set(a) | set(b)
    return sum(abs(a[k] - b[k]) for k in keys)


def _best_first_schedule(
    start: Counter, goal: Counter, node_budget: int, seed: int
) -> Optional[list]:
    """Best-first search over all applicable diamond moves.

    Priority 8*h + g with h the multiset L1 distance to the goal; a small
    seeded jitter breaks ties reproducibly. Returns the move list or None
    on budget exhaustion.
    """
    rng = random.Random(seed)
    h0 = _multiset_distance(start, goal)
    if h0 == 0:
        return []
    key0 = tuple(sorted(start.items()))
    heap = [(8 * h0, 0, 0, key0)]
    parents: dict[tuple, Optional[tuple]] = {key0: None}
    gscore = {key0: 0}
    counter = itertools.count(1)
    expanded = 0
    while heap:
        _, _, _, key = heapq.heappop(heap)
        state = Counter(dict(key))
        g = gscore[key]
        expanded += 1
        if expanded > node_budget:
            return None
        for sign, d in _applicable_moves(state):
            child = apply_diamond_move(state, d, sign)
            ckey = tuple(sorted(child.items()))
            ng = g + 1
            if ckey in gscore and gscore[ckey] <= ng:
                continue
            gscore[ckey] = ng
            parents[ckey] = (key, (sign, d))
            h = _multiset_distance(child, goal)
            if h == 0:
                path = [(sign, d)]
                cur = key
                while parents[cur] is not None:
                    cur, mv = parents[cur]
                    path.append(mv)
                path.reverse()
                return path
            heapq.heappush(heap, (8 * h + ng, rng.randrange(16), next(counter), ckey))
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
        assert all(a == 0 for a in audit)
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
        assert state == b
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
