"""Output verifiers that share no code with the package.

Cycles are identified by their edge sets, diamonds are rebuilt from
poles, middles and pairing indices, and every check is plain Counter or
Fraction arithmetic, so a wrong answer from the package cannot also fool
its verifier. Each verifier returns None when the output is right and a
one-line reason when it is not.
"""

import itertools
import re
from collections import Counter
from fractions import Fraction
from math import comb

# pairing p splits the sorted middles (m0 m1 m2 m3) into two pairs
PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
_MOVE = re.compile(
    r"^(?:([+-]1) )?poles=(\d+),(\d+) middles=(\d+),(\d+),(\d+),(\d+) from=([012]) to=([012])$"
)
_PRIME = 2**31 - 1


def cycle_key(vs):
    """A 4-cycle v0-v1-v2-v3-v0 as the frozenset of its edges."""
    return frozenset(frozenset((vs[i], vs[(i + 1) % 4])) for i in range(4))


def kernel_dim(n):
    """dim ker M for the 4-cycle inclusion matrix: 3 C(n,4) columns minus C(n,2) edges."""
    return 3 * comb(n, 4) - comb(n, 2)


def diamond_cycles(poles, middles, pairing):
    a, b = poles
    return [cycle_key((a, middles[i], b, middles[j])) for i, j in PAIRINGS[pairing]]


def diamond_vec(d):
    """d = (poles, middles, source, target): +1 on source cycles, -1 on target cycles."""
    poles, middles, src, tgt = d
    v = Counter()
    for c in diamond_cycles(poles, middles, src):
        v[c] += 1
    for c in diamond_cycles(poles, middles, tgt):
        v[c] -= 1
    return v


def diamond_error(d):
    (a, b), mids, src, tgt = d
    if a >= b or list(mids) != sorted(set(mids)) or len(mids) != 4 or {a, b} & set(mids):
        return f"malformed diamond {d}"
    if src == tgt or not {src, tgt} <= {0, 1, 2}:
        return f"bad pairings in {d}"
    return None


def parse_move(line):
    """'+1 poles=a,b middles=... from=s to=t' (sign optional) -> (sign, diamond)."""
    m = _MOVE.match(line.strip())
    if m is None:
        raise ValueError(f"bad diamond line {line!r}")
    g = m.groups()
    d = ((int(g[1]), int(g[2])), tuple(int(x) for x in g[3:7]), int(g[7]), int(g[8]))
    return (int(g[0]) if g[0] else 1), d


def as_diamond(dd):
    """The package's DoubleDiamond as a plain tuple."""
    return (tuple(dd.poles), tuple(dd.middles), dd.source, dd.target)


def as_fraction(x):
    if isinstance(x, str):
        p, _, q = x.partition("/")
        return Fraction(int(p), int(q or 1))
    return Fraction(x)


def system_counter(cycle_lists):
    return Counter(cycle_key(c) for c in cycle_lists)


def _nonzero(c):
    return {k: v for k, v in c.items() if v}


def combine(terms):
    """sum of coefficient * vec(diamond) over terms [(diamond, coefficient)]."""
    acc = Counter()
    for d, coef in terms:
        for c, s in diamond_vec(d).items():
            acc[c] += coef * s
    return acc


def difference(a, b):
    out = Counter(a)
    out.subtract(b)
    return out


def recombination_error(terms, target):
    """terms: [(diamond, coefficient)]; target: Counter over cycle keys."""
    for d, _ in terms:
        bad = diamond_error(d)
        if bad:
            return bad
    if _nonzero(combine(terms)) != _nonzero(target):
        return "coefficients do not recombine to the target vector"
    return None


def replay_error(start, goal, moves, nonnegative, audit=None):
    """Replay signed diamond moves with Counter arithmetic; a +1 move adds vec(d)."""
    state = Counter(start)
    for t, (sign, d) in enumerate(moves):
        bad = diamond_error(d)
        if bad:
            return bad
        for c, s in diamond_vec(d).items():
            state[c] += sign * s
        if nonnegative and any(v < 0 for v in state.values()):
            return f"move {t} drives a multiplicity negative"
        if audit is not None and audit[t] != sum(1 for v in state.values() if v not in (0, 1)):
            return f"audit entry {t} is wrong"
    if _nonzero(state) != _nonzero(goal):
        return "replay does not reach the goal"
    return None


def cycle_system_error(n, cycle_lists):
    """A 4CS(n): 4-cycles on distinct vertices of K_n covering each edge exactly once."""
    edges = Counter()
    for c in cycle_lists:
        if len(c) != 4 or len(set(c)) != 4 or not all(0 <= v < n for v in c):
            return f"bad cycle {c}"
        for e in cycle_key(c):
            edges[e] += 1
    if len(edges) != comb(n, 2) or any(m != 1 for m in edges.values()):
        return f"cycles do not cover the edges of K_{n} exactly once"
    return None


def diamond_config_count(cycle_lists):
    """O(m^2) oracle: pairs sharing exactly two vertices that are a diagonal in both."""
    def diagonals(c):
        return {frozenset((c[0], c[2])), frozenset((c[1], c[3]))}

    count = 0
    for c1, c2 in itertools.combinations(cycle_lists, 2):
        shared = frozenset(c1) & frozenset(c2)
        if len(shared) == 2 and shared in diagonals(c1) and shared in diagonals(c2):
            count += 1
    return count


def diamond_free_error(n, cycle_lists):
    return cycle_system_error(n, cycle_lists) or (
        "system has a double-diamond configuration" if diamond_config_count(cycle_lists) else None
    )


def rank_mod_p(rows, p=_PRIME):
    """Rank mod p of sparse rows {col: value}; a lower bound on the rational rank."""
    pivots = {}
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[c]
            for k, v in piv.items():
                nv = (r.get(k, 0) - f * v) % p
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
    return len(pivots)


def rank_exact(rows):
    """Rational rank of dense integer rows by Fraction elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        pr = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def basis_error(n, diamonds):
    """kernel_dim(n) diamonds whose vectors are independent (mod-p rank = count)."""
    if len(diamonds) != kernel_dim(n):
        return f"basis has {len(diamonds)} diamonds, kernel dimension is {kernel_dim(n)}"
    index = {}
    rows = []
    for d in diamonds:
        bad = diamond_error(d)
        if bad:
            return bad
        rows.append({index.setdefault(c, len(index)): s for c, s in diamond_vec(d).items()})
    if rank_mod_p(rows) != len(rows):
        return "basis diamonds are dependent"
    return None


def latin_plan_error(l1, l2, moves, improper=None):
    """Replay (sign, i, j, k) intercalate moves from square l1 to square l2.

    The move adds sign * (e0 - ei) x (e0 - ej) x (e0 - ek) to the triple vector.
    """
    def triples(sq):
        return Counter((i, j, s) for i, row in enumerate(sq) for j, s in enumerate(row))

    state = triples(l1)
    for t, (sign, i, j, k) in enumerate(moves):
        for a, sa in ((0, 1), (i, -1)):
            for b, sb in ((0, 1), (j, -1)):
                for c, sc in ((0, 1), (k, -1)):
                    state[(a, b, c)] += sign * sa * sb * sc
        if improper is not None and improper[t] != sum(1 for v in state.values() if v not in (0, 1)):
            return f"improper count {t} is wrong"
    if _nonzero(state) != _nonzero(triples(l2)):
        return "latin plan does not reach the second square"
    return None


def matvec(dense, v):
    return [sum(a * x for a, x in zip(row, v)) for row in dense]


def kernel_error(dense, ncols, basis):
    """basis spans ker(dense): each vector is killed, they are independent, count = nullity."""
    for v in basis:
        if len(v) != ncols or any(matvec(dense, v)):
            return "a kernel vector is not in the kernel"
    nullity = ncols - rank_exact(dense)
    if len(basis) != nullity or (basis and rank_exact(basis) != len(basis)):
        return f"kernel basis has {len(basis)} independent vectors, nullity is {nullity}"
    return None
