"""Hot numeric kernels: modular elimination and the cover search.

One implementation per kernel. The mod-p routines are numpy array loops
and import numpy when called; the cover search walks Python lists and
never loads it. Each routine states its fixed pivot rule, so results
depend only on the input and the prime. The search settings live here
too: the default seed and the default node budget, which a caller's
explicit budget (the CLI's --budget) replaces.

Overflow discipline: all moduli are below 2**31, so a single product of
two residues is below 2**62 and a rank-one update step stays inside
int64. Matrix-vector products sum many products and would overflow, so
modp_matvec splits the vector into 16-bit halves first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 1
DEFAULT_SEARCH_BUDGET = 1_000_000


def search_budget(explicit: Optional[int] = None) -> int:
    """Node budget for searches: the explicit value, else the default; at least 1."""
    budget = int(DEFAULT_SEARCH_BUDGET if explicit is None else explicit)
    if budget < 1:
        raise ValueError(f"a search budget must be at least 1, got {budget}")
    return budget


def greedy_rank_filter(vectors: np.ndarray, p: int) -> np.ndarray:
    """Indices of the rows that increase rank mod p, scanning in order.

    Equivalent to inserting rows one at a time and keeping those outside
    the span of the kept prefix. Implemented as in-order elimination: when
    a row becomes a pivot its column is cleared from all later rows, so
    every row is fully reduced by the time it is inspected.
    """
    import numpy as np

    a = np.ascontiguousarray(vectors, dtype=np.int64) % p
    nrows, ncols = a.shape
    sel = []
    for i in range(nrows):
        nz = np.nonzero(a[i])[0]
        if nz.size == 0:
            continue
        c = nz[0]
        sel.append(i)
        inv = pow(int(a[i, c]), p - 2, p)
        a[i] = a[i] * inv % p
        if i + 1 < nrows:
            below = a[i + 1 :]
            f = below[:, c]
            rows = np.nonzero(f)[0]
            if rows.size:
                below[rows] = (below[rows] - np.outer(f[rows], a[i])) % p
    return np.asarray(sel, dtype=np.int64)


def modp_rank(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix mod p."""
    return int(greedy_rank_filter(a, p).size)


def modp_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod p. Returns (rref matrix, pivot columns).

    Pivot rule: sweep columns left to right, take the first row at or
    below the current rank with a nonzero entry.
    """
    import numpy as np

    m = np.ascontiguousarray(a, dtype=np.int64) % p
    nrows, ncols = m.shape
    piv = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = m[r] * inv % p
        f = m[:, c].copy()
        f[r] = 0
        rows = np.nonzero(f)[0]
        if rows.size:
            m[rows] = (m[rows] - np.outer(f[rows], m[r])) % p
        piv.append(c)
        r += 1
    return m, np.asarray(piv, dtype=np.int64)


def cover_dfs(
    n_edges: int,
    cyc_edges: Sequence[Sequence[int]],
    by_edge: Sequence[Sequence[int]],
    budget: int,
) -> tuple[int, list[int], int]:
    """Depth-first exact cover of edges by 4-cycles.

    Branches on the lowest uncovered edge; the candidates of edge e are
    tried in the order of by_edge[e]. Returns (status, chosen, nodes)
    with status 0 = found, 1 = budget exhausted, 2 = unsatisfiable;
    chosen has one slot per level, -1 where nothing is chosen.
    """
    need = n_edges // 4
    covered = [False] * n_edges
    chosen = [-1] * need
    it_stack = [0] * need
    edge_stack = [0] * need
    depth = 0
    nodes = 0
    if need == 0:
        return 0, chosen, nodes
    while True:
        e = edge_stack[depth]
        cands = by_edge[e]
        i = it_stack[depth]
        advanced = False
        while i < len(cands):
            j = cands[i]
            e0, e1, e2, e3 = cyc_edges[j]
            if not (covered[e0] or covered[e1] or covered[e2] or covered[e3]):
                nodes += 1
                if nodes > budget:
                    return 1, chosen, nodes
                covered[e0] = covered[e1] = covered[e2] = covered[e3] = True
                chosen[depth] = j
                it_stack[depth] = i + 1
                depth += 1
                if depth == need:
                    return 0, chosen, nodes
                ne = e + 1
                while covered[ne]:
                    ne += 1
                edge_stack[depth] = ne
                it_stack[depth] = 0
                advanced = True
                break
            i += 1
        if advanced:
            continue
        depth -= 1
        if depth < 0:
            return 2, chosen, nodes
        j = chosen[depth]
        e0, e1, e2, e3 = cyc_edges[j]
        covered[e0] = covered[e1] = covered[e2] = covered[e3] = False
        chosen[depth] = -1


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


def modp_matvec(e: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(e @ v) mod p without int64 overflow.

    v is split into 16-bit halves so each partial sum stays below 2**56
    even for rows of several thousand entries.
    """
    import numpy as np

    vm = np.asarray(v, dtype=np.int64) % p
    hi = vm >> 16
    lo = vm & 0xFFFF
    em = np.asarray(e, dtype=np.int64) % p
    return ((em @ hi % p) * 65536 + em @ lo) % p
