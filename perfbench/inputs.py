"""Inputs, fixed by the workload seed and a pass index.

The hill-climb seeds and the catalogue of integral 4CS(9) pairs are the
exception: they are the same for every workload seed (search_seeds,
make_pairs.py). Where the package helps build an input, such as a
relabelled 4CS(9), the operation under test still receives only the
generated files or objects.
"""

import json
import random

from machine import BENCH
from verify import rank_exact

def rng_for(seed, workload, part):
    """The random stream of one part of a run: its inputs ("jobs") or a pass's order (its index)."""
    return random.Random(f"{seed}:{workload}:{part}")


def search_seeds(count):
    """Hill-climb seeds: the first `count` of one fixed stream, in every pass of every run.

    Time to a solution is heavy-tailed in the seed. An n=17 restart
    usually takes 0.2-0.7 s, but its shuffled cover search took 2.1 s and
    30.6 s on two of some eighty seeds tried, and a run that drew such a
    seed took more than twice as long as one that did not. So the searches
    are the same in every pass and every run, and the workload seed only
    orders them; the heavy tail itself is not sampled (see README.md).
    """
    rng = random.Random("search-seeds")
    return [rng.randrange(2**31) for _ in range(count)]


def catalogue():
    """Relabellings of find_cycle_system(9) that give integral, lambda-1 pairs (make_pairs.py)."""
    with open(BENCH / "pairs9.json", encoding="utf-8") as fh:
        return [p["perm"] for p in json.load(fh)["pairs"]]


def permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(cycles_mod, cs, perm):
    return cycles_mod.CycleSystem(
        cs.n, [cycles_mod.canonical_cycle([perm[v] for v in c]) for c in cs.cycles]
    )


def latin_square(rng, n):
    """A random isotope of the cyclic group table: rows, columns and symbols permuted."""
    r, c, s = permutation(rng, n), permutation(rng, n), permutation(rng, n)
    return [[s[(r[i] + c[j]) % n] for j in range(n)] for i in range(n)]


def int_matrix(rng, rows, cols, density=0.35, lo=-3, hi=3):
    return [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]


def lattice_pair(rng, rows, cols, equal):
    """Two generating sets of one lattice (unimodular row operations), or of a sublattice.

    The sublattice doubles the first row of a full-rank generator set, so
    it has index 2 and the lattices differ.
    """
    while True:
        a = int_matrix(rng, rows, cols, density=0.6)
        if _full_rank(a):
            break
    b = [row[:] for row in a]
    if equal:
        for _ in range(3 * rows):
            i, j = rng.sample(range(rows), 2)
            f = rng.choice((-2, -1, 1, 2))
            b[i] = [x + f * y for x, y in zip(b[i], b[j])]
        rng.shuffle(b)
    else:
        b[0] = [2 * x for x in b[0]]
    return a, b


def _full_rank(rows):
    return rank_exact(rows) == len(rows)


def dump_matrix(dense):
    rows, cols = len(dense), len(dense[0])
    lines = [f"dims {rows} {cols}"]
    lines += [f"{i} {j} {v}" for i, row in enumerate(dense) for j, v in enumerate(row) if v]
    return "\n".join(lines) + "\n"
