"""Deterministic selection of word-sized primes for modular arithmetic.

All modular codepaths in the package draw their primes from here so that
reruns are bit-identical. Primes are kept below 2**31 so that a product of
two residues fits comfortably in int64 and rank-one update eliminations
never overflow.
"""

import functools
import random

# Seed for the package-internal prime stream. Certificates and cached
# factorizations depend on it, so changing it invalidates frozen test values.
PRIME_SEED = 101

_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a witness set that is exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def sample_primes(count: int, seed: int = PRIME_SEED, lo: int = 2**30, hi: int = 2**31 - 1) -> tuple[int, ...]:
    """Return `count` distinct primes in [lo, hi], reproducibly for a seed.

    Cached: every decomposition draws the same primes.
    """
    rng = random.Random(seed)
    out: list[int] = []
    seen: set[int] = set()
    while len(out) < count:
        c = rng.randrange(lo | 1, hi, 2)
        if c in seen:
            continue
        seen.add(c)
        if is_probable_prime(c):
            out.append(c)
    return tuple(out)


def default_primes(count: int = 3) -> tuple[int, ...]:
    """The package's standard prime list (seeded, stable across runs)."""
    return sample_primes(count)
