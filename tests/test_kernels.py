"""The modular elimination kernels."""

import numpy as np
import pytest

from tradekernel import kernels

P = 2_147_483_629


def rng_matrix(rng, rows, cols, p):
    return (rng.integers(0, p, size=(rows, cols))).astype(np.int64)


def test_modp_matvec_matches_exact():
    rng = np.random.default_rng(5)
    e = rng_matrix(rng, 6, 7, P)
    v = rng_matrix(rng, 7, 1, P).ravel()
    got = kernels.modp_matvec(e, v, P)
    want = np.array(
        [sum(int(a) * int(b) for a, b in zip(row, v)) % P for row in e], dtype=np.int64
    )
    assert np.array_equal(got, want)


def test_rref_property_exactness():
    # E A = [I; 0] on the pivots, checked through the public rref
    rng = np.random.default_rng(23)
    a = rng_matrix(rng, 8, 8, P)
    m, piv = kernels.modp_rref(np.hstack([a, np.eye(8, dtype=np.int64)]), P)
    e = m[:, 8:]
    prod = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        for j in range(8):
            prod[i, j] = sum(int(x) * int(y) for x, y in zip(e[i], a[:, j])) % P
    want = np.eye(8, dtype=np.int64)
    if list(piv[:8]) == list(range(8)):
        assert np.array_equal(prod, want)


def test_search_budget_is_explicit_or_default(monkeypatch):
    # the environment has no say: --budget is the one way to set a budget
    monkeypatch.setenv("TRADE_KERNEL_BUDGET", "5")
    assert kernels.search_budget() == kernels.DEFAULT_SEARCH_BUDGET
    assert kernels.search_budget(7) == 7
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"at least 1, got {bad}$"):
            kernels.search_budget(bad)
