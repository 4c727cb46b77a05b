from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import kernels
from speclab.intutil import nth_root
from speclab.kernels import _purepy


def brute_points(coeffs, M, n, d, H):
    out = []
    for v in range(0, H + 1):
        for u in range(-H, H + 1):
            if v == 0:
                continue
            if gcd(u, v) != 1:
                continue
            val = d * sum(c * u**j * v ** (M - j) for j, c in enumerate(coeffs))
            if val == 0:
                continue
            y = nth_root(val, n)
            if y:
                out.append((y, u, v))
    return sorted(out)


CASES = [
    ([-2, 0, 0, 1, 0], 4, 2, 1, 40),  # y^2 = t^3 - 2, weighted quartic model
    ([-17, 0, 0, 0, 1], 4, 2, 2, 25),  # Lind
    ([1, 0, 1, 1], 3, 3, 1, 20),
    ([5, 1, 0, 0, 2, 0, 0, 0, 1], 8, 4, 3, 12),
]


@pytest.mark.parametrize("coeffs,M,n,d,H", CASES)
def test_backends_match_bruteforce(coeffs, M, n, d, H):
    # the backend chosen at import (see kernels.backend_name())
    got = kernels.search_pairs(coeffs, M, n, d, H)
    assert sorted(got) == brute_points(coeffs, M, n, d, H)


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=7),
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=-10, max_value=10).filter(lambda d: d != 0),
)
@settings(max_examples=40, deadline=None)
def test_backends_agree_randomized(coeffs, n, d):
    M = len(coeffs) - 1
    got = kernels.search_pairs(coeffs, M, n, d, 15)
    assert sorted(got) == brute_points(coeffs, M, n, d, 15)


def test_fastcore_survivors_match_purepy():
    fastcore = pytest.importorskip(
        "speclab.kernels._fastcore",
        reason="compiled module speclab.kernels._fastcore is not built",
    )
    for coeffs, M, n, d, H in CASES:
        tables = kernels._residue_tables(coeffs, M, n, d, kernels._select_primes(n, d))
        np.testing.assert_array_equal(
            fastcore.survivors(tables, H), _purepy.survivors(tables, H)
        )


def test_points_verified_exactly():
    coeffs = [-2, 0, 0, 1, 0]
    for y, u, v in kernels.search_pairs(coeffs, 4, 2, 1, 60):
        assert y**2 == sum(c * u**j * v ** (4 - j) for j, c in enumerate(coeffs))
        assert gcd(u, v) == 1 and v >= 1 and y > 0


def test_max_points_cap():
    coeffs = [-2, 0, 0, 1, 0]
    got = kernels.search_pairs(coeffs, 4, 2, 1, 200, max_points=1)
    assert len(got) == 1


def test_backend_names():
    names = kernels.available_backends()
    assert "purepy" in names
