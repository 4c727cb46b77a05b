import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.intutil import (
    ValuationProfile,
    bm_decomposition,
    factorize,
    is_nfree,
    is_nth_power,
    is_probable_prime,
    legendre,
    nfree_part,
    nfree_sieve,
    nth_root,
    primes_up_to,
    radical,
    squarefree_part,
    valuation,
)

nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0)


def test_valuation_basic():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(-8, 2) == 3
    assert valuation(Fraction(3, 4), 2) == -2
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_primes_and_primality():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    small = set(primes_up_to(2000))
    for n in range(2, 2000):
        assert is_probable_prime(n) == (n in small)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)


@given(nonzero)
def test_factorize_roundtrip(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_probable_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == abs(n)


def test_radical_and_parts():
    assert radical(360) == 30
    assert squarefree_part(18) == 2
    assert squarefree_part(-18) == -2
    assert nfree_part(2**7 * 3**3, 3) == 2 * 1  # 2^(7 mod 3) * 3^0
    assert squarefree_part(1) == 1


@given(nonzero, st.integers(min_value=2, max_value=5))
def test_nfree_part_is_nfree(n, k):
    core = nfree_part(n, k)
    assert is_nfree(core, k)
    # quotient n / core is a k-th power up to sign conventions
    q = abs(n) // abs(core) if abs(n) % abs(core) == 0 else None
    assert q is not None and is_nth_power(q, k)


def test_nfree_sieve_oracle():
    # frozen by direct per-integer checking
    assert len(nfree_sieve(2, 10**4)) == 12165
    got = nfree_sieve(2, 50)
    brute = [d for d in range(-50, 51) if d not in (0, 1) and is_nfree(d, 2)]
    assert sorted(got) == sorted(brute)
    assert -1 in got and 1 not in got and 0 not in got


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_nth_root_roundtrip(n, k):
    r = nth_root(n, k)
    if r is not None:
        assert r**k == n
        assert is_nth_power(n, k)
    else:
        assert not is_nth_power(n, k)


def test_nth_root_negative_odd():
    assert nth_root(-27, 3) == -3
    assert nth_root(-4, 2) is None


@given(nonzero, st.integers(min_value=2, max_value=4))
def test_bm_decomposition_identity(n, q0):
    prof = bm_decomposition(n, q0)
    assert isinstance(prof, ValuationProfile)
    prod = 1
    for m, b in prof.bands.items():
        prod *= b
        for p in factorize(b):
            assert valuation(n, p) == m
    assert prod == abs(n)
    # the radical bound used by the exponent arguments, in exact integer form
    assert radical(n) ** q0 * prof.band_at_least(q0) ** (q0 - 1) <= abs(n) ** q0


def test_legendre_against_squares():
    for p in (3, 5, 7, 11, 13):
        squares = {pow(x, 2, p) for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)
        assert legendre(p, p) == 0


def old_nth_root(n, k):
    """nth_root by bisection, as it was before isqrt and Newton; the oracle."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        if k % 2 == 0:
            return None
        y = old_nth_root(-n, k)
        return None if y is None else -y
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**k == n else None


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=1 << (400 // k)))
    ),
    st.sampled_from([-1, 0, 1]),
    st.booleans(),
)
@settings(max_examples=500)
def test_nth_root_matches_bisection_near_powers(k_y, offset, negate):
    k, y = k_y
    n = y**k + offset
    if negate:
        n = -n
    assert nth_root(n, k) == old_nth_root(n, k)


@given(st.integers(min_value=-(2**400), max_value=2**400), st.integers(min_value=1, max_value=40))
@settings(max_examples=300)
def test_nth_root_matches_bisection(n, k):
    assert nth_root(n, k) == old_nth_root(n, k)
