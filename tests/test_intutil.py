import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import intutil
from speclab.intutil import (
    factorize,
    is_nfree,
    is_nth_power,
    is_probable_prime,
    nfree_part,
    nfree_sieve,
    nth_root,
    primes_up_to,
    quad_disc,
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


def reference_valuation(n, p):
    n, v = abs(int(n)), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(
    st.one_of(
        st.integers(min_value=-(2**200), max_value=2**200),
        st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
    ).filter(lambda n: n != 0),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200)
def test_valuation_matches_loop(n, p, k):
    m = n * p**k if type(n) is int else n  # numpy ints stay as drawn, below 2^63
    assert valuation(m, p) == reference_valuation(m, p)


def test_valuation_rejects_zero_and_small_p():
    for zero in (0, np.int64(0), Fraction(0)):
        with pytest.raises(ValueError):
            valuation(zero, 3)
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            valuation(12, p)
    assert valuation(True, 2) == 0 and valuation(np.int64(-48), 2) == 4


def test_primes_and_primality():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    bound = 2 * 10**6  # past psi_2 = 1373653, so the one- and two-base ranges are covered
    prime = bytearray(bound)
    for p in primes_up_to(bound - 1):
        prime[p] = 1
    assert [n for n in range(bound) if is_probable_prime(n) != prime[n]] == []
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)


# OEIS A014233: psi_k, the least odd composite that is a strong probable
# prime to each of the first k prime bases, k = 1..13
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
]


def strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


@pytest.mark.parametrize("k, n", enumerate(STRONG_PSEUDOPRIMES, start=1))
def test_a014233_pseudoprimes_are_rejected(k, n):
    assert all(strong_probable_prime(n, a) for a in primes_up_to(41)[:k])
    assert not is_probable_prime(n)
    assert factorize(n) == old_factorize(n) and len(factorize(n)) >= 2


@given(nonzero)
def test_factorize_roundtrip(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_probable_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == abs(n)


_OLD_TRIAL_PRIMES = []


def old_factorize(n):
    """factorize as it was: trial division by every prime up to
    min(sqrt(n), 10^6), a cofactor below 10^12 declared prime, Brent rho
    only after that. Kept as the oracle."""
    if not _OLD_TRIAL_PRIMES:
        _OLD_TRIAL_PRIMES.extend(primes_up_to(10**6))
    n = abs(n)
    out = {}
    for p in _OLD_TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    if n < 10**12 or is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        d = intutil._brent_rho(m, seed=len(stack))
        stack += [d, m // d]
    return out


# primes on both sides of the trial bound 2^10: 1021 is the last trial prime
EDGE_PRIMES = [2, 3, 1009, 1013, 1019, 1021, 1031, 1033, 1039]


def test_trial_bound_edges():
    assert intutil._TRIAL_BOUND == 1024 and max(intutil._SMALL_PRIMES) == 1021
    assert intutil._PRIMORIAL == math.prod(primes_up_to(1024))
    for n in (1021**2, 1031**2, 1031 * 1033, 1021 * 1031, 1024**2 - 1, 1024**2 + 1, 2**90 - 1):
        assert factorize(n) == old_factorize(n)


@pytest.mark.parametrize(
    "n",
    [
        2**40 * 1021**3,
        2**20,
        3**13 * 5**7 * 1019**2,
        1009 * 1013 * 1019 * 1021 * 1031 * 1033 * 1039,  # both sides of 1024
        1019 * 1021,  # below 2^20
        1013 * 1031,  # below 2^20
        1021 * 1031,  # just above 2^20
        1019 * 1031 * 2**21,
        1031**2 * 1021**2,
        2**20 - 3,  # prime
        2**20 - 1,
        2**20 + 1,
        2**20 + 7,  # prime
        1021 * 1031 * 1033 * 2**64 + 1021,
        math.prod(primes_up_to(1024)),
    ],
)
def test_factorize_around_the_primorial_route(n):
    assert factorize(n) == old_factorize(n)
    assert factorize(-n) == old_factorize(n)


@given(st.integers(2**20 - 2000, 2**20 + 2000))
@settings(max_examples=200, deadline=None)
def test_factorize_both_sides_of_2_20(n):
    assert factorize(n) == old_factorize(n)


@given(st.lists(st.sampled_from(EDGE_PRIMES), min_size=1, max_size=8), st.sampled_from([1, -1]))
@settings(max_examples=300, deadline=None)
def test_factorize_edge_products(ps, sign):
    n = sign * math.prod(ps)
    want = {p: ps.count(p) for p in ps}
    assert factorize(n) == want == old_factorize(n)


def primes_with_bits(lo, hi):
    return st.integers(2**lo, 2**hi).map(lambda n: next(m for m in range(n, 2 * n) if is_probable_prime(m)))


@given(primes_with_bits(10, 30), st.sampled_from([2, 3, 5]), st.integers(1, 2000))
@settings(max_examples=100, deadline=None)
def test_factorize_prime_powers(p, k, cofactor):
    n = cofactor * p**k
    assert factorize(n) == old_factorize(n)
    assert factorize(n)[p] >= k


@given(primes_with_bits(20, 40), primes_with_bits(20, 40))
@settings(max_examples=30, deadline=None)
def test_factorize_semiprimes(p, q):
    want = {p: 2} if p == q else {p: 1, q: 1}
    assert factorize(p * q) == want == old_factorize(p * q)


@given(st.integers(1, 2**90))
@settings(max_examples=100, deadline=None)
def test_factorize_matches_trial_division(n):
    assert factorize(n) == old_factorize(n)


def test_radical_and_parts():
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


@given(st.sampled_from([2, 3, 4, 5]), st.integers(0, 3000))
@settings(max_examples=40, deadline=None)
def test_nfree_sieve_every_k(k, x):
    want = [d for d in range(-x, x + 1) if d not in (0, 1) and is_nfree(d, k)]
    assert nfree_sieve(k, x) == want
    assert intutil.nfree_table(x, k).tolist() == [is_nfree(g, k) for g in range(x + 1)]


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


@given(st.lists(st.integers(-(2**40), 2**40), max_size=30))
def test_quad_disc_on_ints_and_int64_arrays(ms):
    """m when m = 1 mod 4, else 4m: an int gives an int (reports write it
    to JSON), and an int64 array gives that rule at every element."""
    want = [m if m % 4 == 1 else 4 * m for m in ms]
    assert [quad_disc(m) for m in ms] == want
    assert all(type(quad_disc(m)) is int for m in ms)
    arr = quad_disc(np.array(ms, dtype=np.int64))
    assert arr.dtype == np.int64 and arr.tolist() == want
