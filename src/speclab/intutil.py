"""Exact integer arithmetic: valuations, radicals, n-free parts, power residues.

All functions are deterministic and exact. Integers are arbitrary-precision
Python ints; rationals are fractions.Fraction. Randomized subroutines
(Miller-Rabin, Brent rho) draw from a PRNG seeded per call, so results are
reproducible and independent of global random state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np

__all__ = [
    "valuation",
    "is_probable_prime",
    "factorize",
    "radical",
    "nfree_part",
    "is_nfree",
    "nfree_sieve",
    "nfree_table",
    "squarefree_part",
    "is_nth_power",
    "nth_root",
    "ValuationProfile",
    "bm_decomposition",
    "legendre",
    "quad_disc",
    "primes_up_to",
]

_TRIAL_BOUND = 1024


class ConsistencyError(AssertionError):
    """Two independent routes to the same fact disagreed. Defined here, in
    the lowest module, so that every module can raise it; speclab.poly,
    speclab.covers and speclab.twists export it."""


def primes_up_to(bound: int) -> list[int]:
    """Primes <= bound by a byte sieve."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, bound + 1) if sieve[i]]


_SMALL_PRIMES = primes_up_to(_TRIAL_BOUND)


def valuation(n: int | Fraction, p: int) -> int:
    """p-adic valuation. Raises on n == 0 (valuation is infinite)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if type(n) is not int and isinstance(n, Fraction):  # plain ints skip the ABC check
        return valuation(n.numerator, p) - valuation(n.denominator, p)
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with deterministic small bases plus 64 random rounds
    seeded by n.

    Deterministic (correct, not merely probable) below 3.3*10^24 via the known
    base set; beyond that the error probability is <= 4^-64.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    if n >= 3317044064679887385961981:
        rng = random.Random(f"0,{n}")
        bases += [rng.randrange(2, n - 1) for _ in range(64)]
    return not any(witness(a) for a in bases)


def _brent_rho(n: int, seed: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(f"{seed},{n}")
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: e}. n must be nonzero; units give {}.

    Trial division by the primes up to _TRIAL_BOUND = 2^10 first. What is
    left has no prime factor below 2^10, so a cofactor below 2^20 is prime;
    a larger one is tested with is_probable_prime, and composites are split
    by Brent's rho (perfect squares by isqrt) until every part passes it.
    The result is exact below 3.3*10^24, where the Miller-Rabin base set is
    deterministic; above, each prime factor carries that test's error bound.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            out[p] = v
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        d = _brent_rho(m, seed=len(stack))
        stack += [d, m // d]
    return out


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; always positive. rad(+-1)=1."""
    return prod(factorize(n))


def nfree_part(n: int, k: int) -> int:
    """n divided by its largest k-th power divisor. Carries the sign of n."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n == 0:
        raise ValueError("0 has no k-free part")
    sign = -1 if n < 0 else 1
    core = 1
    for p, e in factorize(n).items():
        core *= p ** (e % k)
    return sign * core


def squarefree_part(n: int) -> int:
    return nfree_part(n, 2)


def is_nfree(n: int, k: int) -> bool:
    """True when no prime p has p^k | n. 0 is not k-free by convention;
    the units +1 and -1 are."""
    if n == 0:
        return False
    if abs(n) == 1:
        return True
    return all(e < k for e in factorize(n).values())


def nfree_sieve(k: int, x: int) -> list[int]:
    """All k-free d with |d| <= x, both signs, excluding 0 and +1.

    These are exactly the twisting integers: -1 is included, 1 is the trivial
    twist and is excluded. Sorted ascending.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if x < 1:
        return []
    pos = np.flatnonzero(nfree_table(x, k)).tolist()  # 1, 2, 3, 5, ...
    return [-d for d in reversed(pos)] + pos[1:]


def nfree_table(x: int, k: int) -> np.ndarray:
    """free[g] is True when g is k-free, for 0 <= g <= x (0 is not)."""
    free = np.ones(x + 1, dtype=bool)
    free[0] = False
    for p in primes_up_to(isqrt(x)):
        free[p**k :: p**k] = False
    return free


def is_nth_power(n: int, k: int) -> bool:
    """Exact test for n being a perfect k-th power of an integer."""
    return nth_root(n, k) is not None


def nth_root(n: int, k: int) -> int | None:
    """Integer y with y^k == n, or None. For even k only y >= 0 is returned."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0 and k % 2 == 0:
        return None
    m = abs(n)
    if k == 1 or m < 2:
        return n
    if k == 2:
        y = isqrt(m)
    else:
        # Integer Newton from above: 2^ceil(bits/k) > m^(1/k), and each step
        # stays >= floor(m^(1/k)) while it decreases, so it stops at the floor.
        y = 1 << -(-m.bit_length() // k)
        while True:
            z = ((k - 1) * y + m // y ** (k - 1)) // k
            if z >= y:
                break
            y = z
    if y**k != m:
        return None
    return -y if n < 0 else y


@dataclass(frozen=True)
class ValuationProfile:
    """Decomposition of |n| by valuation bands: n = +-prod_m B_m where B_m is
    the product of p^v over primes with v_p(n) = m."""

    value: int
    bands: dict[int, int]  # m -> B_m (only m with B_m != 1)

    def band(self, m: int) -> int:
        return self.bands.get(m, 1)

    def band_at_least(self, q0: int) -> int:
        return prod(b for m, b in self.bands.items() if m >= q0)


def bm_decomposition(n: int, q0: int = 2) -> ValuationProfile:
    """Valuation-band decomposition of n with the radical bound checked.

    Verifies rad(n) <= |n| / B_{>=q0}^((q0-1)/q0) ... concretely the exact
    integer form: rad(n)^q0 * B_{>=q0}^(q0-1) <= |n|^q0, which holds because
    every prime in a band m >= q0 contributes p to the radical but p^m >= p^q0
    to |n|.
    """
    if n == 0:
        raise ValueError("cannot decompose 0")
    if q0 < 2:
        raise ValueError("q0 must be >= 2")
    fac = factorize(n)
    bands: dict[int, int] = {}
    for p, e in fac.items():
        bands[e] = bands.get(e, 1) * p**e
    prof = ValuationProfile(value=n, bands=bands)
    rad = prod(fac)
    bq = prof.band_at_least(q0)
    if rad**q0 * bq ** (q0 - 1) > abs(n) ** q0:
        raise ConsistencyError(f"radical bound fails for {n} at q0 = {q0}")
    return prof


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p; values in {-1, 0, 1}."""
    if p == 2 or not is_probable_prime(p):
        raise ValueError("p must be an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def quad_disc(m: int) -> int:
    """Discriminant of Q(sqrt m) for squarefree m != 1; m is not checked."""
    return m if m % 4 == 1 else 4 * m
