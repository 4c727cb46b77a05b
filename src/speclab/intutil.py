"""Exact integer arithmetic: valuations, n-free parts, power residues.

All functions are deterministic and exact. Integers are arbitrary-precision
Python ints; rationals are fractions.Fraction. Randomized subroutines
(Miller-Rabin, Brent rho) draw from a PRNG seeded per call, so results are
reproducible and independent of global random state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np

__all__ = [
    "valuation",
    "is_probable_prime",
    "factorize",
    "nfree_part",
    "is_nfree",
    "nfree_sieve",
    "nfree_table",
    "squarefree_part",
    "is_nth_power",
    "nth_root",
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
_PRIMORIAL = prod(_SMALL_PRIMES)


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


# (psi_k, k) for k the number of leading prime bases that make Miller-Rabin
# deterministic below psi_k, the least odd composite that is a strong
# probable prime to all k of them (OEIS A014233). psi_1 to psi_8 are from
# Jaeschke (Math. Comp. 61, 1993), psi_9 = psi_10 = psi_11 from Jiang and
# Deng (Math. Comp. 83, 2014), and psi_12 and psi_13 from Sorenson and
# Webster (Math. Comp. 86, 2017). psi_7 = psi_8, so 8, 10 and 11 bases never
# come first.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the fewest leading prime bases that are proved
    deterministic for n's size (see _MR_BOUNDS): 2, 3, 5 and 7 below
    3,215,031,751, all 13 primes up to 41 below 3.3*10^24. From there on it
    runs those 13 bases plus 64 random rounds seeded by n.

    Deterministic (correct, not merely probable) below 3.3*10^24; beyond that
    the error probability is <= 4^-64.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
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

    for bound, k in _MR_BOUNDS:
        if n < bound:
            return not any(witness(a) for a in _MR_BASES[:k])
    rng = random.Random(f"0,{n}")
    bases = [*_MR_BASES, *(rng.randrange(2, n - 1) for _ in range(64))]
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


def _small_prime_divisors(g: int) -> list[int]:
    """The primes of a positive squarefree g whose primes are all below 2^10,
    in increasing order; once p^2 exceeds what is left, that is a prime."""
    out = []
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            out.append(p)
            g //= p
    if g > 1:
        out.append(g)
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: e}. n must be nonzero; units give {}.

    First g = gcd(n, _PRIMORIAL), the product of the primes up to
    _TRIAL_BOUND = 2^10, picks out the small primes that divide n (by trial
    division of g, until p^2 exceeds what is left of g), and only they are
    divided out; g = 1 tries none. What is left has no prime factor below
    2^10, so a cofactor below 2^20 is prime; a larger one is tested with
    is_probable_prime, and composites are split by Brent's rho (perfect
    squares by isqrt) until every part passes it. The result is exact below
    3.3*10^24, where Miller-Rabin is deterministic; above, each prime factor
    carries that test's error bound.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _small_prime_divisors(gcd(n, _PRIMORIAL)):
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
    return _nfree_array(k, x).tolist()


def _nfree_array(k: int, x: int) -> np.ndarray:
    """nfree_sieve(k, x) as an int64 array."""
    if k < 2:
        raise ValueError("k must be >= 2")
    pos = np.flatnonzero(nfree_table(max(x, 0), k)).astype(np.int64)  # 1, 2, 3, 5, ...
    return np.concatenate([-pos[::-1], pos[1:]])


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


def quad_disc(m):
    """Discriminant of Q(sqrt m) for squarefree m != 1; m is not checked. m is
    an int (giving an int) or, elementwise, an int64 array: m when m = 1 mod
    4, else 4m, written without a branch."""
    return m * (4 - 3 * (m % 4 == 1))
