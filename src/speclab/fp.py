"""Arithmetic modulo a prime p: polynomials over F_p, their distinct-degree
and equal-degree splitting, the Hensel lift of a factorisation to Z/p^k, root
tests one prime at a time and over many primes at once, and power-residue
classes.

A polynomial over F_p is a list of coefficients in [0, p), low degree first,
with no trailing zeros; [] is the zero polynomial. `reduce` makes one from
integer coefficients. root_count and _rootless_primes take an IntPolynomial
(they read its coeffs, content and degree). _add, _sub, _mul and _quo_rem
work modulo any m > 1, as long as the divisor of _quo_rem has a leading
coefficient prime to m. The module imports nothing else from speclab, so
speclab.poly can build on it.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .poly import IntPolynomial

__all__ = [
    "reduce",
    "gcd",
    "hensel_lift",
    "root_count",
    "double_root",
    "power_class",
]


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def reduce(coeffs, p: int) -> list[int]:
    """Integer coefficients (low degree first) as a polynomial over F_p."""
    return _trim([c % p for c in coeffs])


def _add(a, b, p):
    return _trim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _sub(a, b, p):
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _quo_rem(a, b, p):
    """(quotient, remainder) of a by a nonzero b."""
    a = a[:]
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _trim(q), _trim(a)


def gcd(a, b, p):
    """Monic gcd; [] when both are zero."""
    while b:
        a, b = b, _quo_rem(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _xgcd(a, b, p):
    """(s, t) with s a + t b = 1 for coprime nonzero a, b, and deg s < deg b,
    deg t < deg a when both are nonconstant (extended Euclid)."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _quo_rem(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("a and b are not coprime")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _pow_mod(a, e, mod, p):
    """a^e modulo the polynomial mod."""
    r = [1]
    a = _quo_rem(a, mod, p)[1]
    while e:
        if e & 1:
            r = _quo_rem(_mul(r, a, p), mod, p)[1]
        a = _quo_rem(_mul(a, a, p), mod, p)[1]
        e >>= 1
    return r


def _deriv(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


# ---------------------------------------------------------------------------
# Splitting a squarefree polynomial: distinct-degree, then equal-degree
# (Cantor-Zassenhaus; von zur Gathen-Gerhard, Modern Computer Algebra, ch. 14)


def _ddf(a, p):
    """Distinct-degree factorization of squarefree monic a: [(product, d)]."""
    out = []
    h = [0, 1]
    v = a[:]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, v, p)
        g = gcd(_add(h, [0, p - 1], p), v, p)  # gcd(x^(p^d) - x, v)
        if len(g) > 1:
            out.append((g, d))
            v = _quo_rem(v, g, p)[0]
            h = _quo_rem(h, v, p)[1]
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


def _edf(a, d, p, rng):
    """Equal-degree splitting (Cantor-Zassenhaus) of squarefree monic a whose
    irreducible factors all have degree d, for an odd prime p; the random
    polynomials are drawn from rng."""
    n = len(a) - 1
    if n == d:
        return [a]
    while True:
        r = _trim([rng.randrange(p) for _ in range(n)] + [1])
        t = _pow_mod(r, (p**d - 1) // 2, a, p)
        g = gcd(_add(t, [p - 1], p), a, p)
        if 1 < len(g) < len(a):
            b = _quo_rem(a, g, p)[0]
            return _edf(g, d, p, rng) + _edf(b, d, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting (von zur Gathen-Gerhard, Modern Computer Algebra, 15.4)


def _hensel_step(f, g, h, s, t, m):
    """One step of Algorithm 15.10: from f = g h and s g + t h = 1 modulo some
    m0 with m | m0^2, with h monic, deg s < deg h and deg t < deg g, the
    same four relations modulo m."""
    e = _sub(f, _mul(g, h, m), m)
    q, r = _quo_rem(_mul(s, e, m), h, m)
    g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
    h = _add(h, r, m)
    b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
    c, d = _quo_rem(_mul(s, b, m), h, m)
    return g, h, _sub(s, d, m), _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)


def hensel_lift(f, factors, p: int, pk: int) -> list[list[int]]:
    """Lift f = lc(f) * prod(factors) mod p to Z/pk, pk a power of p.

    f: integer coefficients (low degree first) with p not dividing lc(f);
    factors: pairwise coprime monic polynomials over F_p whose product times
    lc(f) is f mod p. Returns the unique monic u_i mod pk with u_i = factors[i]
    mod p and f = lc(f) * prod(u_i) mod pk, by a binary tree of quadratic
    Hensel steps (Algorithm 15.17)."""
    f = _trim([c % pk for c in f])
    if len(factors) == 1:
        inv = pow(f[-1], -1, pk)
        return [[c * inv % pk for c in f]]
    k = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:k]:
        g = _mul(g, u, p)
    h = [1]
    for u in factors[k:]:
        h = _mul(h, u, p)
    s, t = _xgcd(g, h, p)
    m = p
    while m < pk:
        m = min(m * m, pk)
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
    return hensel_lift(g, factors[:k], p, pk) + hensel_lift(h, factors[k:], p, pk)


# ---------------------------------------------------------------------------
# Roots


# Largest prime at which root_count evaluates R at every residue; above it,
# gcd(x^p - x, R) is cheaper.
_BRUTE_ROOT_P = 4096


def root_count(R: IntPolynomial, p: int) -> int:
    """Number of distinct roots of R in F_p. Assumes p prime; raises
    ValueError if R vanishes mod p. For p <= _BRUTE_ROOT_P, one numpy Horner
    pass over all residues; above it, deg gcd(x^p - x, R), since x^p - x is
    the product of x - r over all r in F_p."""
    a = reduce(R.coeffs, p)
    if not a:
        raise ValueError("R vanishes mod p")
    if len(a) == 1:
        return 0
    if p <= _BRUTE_ROOT_P:
        t = np.arange(p, dtype=np.int64)
        acc = np.full(p, a[-1], dtype=np.int64)
        bound = p - 1  # on acc; reduce mod p before a step could pass 2^62
        for c in reversed(a[:-1]):
            if bound * p >= 1 << 62:
                np.remainder(acc, p, out=acc)
                bound = p - 1
            acc *= t
            acc += c
            bound = bound * (p - 1) + c
        return p - int(np.count_nonzero(np.remainder(acc, p, out=acc)))
    xp_x = _add(_pow_mod([0, 1], p, a, p), [0, p - 1], p)  # x^p - x mod a
    return len(gcd(xp_x, a, p)) - 1


def _rootless_primes(R: IntPolynomial, primes: list[int]) -> list[int]:
    """The primes of the list (distinct) mod which R has no root, in list
    order: those where root_count is 0, with its ValueError if R vanishes
    mod one of them.

    Take a prime p > D = deg R that does not divide lc(R). The trace of the
    F_p-linear map a -> a^p on F_p[T]/(R) is the number of distinct roots of
    R in F_p, read mod p: on the local factor of an irreducible f^e,
    Frobenius induces zero on m^j / m^(j+1) for j >= 1, the identity on a
    residue field F_p, and a cyclic shift of a normal basis of a larger
    one. As that number is at most D < p, R is rootless mod p exactly when
    the trace is 0 mod p (_frobenius_traces computes it for all such primes
    at once). Primes p <= D (T^3 - T has 3 roots mod 3), primes dividing
    lc(R) and primes above the float64 bound of _frobenius_traces go to
    root_count."""
    content = R.content
    if content != 1 and any(content % p == 0 for p in primes):
        raise ValueError("R vanishes mod p")
    D = R.degree
    if D <= 0:
        return list(primes)  # a nonzero constant mod every prime of the list
    limit = _trace_prime_limit(D)
    ps = np.array([p for p in primes if D < p <= limit], dtype=np.int64)
    # R mod each p; a coefficient beyond int64 is reduced prime by prime
    c = np.array(
        [np.remainder(a, ps) if abs(a) < 1 << 62 else [a % p for p in ps.tolist()]
         for a in R.coeffs],
        dtype=np.int64,
    ).reshape(D + 1, ps.size)
    unit = c[D] != 0
    ps, c = ps[unit], c[:, unit]
    # R / lc mod p is monic; lc^-1 = lc^(p - 2), products below p^2 < 2^53
    inv = np.ones_like(ps)
    base, e = c[D], ps - 2
    while e.any():
        inv = np.where(e & 1, inv * base % ps, inv)
        base = base * base % ps
        e >>= 1
    traces = _frobenius_traces(c[:D] * inv % ps, ps)
    fast = dict(zip(ps.tolist(), (traces == 0).tolist()))
    return [p for p in primes if (fast[p] if p in fast else root_count(R, p) == 0)]


def _trace_prime_limit(D: int) -> int:
    """The largest p with 4 D p^2 < 2^53, the bound _frobenius_traces needs."""
    return math.isqrt((2**53 - 1) // (4 * D))


def _frobenius_traces(r: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """For each column k, Tr(a -> a^p) mod p on F_p[T]/(M) with p = ps[k] and
    M = T^D + r[D-1, k] T^(D-1) + ... + r[0, k]. r holds residues in [0, p),
    and every prime is at most _trace_prime_limit(D).

    Residue classes mod M are (D, n) float64 arrays, the primes along the
    contiguous axis. A = T^p mod M comes from a left-to-right binary ladder
    over the bits of the primes, and the trace is sum_i [T^i] A^i. Values
    are reduced lazily as c - floor(c / p) p, which leaves them in
    (-p, 2p): a product of two classes sums at most D terms below 4 p^2, and
    folding its reduced high half back with the table of T^(D + j) mod M
    sums at most D terms below 2 p^2, so every intermediate is an integer
    below 4 D p^2 < 2^53 and all arithmetic is exact."""
    D, n = r.shape
    pf = ps.astype(np.float64)
    inv = 1.0 / pf

    def lazy_reduce(c):
        c -= np.floor(c * inv) * pf
        return c

    # fold[j] = T^(D + j) mod M in [0, p), for j < D
    fold = np.empty((D, D, n), dtype=np.int64)
    fold[0] = (ps - r) % ps
    for j in range(1, D):
        fold[j, 0] = 0
        fold[j, 1:] = fold[j - 1, :-1]
        fold[j] += fold[j - 1, -1] * fold[0]
        fold[j] %= ps
    fold = fold.astype(np.float64)

    def mul(a, b):
        full = np.zeros((2 * D - 1, n))
        for i in range(D):
            full[i : i + D] += a[i] * b
        lazy_reduce(full)
        out = full[:D]
        for j in range(D - 1):
            out += full[D + j] * fold[j]
        return lazy_reduce(out)

    def times_T(a):
        out = np.empty_like(a)
        out[0] = 0
        out[1:] = a[:-1]
        out += a[-1] * fold[0]
        return lazy_reduce(out)

    A = np.zeros((D, n))
    A[0] = 1
    bits = int(ps.max(initial=0)).bit_length()
    for b in range(bits - 1, -1, -1):
        A = mul(A, A)
        A = np.where(((ps >> b) & 1).astype(bool), times_T(A), A)
    trace = np.ones(n)
    power = A
    for i in range(1, D):
        trace += power[i]
        if i + 1 < D:
            power = mul(power, A)
    return np.remainder(trace, pf).astype(np.int64)


def double_root(coeffs, p: int) -> int:
    """The multiple root in F_p of a polynomial of degree 2 or 3 mod p (given
    by integer coefficients, low degree first) that has one; it is
    F_p-rational."""
    a = reduce(coeffs, p)
    da = _deriv(a, p)
    if p <= 3:
        # gcd(f, f') can exceed the multiple part in characteristic 2 and 3
        return next(
            r for r in range(p)
            if all(sum(c * r**i for i, c in enumerate(f)) % p == 0 for f in (a, da))
        )
    g = gcd(a, da, p)
    if len(g) == 2:
        return -g[0] % p
    return -g[1] * pow(2, -1, p) % p  # g = (x - r)^2: a triple root


# ---------------------------------------------------------------------------
# Power residues


def power_class(a: int, p: int, n: int) -> int:
    """Key of the class of a in F_p^*/(F_p^*)^n: a^((p-1)/gcd(n, p-1)) mod p,
    which is 1 exactly on the n-th powers. 0 when p divides a."""
    return pow(a % p, (p - 1) // math.gcd(n, p - 1), p)
