"""Covers of the projective line over Q and their specializations.

Two families are modeled exactly: quadratic covers y^2 = P(t) and cubic covers
P(t, y) = y^3 + a2(t) y^2 + a1(t) y + a0(t), monic in y. Branch points,
ramification indices (via Newton polygons over the branch point's field),
specialization fields with exact discriminants, and the unramified-prime
sieve all live here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb, gcd, lcm, prod

import numpy as np

from . import fp, kernels
from .intutil import (
    factorize,
    is_nfree,
    is_nth_power,
    is_probable_prime,
    nth_root,
    primes_up_to,
    quad_disc,
    valuation,
)
from .poly import (
    INFINITY,
    ConsistencyError,
    HomogPolynomial,
    IntPolynomial,
    ProjectivePoint,
    _bareiss_det,
    discriminant,
    factor_over_Q,
    format_poly,
    homogenize_minpoly,
    resultant,
)

__all__ = [
    "ConsistencyError",
    "QuadraticCover",
    "CubicCover",
    "SpecializationReport",
    "quad_cover",
    "quad_specialize",
    "cubic_specialize",
    "cubic_field_disc",
    "cubic_field_fingerprint",
    "s3_survey_predicates",
    "SurveyPredicates",
    "chebotarev_unramified_sieve",
    "verify_unramified",
]


# ---------------------------------------------------------------------------
# Arithmetic in a number field K = Q[x]/(m), just enough for Newton polygons.


def _reduced(nums, den: int) -> tuple:
    """The element sum nums[i] theta^i / den in lowest terms, den > 0."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple(n // g for n in nums), den // g


class _NF:
    """K = Q[x]/(m) for an irreducible integer polynomial m of degree d
    (coefficients low degree first; any leading coefficient).

    K is computed over the integral generator theta = L x, where L clears the
    denominators of m / lc(m): the minimal polynomial of theta,
    m_int(y) = L^d m(y / L) / lc(m), is monic with integer coefficients, so
    products reduce modulo it without division. An element is a pair
    (nums, den): sum nums[i] theta^i / den with integer nums, den > 0 and
    gcd(den, *nums) = 1, so equal elements are equal pairs."""

    def __init__(self, m: list[int]):
        d = len(m) - 1
        lc = m[-1]
        L = lcm(*(abs(lc) // gcd(c, lc) for c in m[:-1]))
        self.deg = d
        self.L = L
        self.m_int = [c * L ** (d - i) // lc for i, c in enumerate(m[:-1])]
        self.zero = ((0,) * d, 1)
        self.one = ((1,) + (0,) * (d - 1), 1)
        # x = theta / L; in degree 1, theta = -m_int[0]
        theta = (0, 1) + (0,) * (d - 2) if d > 1 else (-self.m_int[0],)
        self.gen = _reduced(theta, L)

    def elt(self, c: int):
        """The integer c as an element of K."""
        return (c,) + (0,) * (self.deg - 1), 1

    def add(self, a, b):
        (x, dx), (y, dy) = a, b
        if dx == dy:
            return _reduced([p + q for p, q in zip(x, y)], dx)
        return _reduced([p * dy + q * dx for p, q in zip(x, y)], dx * dy)

    def sub(self, a, b):
        (x, dx), (y, dy) = a, b
        if dx == dy:
            return _reduced([p - q for p, q in zip(x, y)], dx)
        return _reduced([p * dy - q * dx for p, q in zip(x, y)], dx * dy)

    def scal(self, c: int, a):
        x, dx = a
        return _reduced([c * p for p in x], dx)

    def mul(self, a, b):
        (x, dx), (y, dy) = a, b
        d = self.deg
        out = [0] * (2 * d - 1)
        for i, p in enumerate(x):
            if p:
                for j, q in enumerate(y):
                    out[i + j] += p * q
        m = self.m_int
        for k in range(2 * d - 2, d - 1, -1):
            c = out[k]
            if c:
                for j in range(d):
                    out[k - d + j] -= c * m[j]
        return _reduced(out[:d], dx * dy)

    def is_zero(self, a) -> bool:
        return not any(a[0])

    def inv(self, a):
        """a^-1 by Cramer's rule on the integer matrix M of multiplication by
        the numerator of a: M z = e_0 gives z = adj(M) e_0 / det(M)."""
        x, dx = a
        if not any(x):
            raise ZeroDivisionError("inverse of zero in a number field")
        d = self.deg
        m = self.m_int
        cols = [list(x)]  # coordinates of x theta^j
        for _ in range(d - 1):
            v = cols[-1]
            top = v[-1]
            cols.append([-top * m[0]] + [v[i - 1] - top * m[i] for i in range(1, d)])
        M = [list(row) for row in zip(*cols)]
        det = _bareiss_det(M)
        if det == 0:
            raise ZeroDivisionError("element not invertible (minpoly not irreducible?)")
        # entry i of adj(M) e_0 is the (0, i) cofactor of M
        adj = [
            (-1) ** i * _bareiss_det([row[:i] + row[i + 1 :] for row in M[1:]])
            for i in range(d)
        ]
        return _reduced([dx * c for c in adj], det)


def _kp_trim(K: _NF, a: list) -> list:
    while a and K.is_zero(a[-1]):
        a.pop()
    return a


def _kp_val(K: _NF, a: list) -> int | None:
    """s-valuation of a K[s] polynomial (None for 0)."""
    for i, c in enumerate(a):
        if not K.is_zero(c):
            return i
    return None


def _kp_mul(K: _NF, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not K.is_zero(x):
            for j, y in enumerate(b):
                out[i + j] = K.add(out[i + j], K.mul(x, y))
    return _kp_trim(K, out)


def _kp_add(K: _NF, a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [K.zero] * (n - len(a))
    b = b + [K.zero] * (n - len(b))
    return _kp_trim(K, [K.add(x, y) for x, y in zip(a, b)])


def _kp_shift(K: _NF, a: list, k: int) -> list:
    """Multiply by s^k (k >= 0)."""
    return [K.zero] * k + a if a else []


# Newton-polygon branch analysis. F is a list over Y-powers of K[s] polys.


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    pts = sorted(points)
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _k_poly_roots(K: _NF, phi: list) -> list[tuple[tuple, int]]:
    """Roots in K of a K-polynomial of degree <= 3 with their multiplicities.

    Only repeated roots must be found exactly (simple roots are merely
    counted); for degree <= 3 a repeated root is always K-rational, read off
    gcd(phi, phi'). Returns [(root, multiplicity)] for the K-rational
    repeated roots; the other roots are simple.
    """
    d = _kp_trim(K, [K.scal(i, c) for i, c in enumerate(phi)][1:])
    phi = _kp_trim(K, phi[:])
    g = _k_gcd(K, phi, d)
    deg_g = len(g) - 1
    if deg_g == 0:
        return []  # all roots simple
    if deg_g == 1:
        # single repeated root c = -g0/g1, multiplicity from phi
        c = K.mul(K.sub(K.zero, g[0]), K.inv(g[1]))
        return [(c, _root_multiplicity(K, phi, c))]
    if deg_g == 2:
        # phi = (x-c)^3 (deg phi 3): c from phi' ~ 3(x-c)^2: c = root of gcd
        # gcd itself is (x-c)^2 up to scalar: c = -g1/(2 g2)
        c = K.mul(K.sub(K.zero, g[1]), K.inv(K.scal(2, g[2])))
        mult = _root_multiplicity(K, phi, c)
        if mult < 2:
            raise NotImplementedError("repeated factor of degree >= 2")
        return [(c, mult)]
    raise NotImplementedError("residual degree > 3")


def _k_gcd(K: _NF, a: list, b: list) -> list:
    a, b = _kp_trim(K, a[:]), _kp_trim(K, b[:])
    while b:
        # a mod b
        r = a[:]
        inv = K.inv(b[-1])
        while len(r) >= len(b):
            c = K.mul(r[-1], inv)
            k = len(r) - len(b)
            for j in range(len(b)):
                r[k + j] = K.sub(r[k + j], K.mul(c, b[j]))
            r = _kp_trim(K, r)
            if not r:
                break
        a, b = b, r
    if a:
        inv = K.inv(a[-1])
        a = [K.mul(c, inv) for c in a]
    return a if a else [K.zero]


def _root_multiplicity(K: _NF, phi: list, c) -> int:
    m = 0
    cur = phi[:]
    while cur:
        val = K.zero
        for co in reversed(cur):
            val = K.add(K.mul(val, c), co)
        if not K.is_zero(val):
            break
        # synthetic division by (x - c)
        q = [K.zero] * (len(cur) - 1)
        acc = cur[-1]
        for i in range(len(cur) - 2, -1, -1):
            q[i] = acc
            acc = K.add(cur[i], K.mul(acc, c))
        cur = _kp_trim(K, q)
        m += 1
    return m


_MAX_PUISEUX_DEPTH = 64


def _branch_indices(K: _NF, F: list, only_positive: bool, depth: int = 0) -> list[int]:
    """Ramification indices of the places of F(s, Y) = 0 over s = 0.

    F: list over Y-powers of K[s] polynomials; separable in Y over K(s).
    With only_positive, only branches with val(y) > 0 are reported (used in
    recursion after recentering); otherwise every root of F is accounted for,
    so the returned indices sum to deg_Y F.
    """
    if depth > _MAX_PUISEUX_DEPTH:
        raise RuntimeError("Newton-Puiseux recursion too deep")
    F = [f[:] for f in F]
    while F and not F[-1]:
        F.pop()
    out: list[int] = []
    # strip an exact Y-factor: the branch y = 0, valuation +infinity
    if F and _kp_val(K, F[0]) is None:
        out.append(1)
        F = F[1:]
    pts = []
    for j, c in enumerate(F):
        v = _kp_val(K, c)
        if v is not None:
            pts.append((j, v))
    if len(pts) <= 1:
        return out
    hull = _lower_hull(pts)
    for (j1, v1), (j2, v2) in zip(hull, hull[1:]):
        # the root valuation is (v1 - v2) / ell, with denominator b
        ell = j2 - j1
        b = ell // gcd(v1 - v2, ell)
        if only_positive and v1 <= v2:
            continue
        if b > 1:
            if ell > b:
                # residual of degree > 1 with a fractional slope: cannot occur
                # for deg_Y <= 3, which is all this engine serves.
                raise NotImplementedError("wide fractional segment")
            out.append(b)
            continue
        # integer slope lam: residual polynomial of degree ell
        lam = (v1 - v2) // ell
        phi = [K.zero] * (ell + 1)
        for j, v in pts:
            if j1 <= j <= j2 and v == v1 - (j - j1) * lam:
                phi[j - j1] = F[j][v]
        rep = _k_poly_roots(K, phi)
        out.extend([1] * (ell - sum(m for _, m in rep)))
        for c, mult in rep:
            # recenter: y = s^lam (c + y'), isolate the mult continuing roots
            G = _recenter(K, F, lam, c)
            sub = _branch_indices(K, G, only_positive=True, depth=depth + 1)
            if sum(sub) != mult:
                raise AssertionError("branch recursion lost roots")
            out.extend(sub)
    return out


def _recenter(K: _NF, F: list, lam: int, c) -> list:
    """G(s, Y) ~ F(s, s^lam (c + Y)) cleared to K[s][Y]."""
    n = len(F) - 1
    # binomial expansion: coefficient of Y^m is sum_j F_j s^(j lam) C(j,m) c^(j-m)
    G: list[list] = [[] for _ in range(n + 1)]
    cpows = [K.one]
    for _ in range(n):
        cpows.append(K.mul(cpows[-1], c))
    shift = min(lam * j for j in range(n + 1)) if lam < 0 else 0
    for j, Fj in enumerate(F):
        if not Fj:
            continue
        for m in range(j + 1):
            coef = K.scal(comb(j, m), cpows[j - m])
            if K.is_zero(coef):
                continue
            term = [K.mul(x, coef) for x in Fj]
            term = _kp_shift(K, term, lam * j - shift)
            G[m] = _kp_add(K, G[m], term)
    return G


# ---------------------------------------------------------------------------
# Quadratic covers


@dataclass(frozen=True)
class QuadraticCover:
    """y^2 = P(t) with P separable of squarefree content."""

    P: IntPolynomial

    def __post_init__(self):
        if self.P.degree < 1:
            raise ValueError("P must be nonconstant")
        if not _squarefree_over_Q(self.P):
            raise ValueError("P must be separable")
        if not is_nfree(self.P.content, 2):
            raise ValueError("content of P must be squarefree")

    @property
    def degree(self) -> int:
        return self.P.degree

    @property
    def infinity_branched(self) -> bool:
        return self.P.degree % 2 == 1

    @property
    def branch_count(self) -> int:
        return self.P.degree + (1 if self.infinity_branched else 0)

    @property
    def group_order(self) -> int:
        return 2

    @cached_property
    def _factors(self) -> list[tuple[IntPolynomial, int]]:
        """factor_over_Q(P)[1], computed on first use; no part of repr,
        equality or hash."""
        return factor_over_Q(self.P)[1]

    def branch_orbits(self) -> list[tuple[HomogPolynomial, int]]:
        """(minimal binary form, ramification index) per Galois orbit. Each
        factor is primitive, irreducible and has positive leading
        coefficient, so its homogenisation is the orbit's minimal form."""
        out = [(HomogPolynomial.from_poly(f), 2) for f, _ in self._factors]
        if self.infinity_branched:
            out.append((homogenize_minpoly(INFINITY), 2))
        return out

    def hom_value(self, pt: ProjectivePoint) -> int:
        """P_hom(u, v) * v^(deg P mod 2): d with E_t0 = Q(sqrt d) up to squares."""
        form = HomogPolynomial.from_poly(self.P)
        val = form.eval_proj(pt)
        if self.P.degree % 2 == 1:
            val *= pt.v
        return val


def _squarefree_over_Q(p: IntPolynomial) -> bool:
    if p.degree < 1:
        return False
    return resultant(p, p.derivative()) != 0


def quad_cover(P: IntPolynomial) -> QuadraticCover:
    return QuadraticCover(P)


@dataclass(frozen=True)
class SpecializationReport:
    """Invariants of the residue field of a cover at a rational point."""

    kind: str  # "quadratic" | "cubic"
    t0: ProjectivePoint
    group: str  # "C1", "C2", "C3", "S3"
    m: int | None = None  # squarefree twist class (quadratic kind)
    d_K: int | None = None  # cubic subfield discriminant (cubic kind)
    d_k: int | None = None  # quadratic resolvent discriminant (S3)
    disc_field: int = 1  # discriminant of the specialization field (signed)
    ramified_primes: tuple[int, ...] = ()

    def inertia_order(self, p: int) -> int:
        """Order of (tame) inertia at p in the Galois group of the
        specialization; 1 when p is unramified."""
        if self.kind == "quadratic":
            return 2 if self.disc_field % p == 0 else 1
        if self.group in ("S3", "C3") and self.d_K is not None:
            v = valuation(self.d_K, p) if self.d_K % p == 0 else 0
            if v >= 2:
                return 3
            if v == 1:
                return 2
            if self.d_k is not None and self.d_k % p == 0:
                return 2
            return 1
        if self.group == "C2":
            return 2 if self.disc_field % p == 0 else 1
        return 1


def quad_specialize(cover: QuadraticCover, t0) -> SpecializationReport:
    """Residue field Q(sqrt(P(t0))) data. t0 may be rational or [1:0] when
    deg P is even. Branch points (P(t0) = 0, or infinity for odd degree) raise."""
    pt = t0 if isinstance(t0, ProjectivePoint) else ProjectivePoint.from_rational(t0)
    val = cover.hom_value(pt)
    if val == 0:
        raise ValueError(f"t0 = {pt} is a branch point")
    m, d, ram = _quad_field(val, factorize(val))
    if m == 1:
        return SpecializationReport("quadratic", pt, "C1", m=1, disc_field=1)
    return SpecializationReport(
        "quadratic", pt, "C2", m=m, disc_field=d, ramified_primes=ram
    )


def _quad_field(n: int, nfac: dict[int, int]) -> tuple[int, int, tuple[int, ...]]:
    """(m, d, primes of d) for Q(sqrt n) from nfac = factorize(n): m is the
    squarefree part of n and d the field discriminant, m or 4m."""
    odd = {p for p, e in nfac.items() if e % 2}
    m = (1 if n > 0 else -1) * prod(odd)
    if m == 1:
        return 1, 1, ()
    if m % 4 != 1:
        odd.add(2)
    return m, quad_disc(m), tuple(sorted(odd))


# ---------------------------------------------------------------------------
# Cubic covers


@dataclass(frozen=True)
class CubicCover:
    """P(t, y) = y^3 + a2(t) y^2 + a1(t) y + a0(t), separable over Q(t)."""

    a2: IntPolynomial
    a1: IntPolynomial
    a0: IntPolynomial
    delta: IntPolynomial = field(init=False)

    def __post_init__(self):
        a2, a1, a0 = self.a2, self.a1, self.a0
        # disc_Y of Y^3 + a2 Y^2 + a1 Y + a0, in closed form
        d = (
            a2 * a2 * a1 * a1 - 4 * a1 * a1 * a1 - 4 * a2 * a2 * a2 * a0
            - 27 * a0 * a0 + 18 * a2 * a1 * a0
        )
        if d.degree < 0:
            raise ValueError("cover is not separable over Q(t)")
        object.__setattr__(self, "delta", d)

    @property
    def coeff_degree(self) -> int:
        return max(self.a2.degree, self.a1.degree, self.a0.degree, 0)

    @cached_property
    def _factors(self) -> list[tuple[IntPolynomial, int]]:
        """factor_over_Q(delta)[1], computed on first use; no part of repr,
        equality or hash."""
        return factor_over_Q(self.delta)[1]

    def generic_group(self) -> str:
        """Galois group of the splitting field over Q(T): S3, C3, C2 or C1.

        An S3 witness (see _s3_witness) proves S3 without factorising;
        without one the bivariate route decides."""
        if _s3_witness(self) is not None:
            return "S3"
        return self._group_over_QT()

    def _group_over_QT(self) -> str:
        """The group from the factorisation of P(T, Y) over Q(T) and whether
        delta is a square in Q(T)."""
        if self._reducible_over_QT():
            # a Q(T)-root exists; quotient is the quadratic cofactor
            return "C1" if self._delta_is_square() else "C2"
        return "C3" if self._delta_is_square() else "S3"

    def _delta_is_square(self) -> bool:
        """delta = c * g^2 with every factor of even multiplicity; it is a
        square in Q(T) iff c, which has the sign of lc(delta) and absolute
        value content(delta), is a square."""
        if any(m % 2 for _, m in self._factors):
            return False
        return self.delta.lc > 0 and is_nth_power(self.delta.content, 2)

    @property
    def group_order(self) -> int:
        return {"S3": 6, "C3": 3, "C2": 2, "C1": 1}[self.generic_group()]

    def _reducible_over_QT(self) -> bool:
        """P has a root in Q(T). P is monic over the integrally closed Z[T],
        so such a root r lies in Z[T], and the leading terms of P(T, r) can
        cancel only if deg r <= max(deg a2, deg a1 / 2, deg a0 / 3). Then r(t)
        is an integer root of P(t, Y) at every integer t: interpolate each
        choice of those roots at deg r + 1 points and test it exactly."""
        a2, a1, a0 = self.a2, self.a1, self.a0
        e = max(a2.degree, a1.degree // 2, a0.degree // 3, 0)
        ts = list(range(e + 1))
        choices = []
        for t in ts:
            roots = _cubic_integer_roots(IntPolynomial([a0(t), a1(t), a2(t), 1]))
            if not roots:
                return False
            choices.append(roots)
        for values in product(*choices):
            r = _interpolate(ts, values)
            if r is not None and r * r * r + a2 * r * r + a1 * r + a0 == IntPolynomial([]):
                return True
        return False

    def cycle_type_at(self, tau) -> list[int]:
        """Cycle type of monodromy on the three sheets above tau; tau is a
        rational number, INFINITY, or an irreducible IntPolynomial minpoly."""
        if tau is INFINITY:
            K = _NF([0, 1])
            D = self.coeff_degree
            F = []
            for a in (self.a0, self.a1, self.a2):
                rev = a.reverse(D) if a.degree >= 0 else IntPolynomial([])
                F.append([K.elt(c) for c in rev.coeffs])
            F.append([K.zero] * D + [K.one])  # Y^3 coefficient s^D
            return sorted(_branch_indices(K, F, only_positive=False))
        if not isinstance(tau, IntPolynomial):
            tau = Fraction(tau)
            tau = IntPolynomial([-tau.numerator, tau.denominator])
        K = _NF(list(tau.coeffs))
        F = [_compose_shift(K, a, K.gen) for a in (self.a0, self.a1, self.a2)]
        F.append([K.one])
        return sorted(_branch_indices(K, F, only_positive=False))

    def branch_orbits(self) -> list[tuple[HomogPolynomial, int]]:
        """(minimal binary form, inertia order) per branch orbit, including
        infinity when it is branched. Roots of delta where the fiber merely
        degenerates without ramification (nodes) are excluded.

        Cross-check: at a root tau of a factor of delta of multiplicity m,
        m = v_tau(disc of the function field) + 2 v_tau(index), and the
        ramification is tame, so v_tau(disc) = sum(e_i - 1) over the cycle
        type; a parity mismatch raises ConsistencyError."""
        out = []
        for f, m in self._factors:
            ct = self.cycle_type_at(f)
            if (sum(ct) - len(ct) - m) % 2:
                raise ConsistencyError(
                    f"cycle type {ct} at a root of {format_poly(f)} has the wrong "
                    f"parity for multiplicity {m} in delta"
                )
            e = lcm(*ct)
            if e > 1:
                out.append((HomogPolynomial.from_poly(f), e))
        ct = self.cycle_type_at(INFINITY)
        e = lcm(*ct)
        if e > 1:
            out.append((homogenize_minpoly(INFINITY), e))
        return out

    @property
    def branch_count(self) -> int:
        r = 0
        for form, _ in self.branch_orbits():
            r += form.degree
        return r

    def specialized_cubic(self, pt: ProjectivePoint) -> IntPolynomial:
        """Monic integer cubic with root v^D * y(t0), t0 = u/v (v != 0)."""
        if pt.is_infinity:
            raise ValueError("cubic specialization at infinity is unsupported")
        D = self.coeff_degree
        u, v = pt.u, pt.v
        A = []
        for i, a in enumerate((self.a0, self.a1, self.a2)):
            if a.degree < 0:
                A.append(0)
                continue
            hom = HomogPolynomial.from_poly(a, D)
            A.append(hom.eval_proj(pt) * v ** ((2 - i) * D))
        return IntPolynomial([A[0], A[1], A[2], 1])


def _compose_shift(K: _NF, a: IntPolynomial, tau) -> list:
    """a(tau + s) as a K[s] polynomial."""
    if a.degree < 0:
        return []
    # Horner in (tau + s)
    out: list = []
    lin = [tau, K.one]  # tau + s
    for c in reversed(a.coeffs):
        out = _kp_mul(K, out, lin) if out else []
        out = _kp_add(K, out, [K.elt(c)])
    return out


def cubic_field_disc(f: IntPolynomial) -> int:
    """Field discriminant of Q[x]/(f) for an irreducible monic integer cubic.

    Primary route: Z[x]/(f) is the ring of the binary cubic form
    (1, a2, a1, a0) (Delone-Faddeev), and at every p with p^2 | disc(f) its
    p-index comes from the p-maximality reduction of that form (Belabas,
    A fast algorithm to compute cubic fields, Math. Comp. 66 (1997)); then
    v_p(d_K) = v_p(disc f) - 2 * (index exponent). Independent cross-check:
    the Dedekind criterion at the same primes must agree on p-maximality of
    Z[x]/(f); a disagreement raises ConsistencyError. sympy's round_two is
    the tests' oracle, not a route here.
    """
    if f.degree != 3 or f.lc != 1:
        raise ValueError("need a monic cubic")
    if _monic_cubic_root(f) is not None:
        raise ValueError("cubic is reducible")
    df = discriminant(f)
    return _field_disc(f, df, factorize(df))


def _field_disc(f: IntPolynomial, df: int, dfac: dict[int, int]) -> int:
    """cubic_field_disc of a monic cubic f already known to be irreducible,
    from df = disc(f) and dfac = factorize(df)."""
    dK = df
    for p, v_f in sorted(dfac.items()):
        if v_f < 2:
            continue
        k = _cubic_index_exponent(tuple(f.coeffs[::-1]), p, v_f)
        dK //= p ** (2 * k)
        maximal = _dedekind_p_maximal(f, p)
        if maximal and k:
            raise ConsistencyError(f"Dedekind says Z[x]/(f) {p}-maximal but v_{p} drops")
        if not maximal and not k:
            raise ConsistencyError(f"Dedekind says Z[x]/(f) not {p}-maximal but v_{p} kept")
    return dK


def _cubic_index_exponent(form: tuple[int, int, int, int], p: int, v: int) -> int:
    """v_p of the index of the ring of the cubic form (a, b, c, d) in its
    p-maximal overorder; v = v_p(disc(form)).

    Each step passes to an overorder: F = 0 mod p gives F/p (index p^2);
    otherwise the multiple root of F mod p is moved to (1:0), so that p | a
    and p | b, and p^2 | a gives (a/p^2, b/p, c, dp) (index p). With p^2 not
    dividing a the ring is p-maximal (Belabas 1997).
    """
    a, b, c, d = form
    k = 0
    while v >= 2:
        if a % p == 0 and b % p == 0 and c % p == 0 and d % p == 0:
            a, b, c, d = a // p, b // p, c // p, d // p
            k, v = k + 2, v - 4
            continue
        if a % p or b % p:
            # (r:1) is the multiple root: F(x + r y, y), then swap x and y
            r = fp.double_root([d, c, b, a], p)
            a, b, c, d = (
                ((a * r + b) * r + c) * r + d,
                (3 * a * r + 2 * b) * r + c,
                3 * a * r + b,
                a,
            )
        if a % (p * p):
            break
        a, b, c, d = a // (p * p), b // p, c, d * p
        k, v = k + 1, v - 2
    return k


def _dedekind_p_maximal(f: IntPolynomial, p: int) -> bool:
    """Dedekind's criterion: is Z[x]/(f) maximal at p? (f monic.)

    With f = prod g_i^e_i mod p, g = prod g_i its radical and h = f / g, it
    is p-maximal iff gcd((g h - f) / p, g, h) = 1 mod p. The squarefree
    decomposition f = prod z_k^k mod p gives g = prod z_k and
    h = prod z_k^(k - 1) without splitting the z_k into irreducibles."""
    g = h = IntPolynomial([1])
    for z, k in fp._sqf(fp.reduce(f.coeffs, p), p):
        z = IntPolynomial(z)
        g = g * z
        for _ in range(k - 1):
            h = h * z
    T = g * h - f  # g * h = f mod p; the criterion holds for any monic lifts
    if any(c % p for c in T.coeffs):
        raise ConsistencyError(f"squarefree decomposition of {format_poly(f)} mod {p} "
                               "does not multiply back")
    d = fp.gcd(fp.reduce([c // p for c in T.coeffs], p), fp.reduce(g.coeffs, p), p)
    return len(fp.gcd(d, fp.reduce(h.coeffs, p), p)) == 1


def cubic_specialize(cover: CubicCover, t0) -> SpecializationReport:
    """Splitting field data of P(t0, y) over Q at a rational t0."""
    pt = t0 if isinstance(t0, ProjectivePoint) else ProjectivePoint.from_rational(t0)
    spec = cover.specialized_cubic(pt)
    disc = discriminant(spec)
    if disc == 0:
        raise ValueError(f"t0 = {pt} is a branch point of the discriminant locus")
    r = _monic_cubic_root(spec)
    if r is not None:
        # spec = (x - r)(x^2 + b x + c)
        _, a1, a2, _ = spec.coeffs
        b = a2 + r
        qd = b * b - 4 * (a1 + r * b)
        if is_nth_power(qd, 2):
            return SpecializationReport("cubic", pt, "C1", disc_field=1)
        _, d, ram = _quad_field(qd, factorize(qd))
        return SpecializationReport("cubic", pt, "C2", disc_field=d, ramified_primes=ram)
    # one factorisation of disc(spec) serves d_K, d_k and both prime sets;
    # d_K = disc(spec) / index^2, so its primes are among those of disc(spec)
    dfac = factorize(disc)
    dK = _field_disc(spec, disc, dfac)
    dK_primes = {p for p in dfac if dK % p == 0}
    if is_nth_power(disc, 2):
        return SpecializationReport(
            "cubic", pt, "C3", d_K=dK, disc_field=dK, ramified_primes=tuple(sorted(dK_primes))
        )
    _, dk, dk_primes = _quad_field(disc, dfac)
    dF = abs(dk) * dK * dK
    ram = tuple(sorted(dK_primes.union(dk_primes)))
    return SpecializationReport(
        "cubic", pt, "S3", d_K=dK, d_k=dk, disc_field=dF, ramified_primes=ram
    )


def cubic_field_fingerprint(f: IntPolynomial) -> tuple:
    """Heuristic identity key for the cubic field Q[x]/(f): the field
    discriminant plus residue degree patterns at the 50 smallest primes
    not dividing disc(f). NOT certifying: equal fingerprints do not prove an
    isomorphism (they merely make distinctness overwhelmingly likely)."""
    dK = cubic_field_disc(f)
    df = discriminant(f)
    pats = []
    p = 2
    while len(pats) < 50:
        if is_probable_prime(p) and df % p != 0:
            _, facs = fp.factor_mod_p(f, p)
            pats.append(tuple(sorted(g.degree for g, m in facs for _ in range(m))))
        p += 1
    return (dK, tuple(pats))


# ---------------------------------------------------------------------------
# The cubic survey predicates


@dataclass(frozen=True)
class SurveyPredicates:
    separable: bool
    galois_S3: bool
    s3_witness: int | None
    delta_irreducible: bool
    leading_form_ok: bool
    infinity_unbranched: bool
    branch_conjugate: bool
    regular: bool

    @property
    def all_conditions(self) -> bool:
        return (
            self.separable
            and self.galois_S3
            and self.delta_irreducible
            and self.leading_form_ok
        )


_WITNESS_RANGE = 12


def s3_survey_predicates(
    a2: IntPolynomial, a1: IntPolynomial, a0: IntPolynomial
) -> SurveyPredicates:
    """Decide the survey conditions for y^3 + a2 y^2 + a1 y + a0.

    galois_S3 is decided exactly (specialization witness fast path, bivariate
    factorization + discriminant-square fallback). leading_form_ok asks the
    degree-D leading coefficients to form an irreducible quadratic, which
    forces the fiber above infinity to be unbranched; infinity_unbranched
    itself is computed exactly from the Newton polygon at infinity.
    """
    try:
        cover = CubicCover(a2, a1, a0)
    except ValueError:
        false = False
        return SurveyPredicates(false, false, None, false, false, false, false, false)
    witness = _s3_witness(cover)
    galois_S3 = witness is not None or cover._group_over_QT() == "S3"
    dfac = cover._factors
    delta_irred = len(dfac) == 1 and dfac[0][1] == 1 and dfac[0][0].degree >= 1

    D = cover.coeff_degree
    lead = [0, 0, 0]
    for i, a in enumerate((cover.a0, cover.a1, cover.a2)):
        lead[i] = a.coeffs[D] if a.degree == D else 0
    lf_ok = lead[2] != 0 and not is_nth_power(lead[1] ** 2 - 4 * lead[2] * lead[0], 2)

    inf_unbranched = cover.cycle_type_at(INFINITY) == [1, 1, 1]
    branch_conj = delta_irred and inf_unbranched
    regular = galois_S3 and any(m % 2 and f.degree >= 1 for f, m in dfac)
    return SurveyPredicates(
        True, galois_S3, witness, delta_irred, lf_ok, inf_unbranched, branch_conj, regular
    )


def _s3_witness(cover: CubicCover) -> int | None:
    """The first t0 in 0, 1, -1, ..., _WITNESS_RANGE, -_WITNESS_RANGE at which
    the specialised cubic is irreducible with a nonsquare discriminant, or
    None. Its group is then S3, and the group of an unramified
    specialisation is a subgroup of the generic one, so that is S3 too."""
    for k in range(_WITNESS_RANGE + 1):
        for t0 in (k, -k) if k else (0,):
            spec = cover.specialized_cubic(ProjectivePoint(t0, 1))
            disc = discriminant(spec)
            if disc == 0 or is_nth_power(disc, 2):
                continue
            if _monic_cubic_root(spec) is None:
                return t0
    return None


def _monic_cubic_root(f: IntPolynomial) -> int | None:
    """An integer root of a monic integer cubic, or None. The cubic is
    reducible iff it has one, and every integer root divides f(0)."""
    c0 = f.coeffs[0]
    if c0 == 0:
        return 0
    divisors = [1]
    for p, e in factorize(c0).items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return next((r for d in divisors for r in (d, -d) if f(r) == 0), None)


def _cubic_integer_roots(f: IntPolynomial) -> set[int]:
    """Every integer root of a monic integer cubic: one from
    _monic_cubic_root, the others from the quadratic cofactor."""
    r = _monic_cubic_root(f)
    if r is None:
        return set()
    _, a1, a2, _ = f.coeffs
    b = a2 + r  # f = (x - r)(x^2 + b x + c), c = a1 + r b
    s = nth_root(b * b - 4 * (a1 + r * b), 2)
    if s is None:
        return {r}
    return {r, (-b + s) // 2, (-b - s) // 2}


def _interpolate(ts: list[int], values) -> IntPolynomial | None:
    """The polynomial of degree < len(ts) through (ts[i], values[i]) when its
    coefficients are integers, else None. Newton's divided differences of a
    polynomial in Z[T] at distinct integers are integers, so a division that
    is not exact rules it out."""
    dd = list(values)
    for j in range(1, len(ts)):
        for i in range(len(ts) - 1, j - 1, -1):
            q, rem = divmod(dd[i] - dd[i - 1], ts[i] - ts[i - j])
            if rem:
                return None
            dd[i] = q
    out = IntPolynomial([])
    for i in range(len(ts) - 1, -1, -1):
        out = out * IntPolynomial([-ts[i], 1]) + dd[i]
    return out


# ---------------------------------------------------------------------------
# Chebotarev unramified sieve


def chebotarev_unramified_sieve(
    R: IntPolynomial, bound: int
) -> tuple[list[int], float, float]:
    """Primes p <= bound (p not dividing lc(R)*content) where R has no root
    mod p. Returns (primes, density among considered primes, derangement
    estimate = that density; Chebotarev's theorem makes it converge to
    |C_sigma| / |G| for the fixed-point-free classes)."""
    if R.degree < 1:
        raise ValueError("R must be nonconstant")
    out = []
    considered = 0
    for p in primes_up_to(bound):
        if R.lc % p == 0 or R.content % p == 0:
            continue
        considered += 1
        if _rootless_mod_p(R, p):
            out.append(p)
    density = len(out) / considered if considered else 0.0
    return out, density, density


def _rootless_mod_p(R: IntPolynomial, p: int) -> bool:
    """No root in F_p. Assumes p prime; raises ValueError if R vanishes mod p."""
    return fp.root_count(R, p) == 0


# Values of R per product in _rootless_primes: a few thousand bits per gcd.
# They are evaluated a block at a time, so that few big ints are alive at once.
_ROOT_CHUNK = 32
_ROOT_BLOCK = 8 * _ROOT_CHUNK


def _rootless_primes(R: IntPolynomial, primes: list[int]) -> list[int]:
    """The primes of the list (distinct) mod which R has no root, in list
    order: the answers of _rootless_mod_p prime by prime, with its ValueError
    if R vanishes mod one of them. With X = max(primes), the
    integers 0..X-1 cover every residue mod each p, so R has a root mod p
    exactly when p divides R(0) * ... * R(X-1). The product of the primes is
    divided by its gcd with the product of each chunk of values; the primes
    left in it are the rootless ones."""
    if any(R.content % p == 0 for p in primes):
        raise ValueError("R vanishes mod p")
    if not primes:
        return []
    X = max(primes)
    left = prod(primes)
    for j in range(0, X, _ROOT_BLOCK):
        t = np.arange(j, min(j + _ROOT_BLOCK, X), dtype=np.int64)
        vals = kernels.form_values(R.coeffs, t, np.ones_like(t)).tolist()
        for i in range(0, len(vals), _ROOT_CHUNK):
            left //= gcd(prod(vals[i : i + _ROOT_CHUNK]), left)
    return [p for p in primes if left % p == 0]


def splits_completely(R: IntPolynomial, p: int) -> bool:
    """R factors into distinct linear factors mod p (and p keeps the degree):
    x^p - x is squarefree, so this is deg R distinct roots in F_p."""
    return R.lc % p != 0 and fp.root_count(R, p) == R.degree


def verify_unramified(
    cover,
    sieve_primes: list[int],
    exceptional: set[int],
    n_samples: int = 200,
    height: int = 1000,
    seed: int = 0,
) -> list[tuple[ProjectivePoint, int]]:
    """Empirical check that no sampled specialization ramifies at a sieve
    prime outside the exceptional set. Returns the violations (want: none)."""
    rng = random.Random(seed)
    bad: list[tuple[ProjectivePoint, int]] = []
    pset = [p for p in sieve_primes if p not in exceptional]
    done = 0
    while done < n_samples:
        u = rng.randint(-height, height)
        v = rng.randint(1, height)
        if gcd(u, v) != 1:
            continue
        pt = ProjectivePoint(u, v)
        try:
            if isinstance(cover, QuadraticCover):
                rep = quad_specialize(cover, pt)
            else:
                rep = cubic_specialize(cover, pt)
        except ValueError:
            continue
        done += 1
        for p in pset:
            if p in rep.ramified_primes:
                bad.append((pt, p))
    return bad
