"""Superelliptic twists y^n = d * P(t): points, local solubility, obstructions.

The projective model lives in a weighted plane: for P of degree N and
r = N mod n the form has degree M = N (when n | N) or M = N + n - r, and a
point with z != 0 normalizes to integers (y, u, v), gcd(u, v) = 1, with
y^n = d * sum_j a_j u^j v^(M-j). Points with y = 0 are trivial and never
reported; for n not dividing N the single point at z = 0 is trivial too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, prod

from . import kernels
from .covers import (
    ConsistencyError,
    QuadraticCover,
    _rootless_mod_p,
    quad_specialize,
    splits_completely,
)
from .fp import power_class
from .ramify import exceptional_superset
from .intutil import (
    factorize,
    is_nfree,
    is_probable_prime,
    legendre,
    nfree_sieve,
    nth_root,
    primes_up_to,
    squarefree_part,
    valuation,
)
from .poly import (
    HomogPolynomial,
    IntPolynomial,
    RealRootReport,
    _real_root_report,
    _squarefree_parts,
    discriminant,
    factor_over_Q,
)

__all__ = [
    "SuperellipticCurve",
    "TwistedCurve",
    "CurvePoint",
    "ObstructionCertificate",
    "ConsistencyError",
    "search_points",
    "obstruction_certificate",
    "local_solubility",
    "everywhere_locally_soluble",
    "map_twist_point",
    "admissible_prime_scan",
    "hasse_failure_candidates",
    "HasseScanResult",
]

SOLUBLE = "soluble"
INSOLUBLE = "insoluble"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SuperellipticCurve:
    """y^n = P(t) with every root of P of multiplicity < n."""

    n: int
    P: IntPolynomial
    # Computed once, and no part of repr, equality or hash: the squarefree
    # parts of P with their multiplicities (_squarefree_parts(P)[1], not
    # split into irreducibles), the signs P takes on R, and whether P has a
    # rational root. P is factorised over Q only when it has a real root.
    _sqf_parts: tuple[tuple[IntPolynomial, int], ...] = field(
        init=False, repr=False, compare=False
    )
    _real_report: RealRootReport = field(init=False, repr=False, compare=False)
    _has_rational_root: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.P.degree < 1:
            raise ValueError("P must be nonconstant")
        _, parts, _ = _squarefree_parts(self.P)
        if any(m >= self.n for _, m in parts):
            raise ValueError("P has a root of multiplicity >= n")
        report = _real_root_report(self.P, parts)
        rational = report.distinct_real_roots > 0 and any(
            f.degree == 1 for f, _ in factor_over_Q(self.P)[1]
        )
        object.__setattr__(self, "_sqf_parts", tuple(parts))
        object.__setattr__(self, "_real_report", report)
        object.__setattr__(self, "_has_rational_root", rational)

    @property
    def N(self) -> int:
        return self.P.degree

    @property
    def model_degree(self) -> int:
        r = self.N % self.n
        return self.N if r == 0 else self.N + self.n - r

    @property
    def weight(self) -> int:
        return self.model_degree // self.n

    @property
    def model_coeffs(self) -> tuple[int, ...]:
        cs = list(self.P.coeffs)
        return tuple(cs + [0] * (self.model_degree + 1 - len(cs)))

    @property
    def separable(self) -> bool:
        return all(m == 1 for _, m in self._sqf_parts)

    @property
    def genus(self) -> int | None:
        """Geometric genus; exact for separable P, None otherwise."""
        if not self.separable:
            return None
        n, N = self.n, self.N
        two_g = -2 * n + N * (n - 1) + (n - gcd(n, N)) + 2
        if two_g % 2 or two_g < 0:
            raise ConsistencyError(f"Riemann-Hurwitz gives 2g = {two_g}")
        return two_g // 2

    def twist(self, d: int) -> "TwistedCurve":
        return TwistedCurve(self, d)


@dataclass(frozen=True)
class TwistedCurve:
    """y^n = d * P(t) for an n-free twisting integer d."""

    base: SuperellipticCurve
    d: int

    def __post_init__(self):
        if self.d == 0 or not is_nfree(self.d, self.base.n):
            raise ValueError("twist must be n-free and nonzero")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def P(self) -> IntPolynomial:
        return self.base.P


@dataclass(frozen=True)
class CurvePoint:
    """Weighted point [y : u : v]; z_zero marks the fiber above z = 0."""

    y: int | Fraction
    u: int
    v: int
    z_zero: bool = False

    @property
    def trivial(self) -> bool:
        return self.y == 0


def _as_twist(c) -> TwistedCurve:
    if isinstance(c, TwistedCurve):
        return c
    if isinstance(c, SuperellipticCurve):
        return TwistedCurve(c, 1)
    raise TypeError("expected a curve or twisted curve")


def search_points(
    curve,
    H: int,
    max_points: int | None = None,
) -> list[CurvePoint]:
    """Every nontrivial rational point of height <= H.

    Complete for the box |u| <= H, 1 <= v <= H, gcd(u, v) = 1, plus the
    z = 0 fiber (which is height-free). Sorted with the z = 0 point first.
    """
    tw = _as_twist(curve)
    base, d = tw.base, tw.d
    out: list[CurvePoint] = []
    if base.N % base.n == 0:
        val = d * base.P.lc
        y = nth_root(val, base.n)
        if y:
            out.append(CurvePoint(y, 1, 0, z_zero=True))
    if max_points is not None and len(out) >= max_points:
        return out
    budget = None if max_points is None else max_points - len(out)
    hits = kernels.search_pairs(
        list(base.model_coeffs),
        base.model_degree,
        base.n,
        d,
        H,
        max_points=budget,
        cache=_solver(base).tables,
    )
    out.extend(CurvePoint(y, u, v) for y, u, v in hits)
    return out


# ---------------------------------------------------------------------------
# The valuation obstruction certificate


@dataclass(frozen=True)
class ObstructionCertificate:
    """Witness that y^n = d * P(t) has no rational point (and no Q_p point).

    At the prime p: 1 <= v_p(d) <= n-1, P is rootless mod p with unit leading
    and trailing coefficients, and n | deg P; every value d * P_hom(u, v) on
    coprime pairs then has p-valuation v_p(d) mod n != 0, so it is never an
    n-th power.
    """

    p: int
    v_p_d: int
    n: int

    def explain(self) -> str:
        return (
            f"v_{self.p}(d) = {self.v_p_d} with 1 <= {self.v_p_d} <= {self.n - 1}; "
            f"P rootless mod {self.p} forces v_{self.p}(y^{self.n}) = "
            f"{self.v_p_d} (mod {self.n}), impossible"
        )


def obstruction_certificate(curve) -> ObstructionCertificate | None:
    """First certifying prime for the twist, or None.

    Requires n | deg P, P separable with no rational root; violations raise.
    """
    tw = _as_twist(curve)
    base, d, n = tw.base, tw.d, tw.n
    if base.N % n != 0:
        raise ValueError("certificate needs n | deg P")
    if not base.separable:
        raise ValueError("certificate needs P separable")
    if base._has_rational_root:
        raise ValueError("certificate needs P without rational roots")
    a0, aN = base.P.trailing, base.P.lc
    for p in sorted(factorize(d)):
        v = valuation(d, p)
        if not 1 <= v <= n - 1:
            continue
        if a0 % p == 0 or aN % p == 0:
            continue
        if base.P.coeffs[0] == 0:
            continue  # t = 0 is a root
        if _rootless_mod_p(base.P, p):
            return ObstructionCertificate(p, v, n)
    return None


# ---------------------------------------------------------------------------
# Local solubility


def _is_nth_power_qp(val: int, p: int, n: int) -> bool:
    """Exact membership of a nonzero integer in (Q_p^*)^n."""
    w = valuation(val, p)
    if w % n:
        return False
    u = val // p**w
    s = valuation(n, p) if n % p == 0 else 0
    if s == 0:
        if p == 2:
            return True  # odd n acts invertibly on Z_2^*
        return power_class(u, p, n) == 1
    mod = p ** (2 * s + 1)
    um = u % mod
    return any(pow(x, n, mod) == um for x in range(1, mod) if x % p)


def _unit_class_key(d: int, p: int, n: int) -> tuple:
    """Cache key determining the class of d in Q_p^* / (Q_p^*)^n."""
    w = valuation(d, p)
    u = d // p**w
    s = valuation(n, p) if n % p == 0 else 0
    if s == 0 and p != 2:
        return (w % n, power_class(u, p, n))
    mod = p ** (2 * s + 1)
    return (w % n, u % mod)


# Hensel levels searched past the valuations that can hide a root, before a
# branch is left unknown.
_DEPTH_MARGIN = 4


class LocalSolver:
    """Decides solubility of y^n = d * P(t) over Q_p and R, caching on the
    class of d in Q_p^*/(Q_p^*)^n (twists in one class are isomorphic).

    Also owns the curve's point-search tables (kernels.search_pairs cache)."""

    def __init__(self, base: SuperellipticCurve):
        self.base = base
        self._cache: dict[tuple, str] = {}
        self.tables: dict = {}
        sqf = prod((f for f, _ in base._sqf_parts), start=IntPolynomial([1]))
        self._disc_sqf = discriminant(sqf) if sqf.degree >= 1 else 1
        g = base.genus
        if g is None:
            n, M = base.n, base.model_degree
            g = (n - 1) * (M - 1) // 2  # arithmetic-genus fallback, bound only
        self._g_bound = g
        m = (base.n + 1) * (base.N + 1)
        self._weil_floor = (g + isqrt(g * g + m) + 1) ** 2

    # -- real place

    def at_infinity(self, d: int) -> str:
        if self.base.n % 2 == 1:
            return SOLUBLE
        # d * P takes positive values iff P takes values of the sign of d
        rr = self.base._real_report
        if rr.takes_positive_values if d > 0 else rr.takes_negative_values:
            return SOLUBLE
        return INSOLUBLE

    # -- finite places

    def at_prime(self, d: int, p: int, allow_shortcut: bool = True) -> str:
        if not allow_shortcut:
            return self._decide(d, p, allow_shortcut=False)
        key = (p,) + _unit_class_key(d, p, n=self.base.n)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        res = self._decide(d, p)
        self._cache[key] = res
        return res

    def _good_reduction_shortcut(self, d: int, p: int) -> bool:
        base = self.base
        if p == 2 or not base.separable:
            return False
        if (base.n * d * base.P.lc * base.P.content * self._disc_sqf) % p == 0:
            return False
        return p >= self._weil_floor

    def _decide(self, d: int, p: int, allow_shortcut: bool = True) -> str:
        base, n = self.base, self.base.n
        if allow_shortcut and self._good_reduction_shortcut(d, p):
            return SOLUBLE
        cap = (
            2 * (valuation(n, p) if n % p == 0 else 0)
            + (valuation(self._disc_sqf, p) if self._disc_sqf % p == 0 else 0)
            + valuation(d, p)
            + (valuation(base.P.content, p) if base.P.content % p == 0 else 0)
            + _DEPTH_MARGIN
        )
        unknown = False
        # z = 0 rational point of the model (only nontrivial when n | N)
        if base.N % n == 0:
            v0 = d * base.P.lc
            if _is_nth_power_qp(v0, p, n):
                return SOLUBLE
        g_aff = list(base.model_coeffs)  # chart z = 1: poly in t
        st = self._chart(g_aff[: base.N + 1], d, p, cap, start_at_multiple=False)
        if st == SOLUBLE:
            return SOLUBLE
        unknown |= st == UNKNOWN
        # chart t = 1, z in pZ_p
        h = list(base.model_coeffs)[::-1]  # poly in z of degree M
        st = self._chart(h, d, p, cap, start_at_multiple=True)
        if st == SOLUBLE:
            return SOLUBLE
        unknown |= st == UNKNOWN
        return UNKNOWN if unknown else INSOLUBLE

    def _chart(self, coeffs: list[int], c: int, p: int, cap: int, start_at_multiple: bool) -> str:
        """Is c * g(t) an n-th power of Q_p^* for some t in Z_p (t in pZ_p when
        start_at_multiple)? Adaptive residue refinement, depth first: the
        stack holds one lazy iterator over the p children per open level, so
        a large bad prime costs memory in the depth, not in p."""
        n = self.base.n
        k0 = 2 * (valuation(n, p) if n % p == 0 else 0) + 1
        vc = valuation(c, p)
        g = IntPolynomial(coeffs)
        gp = g.derivative()
        unknown = False
        stack = [iter([(0, 1) if start_at_multiple else (0, 0)])]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            a, j = node
            ga = g(a)
            gpa = gp(a)
            if ga == 0:
                if gpa != 0:
                    return SOLUBLE  # simple Z_p root: nearby units realize all classes
                unknown = True
                continue
            vga = valuation(ga, p)
            if gpa != 0:
                vgpa = valuation(gpa, p)
                if vga > 2 * vgpa and vga - vgpa >= j:
                    return SOLUBLE  # Hensel root inside this branch
            w = vc + vga
            if vc + j >= w + k0:
                # value class constant on the branch: decide it
                if _is_nth_power_qp(c * ga, p, n):
                    return SOLUBLE
                continue
            if j >= cap:
                unknown = True
                continue
            step = p**j  # children a + m p^j, m = p - 1 first
            stack.append(zip(range(a + (p - 1) * step, a - 1, -step), repeat(j + 1)))
        return UNKNOWN if unknown else INSOLUBLE

    def bad_primes(self, d: int) -> list[int]:
        base = self.base
        nums = base.n * d * base.P.lc * base.P.content * self._disc_sqf
        ps = set(factorize(nums))
        ps.update(p for p in primes_up_to(self._weil_floor))
        return sorted(ps)


_solver_cache: dict[tuple, LocalSolver] = {}


def _solver(base: SuperellipticCurve) -> LocalSolver:
    key = (base.n, base.P.coeffs)
    s = _solver_cache.get(key)
    if s is None:
        s = _solver_cache[key] = LocalSolver(base)
    return s


def local_solubility(curve, place) -> str:
    """Solubility over the completion at `place` ("infinity" or a prime).

    Returns "soluble", "insoluble" or "unknown" (precision cap reached,
    never silently wrong)."""
    tw = _as_twist(curve)
    solver = _solver(tw.base)
    if place in ("infinity", "oo", None):
        return solver.at_infinity(tw.d)
    p = int(place)
    if not is_probable_prime(p):
        raise ValueError("place must be 'infinity' or a prime")
    return solver.at_prime(tw.d, p)


def everywhere_locally_soluble(curve) -> tuple[str, dict]:
    """Conjunction of local solubility over R and every relevant Q_p.

    Relevant: primes dividing n, d, lc(P), content(P), disc of the squarefree
    part of P, plus all primes below the Weil floor (beyond it, good
    reduction plus point counting guarantees solubility). "unknown" at some
    place propagates unless another place is outright insoluble."""
    tw = _as_twist(curve)
    solver = _solver(tw.base)
    detail: dict = {}
    status = SOLUBLE
    st = solver.at_infinity(tw.d)
    detail["infinity"] = st
    if st == INSOLUBLE:
        return INSOLUBLE, detail
    if st == UNKNOWN:
        status = UNKNOWN
    for p in solver.bad_primes(tw.d):
        st = solver.at_prime(tw.d, p)
        detail[p] = st
        if st == INSOLUBLE:
            return INSOLUBLE, detail
        if st == UNKNOWN:
            status = UNKNOWN
    return status, detail


# ---------------------------------------------------------------------------
# Reduction of composite-exponent twists


def map_twist_point(source: TwistedCurve, alpha: int, point: CurvePoint):
    """Push a point of y^n = 2 alpha^n1 P down to y^n1 = 2 P (n1 the least
    prime factor of the composite n) via y -> y^(n2) / alpha.

    Returns (target twist, mapped point). Raises when the source twist is not
    2 * alpha^n1, when alpha does not divide y^n2, or when the identity fails.
    """
    base = source.base
    n = base.n
    fac = sorted(factorize(n))
    if len(fac) == 0 or is_probable_prime(n):
        raise ValueError("n must be composite")
    n1 = fac[0]
    n2 = n // n1
    if not is_nfree(alpha, 2) or source.d != 2 * alpha**n1:
        raise ValueError("source twist must be 2 * alpha^n1 with alpha squarefree")
    target_base = SuperellipticCurve(n1, base.P)
    target = TwistedCurve(target_base, 2)
    y, u, v = point.y, point.u, point.v
    if point.z_zero:
        if target_base.N % n1 != 0:
            raise ValueError("z = 0 point has no image on the target model")
        ynum = y**n2
        if ynum % alpha:
            raise ValueError("alpha does not divide y^n2")
        yt = ynum // alpha
        if yt**n1 != 2 * base.P.lc:
            raise ConsistencyError("mapped z = 0 point fails the curve equation")
        return target, CurvePoint(yt, 1, 0, z_zero=True)
    if isinstance(y, int) and v == 1:
        ynum = y**n2
        if ynum % alpha:
            raise ValueError("alpha does not divide y^n2")
    Ms, Mt = base.model_degree, target_base.model_degree
    y_aff = Fraction(y) ** n2 / (alpha * Fraction(v) ** (Ms * n2 // n))
    yt = y_aff * Fraction(v) ** (Mt // n1)
    val = 2 * HomogPolynomial(target_base.model_coeffs).eval_proj((u, v))
    if yt**n1 != val:
        raise ConsistencyError("mapped point fails the curve equation")
    if yt.denominator == 1:
        yt = int(yt)
    return target, CurvePoint(yt, u, v)


# ---------------------------------------------------------------------------
# Admissible primes and Hasse-failure scans (quadratic instantiation)


def admissible_prime_scan(
    cover: QuadraticCover,
    t0,
    bound: int,
) -> list[tuple[int, int, str]]:
    """Primes <= bound whose twist of the specialization at t0 is forced to be
    everywhere locally soluble, with the emitted twists d = sqfree(m0 * p).

    Admissibility (quadratic instantiation): p outside S (exceptional primes
    and 2) and S1 (primes ramified in Q(sqrt m0)); the first branch orbit's
    minimal polynomial splits into distinct linear factors mod p; p = 1 mod 4
    and every m0 and ell in S u S1 is a square mod p. Each emitted twist is
    independently checked by everywhere_locally_soluble; an insoluble verdict
    is a hard ConsistencyError.
    """
    if cover.degree % 2:
        raise ValueError("scan needs even degree (infinity unbranched)")
    base = SuperellipticCurve(2, cover.P)
    if base._has_rational_root:
        raise ValueError("scan needs P without rational branch points")
    rep = quad_specialize(cover, t0)
    m0 = rep.m
    if m0 == 1:
        raise ValueError("base specialization is trivial, pick another t0")
    S = exceptional_superset(cover) | {2}
    S1 = set(rep.ramified_primes)
    solver = _solver(base)
    # Small good primes q where the twist class matters: below the point-count
    # floor, solubility over Q_q can fail for the nonsquare unit class of d.
    # The class of d = sqfree(m0 p) at such q is class(m0) * class(p); the
    # class(m0) twist is soluble at q (it owns the point above t0), so q only
    # constrains p when the other class is locally insoluble. Those q join the
    # square conditions: legendre(q, p) = 1 forces class(p) trivial at q.
    restrictive = set()
    for q in primes_up_to(solver._weil_floor):
        if q in S or q in S1:
            continue
        n0 = next(c for c in range(2, q) if legendre(c, q) != 1)
        c = m0 * n0 + (q if (m0 * n0) % q == 0 else 0)
        if solver.at_prime(c, q) != SOLUBLE:
            restrictive.add(q)
    ell_set = (S | S1 | restrictive) - {2}
    need_two = 2 in (S | S1)
    orbit_poly = cover.branch_orbits()[0][0].dehomogenize()
    out = []
    for p in primes_up_to(bound):
        if p in S or p in S1 or p % 4 != 1:
            continue
        if legendre(m0, p) != 1:
            continue
        if need_two and legendre(2, p) != 1:
            continue
        if any(legendre(ell, p) != 1 for ell in ell_set if ell != p):
            continue
        if not splits_completely(orbit_poly, p):
            continue
        d = squarefree_part(m0 * p)
        status, _detail = everywhere_locally_soluble(base.twist(d))
        if status == INSOLUBLE:
            raise ConsistencyError(
                f"admissible prime {p} produced a locally insoluble twist {d}"
            )
        out.append((p, d, status))
    return out


@dataclass(frozen=True)
class HasseScanResult:
    x: int
    H: int
    candidates: tuple[int, ...]  # twists: everywhere locally soluble, no point found
    soluble_with_points: int
    locally_obstructed: int
    unknown: tuple[int, ...]


def hasse_failure_candidates(cover: QuadraticCover, x: int, H: int) -> HasseScanResult:
    """Squarefree twists |d| <= x that pass every local test yet have no
    rational point of height <= H: numerical Hasse-principle failure
    candidates. Requires even degree >= 4 and no rational branch point.

    Each everywhere locally soluble twist gets one point search at height H,
    capped at its first point (search_points with max_points=1)."""
    if cover.degree % 2 or cover.degree < 4:
        raise ValueError("scan needs even degree >= 4")
    base = SuperellipticCurve(2, cover.P)
    if base._has_rational_root:
        raise ValueError("scan needs P without rational roots")
    candidates = []
    unknown = []
    found = 0
    obstructed = 0
    for d in nfree_sieve(2, x):
        tw = base.twist(d)
        status, _ = everywhere_locally_soluble(tw)
        if status == INSOLUBLE:
            obstructed += 1
            continue
        if status == UNKNOWN:
            unknown.append(d)
            continue
        if search_points(tw, H, max_points=1):
            found += 1
        else:
            candidates.append(d)
    return HasseScanResult(
        x, H, tuple(candidates), found, obstructed, tuple(unknown)
    )
