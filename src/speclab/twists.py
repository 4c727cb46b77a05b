"""Superelliptic twists y^n = d * P(t): points, local solubility, obstructions.

The projective model lives in a weighted plane: for P of degree N and
r = N mod n the form has degree M = N (when n | N) or M = N + n - r, and a
point with z != 0 normalizes to integers (y, u, v), gcd(u, v) = 1, with
y^n = d * sum_j a_j u^j v^(M-j). Points with y = 0 are trivial and never
reported; for n not dividing N the single point at z = 0 is trivial too.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cache
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
from .fp import _rootless_primes, power_class
from .ramify import exceptional_superset
from .intutil import (
    factorize,
    is_probable_prime,
    nfree_sieve,
    nth_root,
    primes_up_to,
    squarefree_part,
    valuation,
)
from .poly import (
    IntPolynomial,
    RealRootReport,
    _rational_roots_of_parts,
    _real_root_report,
    _squarefree_parts,
    discriminant,
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
    # rational root (looked for only when P has a real root).
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
        _, parts, good = _squarefree_parts(self.P)
        if any(m >= self.n for _, m in parts):
            raise ValueError("P has a root of multiplicity >= n")
        report = _real_root_report(self.P, parts)
        rational = report.distinct_real_roots > 0 and bool(_rational_roots_of_parts(parts, good))
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
    # The factorisation of d that the n-free check makes, kept for the local
    # solver's bad primes and the certificate; no part of repr, equality or
    # hash.
    _d_factors: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = factorize(self.d) if self.d else None
        if factors is None or any(e >= self.base.n for e in factors.values()):
            raise ValueError("twist must be n-free and nonzero")
        object.__setattr__(self, "_d_factors", factors)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def P(self) -> IntPolynomial:
        return self.base.P


@dataclass(frozen=True)
class CurvePoint:
    """Weighted point [y : u : v]; z_zero marks the fiber above z = 0."""

    y: int
    u: int
    v: int
    z_zero: bool = False


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
    max_points, when given, keeps the first max_points of that list (none for
    0 or less).
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
        return out[: max(max_points, 0)]
    budget = None if max_points is None else max_points - len(out)
    hits = kernels.search_pairs(
        list(base.model_coeffs),
        base.n,
        d,
        H=H,
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

    At the prime p: 1 <= v_p(d) <= n-1, P is rootless mod p with a unit
    leading coefficient, and n | deg P; every value d * P_hom(u, v) on
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


# Candidate primes from which _certifying_primes takes the trace route of
# fp._rootless_primes: on one Xeon core (numpy 2.4) its ladder costs 0.3-1.4
# ms at degrees 2-8 however short the list, and one root test per prime is
# cheaper up to 32-64 primes.
_TRACE_ROUTE_PRIMES = 32


def _certifying_primes(P: IntPolynomial, n: int, primes: list[int]) -> list[int]:
    """The primes of the list (distinct), in list order, at which the
    valuation argument of ObstructionCertificate applies to y^n = d * P(t)
    for every d with v_p(d) not 0 mod n: p does not divide lc(P), and P has
    no root mod p. Empty when n does not divide deg P. The lc filter drops
    every prime dividing the content, so no root test meets a P that
    vanishes mod p. A short list takes one root test per prime, a list of
    _TRACE_ROUTE_PRIMES or more the trace route of fp._rootless_primes."""
    if P.degree % n:
        return []
    primes = [p for p in primes if P.lc % p]
    if len(primes) < _TRACE_ROUTE_PRIMES:
        return [p for p in primes if _rootless_mod_p(P, p)]
    return _rootless_primes(P, primes)


def obstruction_certificate(curve) -> ObstructionCertificate | None:
    """The certificate at the smallest certifying prime p | d, or None.

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
    # d is n-free, so 1 <= v_p(d) <= n - 1 at every p | d
    certifying = _certifying_primes(base.P, n, sorted(tw._d_factors))
    if not certifying:
        return None
    p = certifying[0]
    return ObstructionCertificate(p, valuation(d, p), n)


# ---------------------------------------------------------------------------
# Local solubility


def _qp_class(val: int, p: int, n: int) -> tuple[int, int]:
    """The class of a nonzero integer val = p^w u in Q_p^* / (Q_p^*)^n, as
    (w mod n, key of the class of the unit u); the key is 1 exactly on the
    n-th powers of Z_p^*. For p not dividing n the units reduce to
    F_p^* / (F_p^*)^n (trivial for p = 2: odd n acts invertibly on Z_2^*),
    keyed by fp.power_class. Otherwise, with s = v_p(n), Hensel's lemma puts
    1 + p^(2s+1) Z_p inside (Z_p^*)^n, and the key is read from
    _unit_classes(p, n)."""
    w = valuation(val, p)
    u = val // p**w
    if n % p:
        return w % n, 1 if p == 2 else power_class(u, p, n)
    table = _unit_classes(p, n)
    return w % n, table[u % len(table)]


@cache
def _unit_classes(p: int, n: int) -> tuple[int, ...]:
    """For p | n and s = v_p(n): entry r, for r prime to p, is the least
    residue of r * (units mod p^(2s+1))^n, the canonical member of the class
    of r modulo n-th powers (entries at multiples of p stay 0)."""
    mod = p ** (2 * valuation(n, p) + 1)
    powers = {pow(x, n, mod) for x in range(1, mod) if x % p}
    key = [0] * mod
    for r in range(1, mod):
        if r % p and not key[r]:  # r is the least member of a new class
            for h in powers:
                key[r * h % mod] = r
    return tuple(key)


def _unit_class_count(p: int, n: int) -> int:
    """The order of Z_p^* / (Z_p^*)^n: gcd(n, p - 1) for p not dividing n
    (1 at p = 2), else the number of classes _unit_classes(p, n) keys."""
    if n % p:
        return gcd(n, p - 1)
    return len(set(_unit_classes(p, n))) - 1  # the 0 entries key no class


class _LocalImage:
    """The local image at one prime p: the values of the model met so far by
    one walk of both charts done without d (LocalSolver._chart), as cosets
    C * (Q_p^*)^g of (Q_p^*)^n with g | n. y^n = d * P(t) is soluble at p
    exactly when the class of d^(n-1), the inverse of the class of d, lies in
    one of them, that is when d * C is a g-th power.

    A coset with g = n is one class, kept by its key in `met`; g = 1 is the
    whole group, and sets `every`; the others are kept as (C, g) in
    `cosets`. resolve(d) resumes the walk until the image holds the class of
    d^(n-1) or the walk ends. The walk is dropped once it ends, once `every`
    is set, and once `met` holds every class a twist can ask for (`wanted`,
    the unit classes only when `units_only`). A direct _walk at a tame prime
    can still ask for a ramified class after that; the walk then starts
    again."""

    __slots__ = ("start", "p", "n", "walk", "met", "cosets", "every", "done",
                 "wanted", "units_only")

    def __init__(self, start, p: int, n: int, met: set, wanted: int, units_only: bool):
        self.start = start  # start(): a fresh walk of both charts
        self.p, self.n = p, n
        self.walk = None
        self.met = met
        self.cosets: list[tuple[int, int]] = []
        self.every = False
        self.done = False  # the walk ended: the image is exact
        self.wanted = wanted
        self.units_only = units_only

    def _holds(self, d: int, key: tuple[int, int]) -> bool:
        """The image holds the class of d^(n-1), whose key is `key`."""
        if self.every or key in self.met:
            return True
        for C, g in self.cosets:
            if _qp_class(d * C, self.p, g) == (0, 1):
                return True
        return False

    def read(self, d: int) -> str | None:
        """SOLUBLE or INSOLUBLE for the twist by d when the image decides it
        as it stands, else None."""
        if self._holds(d, _qp_class(d ** (self.n - 1), self.p, self.n)):
            return SOLUBLE
        return INSOLUBLE if self.done else None

    def resolve(self, d: int) -> str:
        """The verdict for the twist by d, walking further as it needs."""
        p, n = self.p, self.n
        key = _qp_class(d ** (n - 1), p, n)
        while not self._holds(d, key):
            if self.done:
                return INSOLUBLE
            if self.walk is None:
                self.walk = self.start()
            coset = next(self.walk, None)
            if coset is None:
                self.done, self.walk = True, None
            elif coset[1] == n:
                self.met.add(_qp_class(coset[0], p, n))
            elif coset[1] == 1:
                self.every, self.walk = True, None
            else:
                self.cosets.append(coset)
        if self.walk is not None:
            met = sum(1 for w, _ in self.met if w == 0) if self.units_only else len(self.met)
            if met == self.wanted:
                self.walk = None
        return SOLUBLE


class LocalSolver:
    """Decides solubility of y^n = d * P(t) over Q_p and R.

    At a prime p it keeps one _LocalImage: the classes in Q_p^*/(Q_p^*)^n
    that the model's values meet, collected by one depth-first walk of both
    charts done without d, and resumed only when a twist asks for a class it
    has not met yet. Twists in one class are isomorphic, so each twist's
    verdict is read from the image. The walk runs on the squarefree parts of
    P, which are pairwise coprime, so it ends on its own, and the image it
    ends with is exact.

    Also owns the curve's point-search tables (kernels.search_pairs cache)."""

    def __init__(self, base: SuperellipticCurve):
        self.base = base
        self._images: dict[int, _LocalImage] = {}
        self._closed: dict[int, str] = {}  # the closed form's verdict at a tame p
        self.tables: dict = {}
        sqf = prod((f for f, _ in base._sqf_parts), start=IntPolynomial([1]))
        self._disc_sqf = discriminant(sqf) if sqf.degree >= 1 else 1
        # n * lc * content * disc of the radical: with d, it names the primes
        # of possibly bad reduction. It is factorised on the first bad_primes
        # call, so a solver that never lists places (a point search) never is.
        self._constants = base.n * base.P.lc * base.P.content * self._disc_sqf
        self._bad: set[int] | None = None
        self._tame_shape = base.separable and base.N % base.n == 0
        # The Weil floor: past it p + 1 - 2g sqrt(p) > m. For separable P
        # every F_p point of the smooth model at a good prime lifts by
        # Hensel, and the walk sees each one, the z = 0 point included, when
        # n | N (m = 0); when n does not divide N, m also counts the
        # gcd(n, N) points above infinity. For other P the arithmetic genus
        # of the model and m = (n + 1)(N + 1) only bound the listed primes:
        # no shortcut applies to them.
        n, N, g = base.n, base.N, base.genus
        if g is None:
            g = (n - 1) * (base.model_degree - 1) // 2
            m = (n + 1) * (N + 1)
        else:
            m = 0 if N % n == 0 else gcd(n, N)
        self._weil_floor = (g + isqrt(g * g + m) + 1) ** 2
        # The two charts of the model, as (c, parts, root): the model's value
        # is c * prod(f^m) over the parts (f, f', m), walked from the branch
        # root. z = 1 takes the squarefree parts of P and its signed content
        # over Z_p; t = 1 takes the parts reversed at their own degree (the
        # part T reverses to 1), times z^(M - N), over z in pZ_p.
        c = base.P.content if base.P.lc > 0 else -base.P.content
        reversed_parts = [(f.reverse(), m) for f, m in base._sqf_parts]
        at_infinity = [(f, f.derivative(), m) for f, m in reversed_parts if f.degree > 0]
        if base.model_degree > N:
            at_infinity.append((IntPolynomial([0, 1]), IntPolynomial([1]), base.model_degree - N))
        self._charts = (
            (c, tuple((f, f.derivative(), m) for f, m in base._sqf_parts), (0, 0)),
            (c, tuple(at_infinity), (0, 1)),
        )

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

    def at_prime(self, d: int, p: int) -> str:
        """The verdict at p, read from the image at p when it decides the
        class of d as it stands, else from _decide."""
        image = self._images.get(p)
        if image is not None:
            verdict = image.read(d)
            if verdict is not None:
                return verdict
        return self._decide(d, p)

    def _tame(self, p: int) -> bool:
        """p is prime to the constants, P separable and n | deg P: the
        closed form decides every twist with v_p(d) not 0 mod n."""
        return self._tame_shape and self._constants % p != 0

    def _good_reduction_shortcut(self, d: int, p: int) -> bool:
        base = self.base
        if p == 2 or not base.separable:
            return False
        if self._constants * d % p == 0:
            return False
        return p >= self._weil_floor

    def _decide(self, d: int, p: int) -> str:
        base, n = self.base, self.base.n
        # Closed form at a tame p | d (p prime to the constants, so to n):
        # the valuation argument read both ways. A root of P mod p is simple
        # and lifts, and near it d * P(t) meets every class of Q_p^*. The
        # verdict depends on p alone. p | d, so the shortcut would not apply.
        if valuation(d, p) % n and self._tame(p):
            verdict = self._closed.get(p)
            if verdict is None:
                rootless = _certifying_primes(base.P, n, [p])
                verdict = self._closed[p] = INSOLUBLE if rootless else SOLUBLE
            return verdict
        if self._good_reduction_shortcut(d, p):
            return SOLUBLE
        # With gcd(n, deg P) = 1 a single point lies above t = oo, so it is
        # rational, and every twist has a Q_p point.
        if gcd(n, base.N) == 1:
            return SOLUBLE
        return self._walk(d, p)

    def _walk(self, d: int, p: int) -> str:
        """The verdict at p without the shortcuts of _decide, read from the
        image at p, which is made on the first call at p and walked further
        as the class of d needs."""
        base, n = self.base, self.base.n
        image = self._images.get(p)
        if image is None:
            # the class of lc(P), the value at the z = 0 point when n | N
            met = {_qp_class(base.P.lc, p, n)} if base.N % n == 0 else set()
            tame = self._tame(p)
            units = _unit_class_count(p, n)
            image = self._images[p] = _LocalImage(
                lambda: (coset for chart in self._charts for coset in self._chart(*chart, p)),
                p, n, met, units if tame else n * units, tame,
            )
        return image.resolve(d)

    def _chart(self, c: int, parts: tuple, root: tuple[int, int], p: int):
        """A walk of one chart from the branch `root`, a generator: for each
        closed branch, a coset (C, g) of (Q_p^*)^n that the values
        c * prod(f^m) on the branch fill. A branch (a, j) is a + p^j Z_p.
        Adaptive residue refinement, depth first: the stack holds one lazy
        iterator over the p children per open level, so a large bad prime
        costs memory in the depth, not in p, and a suspended walk keeps only
        that stack.

        A part's class is constant on the branch, and read at a, once
        min(v(f'(a)) + j, 2j) >= v(f(a)) + k0, with k0 = 2 v_p(n) + 1: as
        f(a + p^j x) - f(a) = f'(a) p^j x + sum_{i>=2} c_i p^(ij) x^i with
        integers c_i = f^(i)(a) / i!, every value is f(a) (1 + p^k0 Z_p),
        and 1 + p^k0 Z_p lies in (Z_p^*)^n. A part has a root in the branch
        when f(a) = 0, or by Hensel when v(f(a)) > 2 v(f'(a)) and
        v(f(a)) - v(f'(a)) >= j; the root is simple, so near it f meets
        every class. The branch closes when every part is constant, with
        the class of C = c * prod(f(a)^m) (g = n), or when one part of
        multiplicity m has a root and the others are constant: then its
        values fill C * (Q_p^*)^gcd(m, n), C the constant parts' product.
        The parts are squarefree and pairwise coprime, so every point has a
        closing branch around it, and the walk ends."""
        n = self.base.n
        k0 = 2 * (valuation(n, p) if n % p == 0 else 0) + 1
        stack = [iter((root,))]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            a, j = node
            C, rooted = c, 0  # rooted: the multiplicity of the part with a root
            for f, fp, m in parts:
                fa = f(a)
                if fa:
                    vfa = valuation(fa, p)
                    fpa = fp(a)
                    spread = 2 * j  # f(a + p^j x) - f(a) lies in p^spread Z_p
                    if fpa:
                        vfpa = valuation(fpa, p)
                        spread = min(spread, vfpa + j)
                    if spread >= vfa + k0:
                        C *= fa**m  # class constant on the branch
                        continue
                    if not (fpa and vfa > 2 * vfpa and vfa - vfpa >= j):
                        break  # neither constant nor a root
                if rooted:
                    break  # a second part with a root
                rooted = m
            else:
                yield C, gcd(rooted, n)  # gcd(0, n) = n: the class of C
                continue
            step = p**j  # children a + m p^j, m = p - 1 first
            stack.append(zip(range(a + (p - 1) * step, a - 1, -step), repeat(j + 1)))

    def bad_primes(self, d_primes: Iterable[int]) -> list[int]:
        """The primes of n * d * lc * content * disc of the radical, and every
        prime below the Weil floor, given the primes of d (a factorisation of
        d will do, as TwistedCurve keeps one). Only the first call factorises,
        and only the curve's constants."""
        if self._bad is None:
            self._bad = set(factorize(self._constants)).union(primes_up_to(self._weil_floor))
        return sorted(self._bad.union(d_primes))


_solver_cache: dict[tuple, LocalSolver] = {}


def _solver(base: SuperellipticCurve) -> LocalSolver:
    key = (base.n, base.P.coeffs)
    s = _solver_cache.get(key)
    if s is None:
        s = _solver_cache[key] = LocalSolver(base)
    return s


def local_solubility(curve, place) -> str:
    """Solubility over the completion at `place` ("infinity" or a prime).

    Returns "soluble" or "insoluble"."""
    tw = _as_twist(curve)
    solver = _solver(tw.base)
    if place in ("infinity", "oo", None):
        return solver.at_infinity(tw.d)
    try:
        p = int(place)
    except (TypeError, ValueError):
        p = 0
    if not is_probable_prime(p):
        raise ValueError("place must be 'infinity' or a prime")
    return solver.at_prime(tw.d, p)


def everywhere_locally_soluble(curve) -> tuple[str, dict]:
    """Conjunction of local solubility over R and every relevant Q_p.

    Relevant: primes dividing n, d, lc(P), content(P), disc of the squarefree
    part of P, plus all primes below the Weil floor (g + isqrt(g^2 + m) + 1)^2
    of LocalSolver: beyond it p + 1 - 2g sqrt(p) > m, and at a good prime
    every F_p point of the smooth model of a separable P lifts by Hensel.
    m = 0 when n | deg P, gcd(n, deg P) otherwise (the points above
    infinity), and (n + 1)(deg P + 1), with
    the arithmetic genus, for a P that is not separable. The Hasse-Weil
    shortcut of LocalSolver refuses at every listed prime (it needs a good
    prime past the floor), so this pass never takes it; only a single-place
    query, local_solubility, can. Each listed prime's verdict comes from the
    closed form at a tame p | d, or from the solver's local image there.
    Returns "soluble" or "insoluble", and the verdict at each place asked,
    up to the first insoluble one."""
    tw = _as_twist(curve)
    solver = _solver(tw.base)
    detail: dict = {}
    st = solver.at_infinity(tw.d)
    detail["infinity"] = st
    if st == INSOLUBLE:
        return INSOLUBLE, detail
    for p in solver.bad_primes(tw._d_factors):
        st = solver.at_prime(tw.d, p)
        detail[p] = st
        if st == INSOLUBLE:
            return INSOLUBLE, detail
    return SOLUBLE, detail


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
    # square conditions: q a square mod p forces class(p) trivial at q. The
    # twist m0 * n0, n0 the least nonsquare mod q, stands for the other class
    # (q does not divide m0, or q would be in S1).
    restrictive = set()
    for q in primes_up_to(solver._weil_floor):
        if q in S or q in S1:
            continue
        n0 = next(c for c in range(2, q) if power_class(c, q, 2) != 1)
        if solver.at_prime(m0 * n0, q) != SOLUBLE:
            restrictive.add(q)
    ell_set = S | S1 | restrictive
    orbit_poly = cover.branch_orbits()[0][0].dehomogenize()
    out = []
    for p in primes_up_to(bound):
        if p in S or p in S1 or p % 4 != 1:
            continue
        if power_class(m0, p, 2) != 1:
            continue
        if any(power_class(ell, p, 2) != 1 for ell in ell_set if ell != p):
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
    unknown: tuple[int, ...]  # always empty: every local verdict is exact


def hasse_failure_candidates(cover: QuadraticCover, x: int, H: int) -> HasseScanResult:
    """Squarefree twists |d| <= x that pass every local test yet have no
    rational point of height <= H: numerical Hasse-principle failure
    candidates. Requires even degree >= 4 and no rational branch point.

    Each everywhere locally soluble twist gets one point search at height H,
    capped at its first point (search_points with max_points=1)."""
    if H < 1:
        raise ValueError("need H >= 1")
    if cover.degree % 2 or cover.degree < 4:
        raise ValueError("scan needs even degree >= 4")
    base = SuperellipticCurve(2, cover.P)
    if base._has_rational_root:
        raise ValueError("scan needs P without rational roots")
    candidates = []
    found = 0
    obstructed = 0
    for d in nfree_sieve(2, x):
        tw = base.twist(d)
        status, _ = everywhere_locally_soluble(tw)
        if status == INSOLUBLE:
            obstructed += 1
            continue
        if search_points(tw, H, max_points=1):
            found += 1
        else:
            candidates.append(d)
    return HasseScanResult(x, H, tuple(candidates), found, obstructed, ())
