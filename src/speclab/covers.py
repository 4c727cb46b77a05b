"""Covers of the projective line over Q and their specializations.

Two families are modeled exactly: quadratic covers y^2 = P(t) and cubic covers
P(t, y) = y^3 + a2(t) y^2 + a1(t) y + a0(t), monic in y. Branch points,
ramification indices (a cubic's from the valuations of its discriminant and
of its depressed form's two coefficients at the branch point), specialization
fields with exact discriminants, and the unramified-prime sieve all live
here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count, islice, product
from math import gcd, inf, lcm, prod

from . import fp
from .intutil import (
    factorize,
    is_nfree,
    is_nth_power,
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
    _exact_quotient,
    _rational_roots,
    _squarefree_parts,
    _symmetric,
    factor_over_Q,
    format_poly,
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
    "s3_survey_predicates",
    "SurveyPredicates",
    "chebotarev_unramified_sieve",
    "verify_unramified",
]


# ---------------------------------------------------------------------------
# Quadratic covers


@dataclass(frozen=True)
class QuadraticCover:
    """y^2 = P(t) with P separable of squarefree content."""

    P: IntPolynomial

    def __post_init__(self):
        if self.P.degree < 1:
            raise ValueError("P must be nonconstant")
        if any(m > 1 for _, m in _squarefree_parts(self.P)[1]):
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
            out.append((HomogPolynomial([1, 0], degree=1), 2))  # the form V
        return out

    @cached_property
    def _even_model(self) -> HomogPolynomial:
        """P homogenised to the even degree deg P + deg P mod 2, the form F
        of the model y^2 = F(u, v); computed on first use, no part of repr,
        equality or hash."""
        return HomogPolynomial.from_poly(self.P, self.P.degree + self.P.degree % 2)

    def hom_value(self, pt: ProjectivePoint) -> int:
        """P_hom(u, v) * v^(deg P mod 2): d with E_t0 = Q(sqrt d) up to squares."""
        return self._even_model.eval_proj(pt)


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
    # The primes of the number the specialiser factored, which every branch
    # orbit's value at t0 divides (see ramify.predict); None when only a
    # smaller number was factored. _carrying sets it after construction; it
    # is not a field, so it is no part of repr, equality, hash or asdict.
    _primes = None

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
    nfac = factorize(val)
    m, d, ram = _quad_field(val, nfac)
    if m == 1:
        rep = SpecializationReport("quadratic", pt, "C1", m=1, disc_field=1)
    else:
        rep = SpecializationReport("quadratic", pt, "C2", m=m, disc_field=d, ramified_primes=ram)
    return _carrying(rep, nfac)


def _carrying(rep: SpecializationReport, nfac: dict[int, int]) -> SpecializationReport:
    """rep with _primes set to the primes of nfac."""
    object.__setattr__(rep, "_primes", tuple(nfac))
    return rep


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
        d = _cubic_disc(self.a2, self.a1, self.a0)
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
        """Galois group of the splitting field over Q(T): S3, C3, C2 or C1,
        from whether P(T, Y) has a root in Q(T), decided by one Kronecker
        substitution (_reducible_over_QT), and whether delta is a square in
        Q(T)."""
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
        """P has a root r in Q(T). P is monic over the integrally closed Z[T],
        so r lies in Z[T]. Every root of P(t, Y) with |t| = 1 is at most
        B = 1 + max(|a2|_1, |a1|_1, |a0|_1) (Cauchy's bound; |.|_1 sums the
        absolute coefficients), so the coefficient of T^j in r, the mean of
        r(t) t^-j over |t| = 1, is too. So r is the
        balanced base-t0 expansion of the integer root r(t0) of P(t0, Y) at
        any t0 >= 2B + 1 (Kronecker substitution). Take the first such t0 off
        the branch locus, where P(t0, Y) is squarefree and its roots come
        from a squarefree reduction, not Yun's algorithm, and test each
        expansion exactly."""
        a2, a1, a0 = self.a2, self.a1, self.a0
        B = 1 + max(sum(map(abs, a.coeffs)) for a in (a2, a1, a0))
        t0 = next(t for t in count(2 * B + 1) if self.delta(t))
        for root in _cubic_roots(IntPolynomial([a0(t0), a1(t0), a2(t0), 1])):
            n, digits = int(root), []
            while n:
                digits.append(_symmetric(n, t0))
                n = (n - digits[-1]) // t0
            r = IntPolynomial(digits)
            if r * r * r + a2 * r * r + a1 * r + a0 == IntPolynomial([]):
                return True
        return False

    @cached_property
    def _depressed(self) -> tuple[IntPolynomial, IntPolynomial]:
        """(p, q) with Z^3 + p Z + q = 27 P(T, (Z - a2) / 3), so
        -4 p^3 - 27 q^2 = 3^6 delta; computed on first use, no part of repr,
        equality or hash."""
        a2, a1, a0 = self.a2, self.a1, self.a0
        return 9 * a1 - 3 * a2 * a2, 2 * a2 * a2 * a2 - 9 * a1 * a2 + 27 * a0

    def cycle_type_at(self, tau) -> list[int]:
        """Cycle type of monodromy on the three sheets above tau; tau is a
        rational number, INFINITY, or an irreducible IntPolynomial minpoly.

        It is read from m, a and b, the valuations at tau of delta, p and q
        (see _depressed). The residue field has characteristic 0, so the
        ramification is tame and v_tau(disc of the function field), which is
        sum(e_i - 1) in {0, 1, 2}, has the parity of m: odd m gives [1, 2].
        For even m: when 3a > 2b, the Newton polygon of Z^3 + p Z + q is one
        segment of slope b / 3, so [3] exactly when 3 does not divide b.
        When 3a < 2b, a root splits off and the segment of length 2 has the
        integer slope a / 2 (m = 3a is even). When 3a = 2b, the residual cubic
        z^3 + p0 z + q0 has no triple root, so a root splits off too. Either
        way the even m leaves [1, 1, 1] (cf. Llorente-Nart-Vila, Trans. AMS
        281, 1984).

        Cross-check: v_tau(-4 p^3 - 27 q^2) is min(3a, 2b) unless the two
        tie, and never less; a mismatch with m raises ConsistencyError."""
        p, q = self._depressed
        if tau is INFINITY:
            # valuations at 1/T of delta / T^(6D), p / T^(2D) and q / T^(3D),
            # the depressed cubic of Y / T^D, which is integral there
            D = self.coeff_degree
            m, a, b = (
                k * D - g.degree if g.coeffs else inf
                for g, k in ((self.delta, 6), (p, 2), (q, 3))
            )
        else:
            if not isinstance(tau, IntPolynomial):
                tau = Fraction(tau)
                tau = IntPolynomial([-tau.numerator, tau.denominator])
            if tau.degree < 1:
                raise ValueError("constant polynomial has no root")
            f = tau.primitive()
            m, a, b = (_valuation_at(g, f) for g in (self.delta, p, q))
        low = min(3 * a, 2 * b)
        if m < low or (m > low and 3 * a != 2 * b):
            raise ConsistencyError(
                f"v(delta) = {m} does not fit v(p) = {a} and v(q) = {b} at {tau!r}"
            )
        if m % 2:
            return [1, 2]
        if 3 * a > 2 * b and b % 3:
            return [3]
        return [1, 1, 1]

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
            out.append((HomogPolynomial([1, 0], degree=1), e))  # the form V
        return out

    @property
    def branch_count(self) -> int:
        r = 0
        for form, _ in self.branch_orbits():
            r += form.degree
        return r

    @cached_property
    def _coeff_forms(self) -> tuple[HomogPolynomial | None, ...]:
        """a0, a1 and a2 homogenised to degree D, None for a zero one;
        computed on first use, no part of repr, equality or hash."""
        D = self.coeff_degree
        return tuple(
            HomogPolynomial.from_poly(a, D) if a.degree >= 0 else None
            for a in (self.a0, self.a1, self.a2)
        )

    def specialized_cubic(self, pt: ProjectivePoint) -> IntPolynomial:
        """Monic integer cubic with root v^D * y(t0), t0 = u/v (v != 0)."""
        if pt.is_infinity:
            raise ValueError("cubic specialization at infinity is unsupported")
        D, v = self.coeff_degree, pt.v
        A = [
            0 if hom is None else hom.eval_proj(pt) * v ** ((2 - i) * D)
            for i, hom in enumerate(self._coeff_forms)
        ]
        return IntPolynomial([A[0], A[1], A[2], 1])


def _root_table(q: int) -> bytes:
    """table[(a2 * q + a1) * q + a0] is 1 when y^3 + a2 y^2 + a1 y + a0 has
    a root in F_q, for residues 0 <= a_i < q."""
    table = bytearray(q**3)
    for r, a2, a1 in product(range(q), repeat=3):
        table[(a2 * q + a1) * q + -(r * r * r + a2 * r * r + a1 * r) % q] = 1
    return bytes(table)


_ROOT_TABLES = tuple((q, _root_table(q)) for q in (2, 3, 5, 7, 11))


def _cubic_roots(f: IntPolynomial) -> list[Fraction]:
    """The distinct rational roots of a monic integer cubic f, in increasing
    order, as _rational_roots gives them.

    f is monic, so its rational roots are integers, and an integer root is
    a root mod every q. So f has none when it has no root mod one of q = 2,
    3, 5, 7 and 11, which is a lookup in _ROOT_TABLES; about 7 of 8 cubics
    drawn at random stop there. The others go on to _rational_roots."""
    a0, a1, a2, _ = f.coeffs
    for q, table in _ROOT_TABLES:
        if not table[(a2 % q * q + a1 % q) * q + a0 % q]:
            return []
    return _rational_roots(f)


def _cubic_disc(a2, a1, a0):
    """Discriminant of Y^3 + a2 Y^2 + a1 Y + a0; the a_i are ints or
    IntPolynomials."""
    return (
        a2 * a2 * a1 * a1 - 4 * a1 * a1 * a1 - 4 * a2 * a2 * a2 * a0
        - 27 * a0 * a0 + 18 * a2 * a1 * a0
    )


def _valuation_at(g: IntPolynomial, f: IntPolynomial) -> int | float:
    """How often the primitive irreducible f divides g (inf for g = 0); each
    quotient is exact in Z[T] by Gauss's lemma."""
    if not g.coeffs:
        return inf
    k = 0
    while (g := _exact_quotient(g, f)) is not None:
        k += 1
    return k


def cubic_field_disc(f: IntPolynomial) -> int:
    """Field discriminant of Q[x]/(f) for an irreducible monic integer cubic.

    Primary route: Z[x]/(f) is the ring of the binary cubic form
    (1, a2, a1, a0) (Delone-Faddeev), and at every p with p^2 | disc(f) its
    p-index comes from the p-maximality reduction of that form (Belabas,
    A fast algorithm to compute cubic fields, Math. Comp. 66 (1997)); then
    v_p(d_K) = v_p(disc f) - 2 * (index exponent). Independent cross-check:
    the Dedekind criterion at the same primes, from a multiple root found
    without fp, must agree on p-maximality of Z[x]/(f); a disagreement raises
    ConsistencyError. sympy's round_two is the tests' oracle, not a route
    here.
    """
    if f.degree != 3 or f.lc != 1:
        raise ValueError("need a monic cubic")
    if _cubic_roots(f):
        raise ValueError("cubic is reducible")
    df = _cubic_disc(*f.coeffs[2::-1])
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
    """Dedekind's criterion for a monic cubic f: is Z[x]/(f) maximal at p?

    It is when p does not divide disc(f). Otherwise f has a multiple root r
    mod p, and r is in F_p, for a cubic has no repeated irreducible quadratic
    factor. Write f = g h + p T with g the radical of f mod p and h = f / g.
    The only factor g and h can share is x - r, and f(r) = p T(r) for any lift
    r. So Z[x]/(f) is p-maximal iff p^2 does not divide f(r). The first step
    of _cubic_index_exponent tests the same divisibility at the root from
    fp.double_root; this route finds r with _multiple_root and calls nothing
    in fp, so the two stay independent."""
    c, b, a = f.coeffs[:3]
    if _cubic_disc(a, b, c) % p:
        return True
    r = _multiple_root(a, b, c, p)
    if r is None or f(r) % p or ((3 * r + 2 * a) * r + b) % p:
        raise ConsistencyError(f"no multiple root of {format_poly(f)} mod {p} at {r}")
    return f(r) % (p * p) != 0


def _multiple_root(a: int, b: int, c: int, p: int) -> int | None:
    """The multiple root mod p of x^3 + a x^2 + b x + c when p divides its
    discriminant. For p <= 3 it is searched for (None if there is none). For
    p >= 5 it is a closed form: f = (x - r)^2 (x - s) gives h = a^2 - 3b =
    (r - s)^2 and 9c - ab = 2 r h, so r = (9c - ab) / (2h) unless p | h, and
    then r = s is a triple root, -a / 3."""
    if p <= 3:
        return next(
            (r for r in range(p)
             if (((r + a) * r + b) * r + c) % p == 0 and ((3 * r + 2 * a) * r + b) % p == 0),
            None,
        )
    h = a * a - 3 * b
    if h % p == 0:
        return -a * pow(3, -1, p) % p
    return (9 * c - a * b) * pow(2 * h, -1, p) % p


def cubic_specialize(cover: CubicCover, t0) -> SpecializationReport:
    """Splitting field data of P(t0, y) over Q at a rational t0."""
    pt = t0 if isinstance(t0, ProjectivePoint) else ProjectivePoint.from_rational(t0)
    spec = cover.specialized_cubic(pt)
    disc = _cubic_disc(*spec.coeffs[2::-1])
    if disc == 0:
        raise ValueError(f"t0 = {pt} is a branch point of the discriminant locus")
    roots = _cubic_roots(spec)
    if roots:
        # spec = (x - r)(x^2 + b x + c); r is an integer, for spec is monic
        r = int(roots[0])
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
        rep = SpecializationReport(
            "cubic", pt, "C3", d_K=dK, disc_field=dK, ramified_primes=tuple(sorted(dK_primes))
        )
    else:
        _, dk, dk_primes = _quad_field(disc, dfac)
        dF = abs(dk) * dK * dK
        ram = tuple(sorted(dK_primes.union(dk_primes)))
        rep = SpecializationReport(
            "cubic", pt, "S3", d_K=dK, d_k=dk, disc_field=dF, ramified_primes=ram
        )
    return _carrying(rep, dfac)


# ---------------------------------------------------------------------------
# The cubic survey predicates


@dataclass(frozen=True)
class SurveyPredicates:
    separable: bool
    galois_S3: bool
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


def s3_survey_predicates(
    a2: IntPolynomial, a1: IntPolynomial, a0: IntPolynomial
) -> SurveyPredicates:
    """Decide the survey conditions for y^3 + a2 y^2 + a1 y + a0.

    galois_S3 is the cover's generic_group. leading_form_ok asks the
    degree-D leading coefficients to form an irreducible quadratic, which
    forces the fiber above infinity to be unbranched; infinity_unbranched
    itself is the exact cycle type at infinity (CubicCover.cycle_type_at).
    """
    try:
        cover = CubicCover(a2, a1, a0)
    except ValueError:
        return SurveyPredicates(*[False] * 7)
    galois_S3 = cover.generic_group() == "S3"
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
        True, galois_S3, delta_irred, lf_ok, inf_unbranched, branch_conj, regular
    )


# ---------------------------------------------------------------------------
# Chebotarev unramified sieve


def chebotarev_unramified_sieve(R: IntPolynomial, bound: int) -> tuple[list[int], float]:
    """Primes p <= bound (p not dividing lc(R)*content) where R has no root
    mod p. Returns (primes, density among considered primes); by Chebotarev's
    theorem the density converges to |C_sigma| / |G| summed over the
    fixed-point-free classes."""
    if R.degree < 1:
        raise ValueError("R must be nonconstant")
    bad = R.lc * R.content
    considered = [p for p in primes_up_to(bound) if bad % p]
    out = fp._rootless_primes(R, considered)
    density = len(out) / len(considered) if considered else 0.0
    return out, density


def _rootless_mod_p(R: IntPolynomial, p: int) -> bool:
    """No root in F_p. Assumes p prime; raises ValueError if R vanishes mod p."""
    return fp.root_count(R, p) == 0


def splits_completely(R: IntPolynomial, p: int) -> bool:
    """R factors into distinct linear factors mod p (and p keeps the degree):
    x^p - x is squarefree, so this is deg R distinct roots in F_p."""
    return R.lc % p != 0 and fp.root_count(R, p) == R.degree


def _specializations(cover, height: int, seed: int):
    """Endless (t0, report) pairs at random t0 = u / v with |u| <= height,
    1 <= v <= height and gcd(u, v) = 1, drawn by random.Random(seed); the
    report is quad_specialize's or cubic_specialize's by the cover's type. A
    t0 where the specialisation raises ValueError is skipped.

    Raises ValueError when every such t0 is a branch point, a root of the
    branch polynomial (P, or delta for a cubic cover). Distinct pairs give
    distinct t0, so a box with more pairs than that degree has a t0 off the
    branch locus, and only a smaller box is enumerated."""
    R = cover.P if isinstance(cover, QuadraticCover) else cover.delta
    box = ((u, v) for v in range(1, height + 1) for u in range(-height, height + 1))
    box = list(islice(((u, v) for u, v in box if gcd(u, v) == 1), R.degree + 1))
    if len(box) <= R.degree and all(R(Fraction(u, v)) == 0 for u, v in box):
        raise ValueError(f"no coprime u/v with |u|, v <= {height} is off the branch locus")
    rng = random.Random(seed)
    while True:
        u = rng.randint(-height, height)
        v = rng.randint(1, height)
        if gcd(u, v) != 1:
            continue
        pt = ProjectivePoint(u, v)
        # looked up at each call, so a wrapper bound in their place is seen
        specialize = quad_specialize if isinstance(cover, QuadraticCover) else cubic_specialize
        try:
            rep = specialize(cover, pt)
        except ValueError:
            continue
        yield pt, rep


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
    points = _specializations(cover, height, seed)
    pset = [p for p in sieve_primes if p not in exceptional]
    bad: list[tuple[ProjectivePoint, int]] = []
    for _ in range(n_samples):
        pt, rep = next(points)
        bad += [(pt, p) for p in pset if p in rep.ramified_primes]
    return bad
