"""Exact polynomial arithmetic over Z and Q, and binary forms over Z.

Coefficient order is low degree first everywhere. The text format is a sum of
sparse terms "c*T^k" (e.g. "T^2-2", "3*T^4+T-1"); it round-trips through
parse_poly/format_poly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = [
    "IntPolynomial",
    "HomogPolynomial",
    "ProjectivePoint",
    "INFINITY",
    "parse_poly",
    "format_poly",
    "resultant",
    "discriminant",
    "discriminant_y",
    "homogenize_minpoly",
    "factor_over_Q",
    "real_roots_sign_analysis",
    "RealRootReport",
]


def _trim(coeffs: Sequence[int | Fraction]) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class IntPolynomial:
    """Univariate polynomial with integer coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        cs = _trim(coeffs)
        if any(not isinstance(c, int) for c in cs):
            raise TypeError("integer coefficients required")
        self.coeffs = cs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def trailing(self) -> int:
        """Lowest nonzero coefficient (0 for the zero polynomial)."""
        for c in self.coeffs:
            if c:
                return c
        return 0

    @property
    def content(self) -> int:
        return gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        g = self.content
        return self if g in (0, 1) else IntPolynomial([c // g for c in self.coeffs])

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def shift(self, a: int) -> "IntPolynomial":
        """P(T + a)."""
        out = IntPolynomial([])
        for c in reversed(self.coeffs):
            out = out * IntPolynomial([a, 1]) + IntPolynomial([c])
        return out

    def reverse(self, degree: int | None = None) -> "IntPolynomial":
        """T^degree * P(1/T); degree defaults to deg P."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("degree too small")
        return IntPolynomial([0] * (d - self.degree) + list(self.coeffs[::-1]))

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPolynomial", self.coeffs))

    def __repr__(self):
        return f"IntPolynomial({format_poly(self)!r})"


def _as_poly(x) -> IntPolynomial:
    if isinstance(x, IntPolynomial):
        return x
    if isinstance(x, int):
        return IntPolynomial([x])
    raise TypeError(f"cannot coerce {x!r} to IntPolynomial")


_TERM_RE = re.compile(
    r"(?P<sign>[+-])?\s*(?:(?P<coef>\d+)\s*\*?\s*)?(?:(?P<var>[A-Za-z])(?:\^(?P<exp>\d+))?)?\s*"
)


def parse_poly(text: str, var: str = "T") -> IntPolynomial:
    """Parse a sparse sum of terms "c*T^k". Raises ValueError on junk."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    pos = 0
    coeffs: dict[int, int] = {}
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial at {s[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("sign") is None and pos > 0:
            raise ValueError(f"missing sign before {s[pos:]!r}")
        coef = int(m.group("coef")) if m.group("coef") else 1
        if m.group("var"):
            if m.group("var") != var:
                raise ValueError(f"unexpected variable {m.group('var')!r}, want {var!r}")
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
        pos = m.end()
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return IntPolynomial(out)


def format_poly(p: IntPolynomial, var: str = "T") -> str:
    if not p.coeffs:
        return "0"
    terms = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if terms else "")
        a = abs(c)
        if e == 0:
            body = str(a)
        else:
            head = "" if a == 1 else f"{a}*"
            body = f"{head}{var}" + (f"^{e}" if e > 1 else "")
        terms.append(sign + body)
    return "".join(terms)


# ---------------------------------------------------------------------------
# Resultants and discriminants (fraction-free Bareiss)


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix, exactly."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _sylvester(a: Sequence[int], da: int, b: Sequence[int], db: int) -> list[list[int]]:
    """Sylvester matrix for coefficient lists (low first) padded to degrees da, db."""
    ah = list(a) + [0] * (da + 1 - len(a))
    bh = list(b) + [0] * (db + 1 - len(b))
    n = da + db
    rows = []
    for i in range(db):
        rows.append([0] * i + ah[::-1] + [0] * (n - da - 1 - i))
    for i in range(da):
        rows.append([0] * i + bh[::-1] + [0] * (n - db - 1 - i))
    return rows


def resultant(a: IntPolynomial, b: IntPolynomial) -> int:
    """Res(a, b) over Z. Res with a nonzero constant c is c^deg(other)."""
    if not a.coeffs or not b.coeffs:
        return 0
    if a.degree == 0:
        return a.lc ** b.degree
    if b.degree == 0:
        return b.lc ** a.degree
    return _bareiss_det(_sylvester(a.coeffs, a.degree, b.coeffs, b.degree))


def discriminant(p: IntPolynomial) -> int:
    """disc(p) = (-1)^(n(n-1)/2) Res(p, p') / lc(p)."""
    n = p.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return 1
    r = resultant(p, p.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, p.lc)
    assert rem == 0
    return q


def discriminant_y(coeffs_y: Sequence[IntPolynomial]) -> IntPolynomial:
    """Discriminant of P(T, Y) = sum coeffs_y[j](T) * Y^j with respect to Y.

    Requires P monic in Y. Computed by evaluation at integer T-values and
    exact Lagrange interpolation, which stays in Z throughout the statement
    even though the interpolation passes through Q.
    """
    coeffs_y = [_as_poly(c) for c in coeffs_y]
    n = len(coeffs_y) - 1
    if n < 1 or coeffs_y[-1] != IntPolynomial([1]):
        raise ValueError("P must be monic in Y of degree >= 1")
    dmax = max(c.degree for c in coeffs_y)
    bound = (2 * n - 1) * max(dmax, 0)
    pts = []
    vals = []
    for t in range(bound + 1):
        spec = IntPolynomial([c(t) for c in coeffs_y])
        pts.append(t)
        vals.append(discriminant(spec))
    # Newton's divided differences, exact.
    coef = [Fraction(v) for v in vals]
    for j in range(1, len(pts)):
        for i in range(len(pts) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (pts[i] - pts[i - j])
    out = [Fraction(0)] * len(pts)
    acc = [Fraction(0)] * len(pts)
    acc[0] = Fraction(1)
    for j, c in enumerate(coef):
        if j > 0:
            # multiply acc by (T - pts[j-1])
            new = [Fraction(0)] * len(pts)
            for i in range(j):
                new[i] -= acc[i] * pts[j - 1]
                new[i + 1] += acc[i]
            acc = new
        for i in range(len(pts)):
            out[i] += c * acc[i]
    ints = []
    for c in out:
        assert c.denominator == 1
        ints.append(c.numerator)
    return IntPolynomial(ints)


# ---------------------------------------------------------------------------
# Binary forms and projective points


class _Infinity:
    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class ProjectivePoint:
    """Point [u : v] of P^1(Q) in lowest terms with v > 0, or [1 : 0]."""

    u: int
    v: int

    def __post_init__(self):
        if self.u == 0 and self.v == 0:
            raise ValueError("[0:0] is not a point")
        g = gcd(self.u, self.v)
        u, v = self.u // g, self.v // g
        if v < 0 or (v == 0 and u < 0):
            u, v = -u, -v
        if v == 0:
            u = 1
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_rational(cls, t) -> "ProjectivePoint":
        if t is INFINITY:
            return cls(1, 0)
        f = Fraction(t)
        return cls(f.numerator, f.denominator)

    @property
    def is_infinity(self) -> bool:
        return self.v == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise ValueError("infinity is not a rational number")
        return Fraction(self.u, self.v)

    def __str__(self):
        return "oo" if self.is_infinity else f"{self.u}/{self.v}"


class HomogPolynomial:
    """Binary form of fixed degree: sum coeffs[k] * U^k * V^(degree-k)."""

    __slots__ = ("coeffs", "degree")

    def __init__(self, coeffs: Sequence[int], degree: int | None = None):
        cs = list(coeffs)
        if degree is None:
            degree = len(cs) - 1
        if degree < 0 or len(cs) > degree + 1:
            raise ValueError("bad degree")
        cs += [0] * (degree + 1 - len(cs))
        if all(c == 0 for c in cs):
            raise ValueError("the zero form is not allowed")
        self.coeffs = tuple(cs)
        self.degree = degree

    @classmethod
    def from_poly(cls, p: IntPolynomial, degree: int | None = None) -> "HomogPolynomial":
        """Homogenize P(T) to degree max(deg P, degree) with T = U/V."""
        if p.degree < 0:
            raise ValueError("cannot homogenize 0")
        return cls(p.coeffs, p.degree if degree is None else degree)

    def eval_proj(self, pt: ProjectivePoint | tuple[int, int]) -> int:
        u, v = (pt.u, pt.v) if isinstance(pt, ProjectivePoint) else pt
        return sum(c * u**k * v ** (self.degree - k) for k, c in enumerate(self.coeffs))

    def dehomogenize(self) -> IntPolynomial:
        return IntPolynomial(self.coeffs)

    @property
    def lead_u(self) -> int:
        return self.coeffs[-1]

    @property
    def lead_v(self) -> int:
        return self.coeffs[0]

    def __eq__(self, other):
        return (
            isinstance(other, HomogPolynomial)
            and self.coeffs == other.coeffs
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash(("HomogPolynomial", self.coeffs, self.degree))

    def __repr__(self):
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c:
                terms.append(f"{c}*U^{k}*V^{self.degree - k}")
        return "HomogPolynomial(" + "+".join(terms).replace("+-", "-") + ")"


def resultant_forms(a: HomogPolynomial, b: HomogPolynomial) -> int:
    """Resultant of two binary forms (Sylvester in their full degrees)."""
    return _bareiss_det(_sylvester(a.coeffs, a.degree, b.coeffs, b.degree))


def homogenize_minpoly(t) -> HomogPolynomial:
    """Minimal binary form of an algebraic branch point.

    Input: INFINITY (gives the form V), a rational (gives v*U - u*V), or an
    irreducible primitive IntPolynomial (gives its homogenization). The result
    has content 1 and positive leading U-coefficient, except for INFINITY
    where the form is V itself.
    """
    if t is INFINITY:
        return HomogPolynomial([1, 0], degree=1)  # the form V
    if isinstance(t, (int, Fraction)):
        f = Fraction(t)
        return HomogPolynomial([-f.numerator, f.denominator], degree=1)
    if isinstance(t, IntPolynomial):
        if t.degree < 1:
            raise ValueError("constant polynomial has no root")
        p = t.primitive()
        if p.lc < 0:
            p = -p
        cont, factors = factor_over_Q(p)
        if len(factors) != 1 or factors[0][1] != 1:
            raise ValueError("minimal polynomial must be irreducible")
        return HomogPolynomial.from_poly(p)
    raise TypeError(f"cannot homogenize {t!r}")


# ---------------------------------------------------------------------------
# Factorization over Q (sympy-backed) and real root analysis

_FACTOR_DEGREE_CAP = 24


def factor_over_Q(p: IntPolynomial) -> tuple[int, list[tuple[IntPolynomial, int]]]:
    """Exact factorization over Q: (content with sign, primitive irreducible
    factors with positive leading coefficient, multiplicities). Degree <= 24."""
    if p.degree < 0:
        raise ValueError("cannot factor 0")
    if p.degree > _FACTOR_DEGREE_CAP:
        raise ValueError(f"degree {p.degree} exceeds cap {_FACTOR_DEGREE_CAP}")
    if p.degree == 0:
        return p.lc, []
    import sympy

    x = sympy.Symbol("x")
    sp = sympy.Poly([int(c) for c in p.coeffs[::-1]], x, domain=sympy.ZZ)
    content, factors = sp.factor_list()
    out = []
    cont = int(content)
    for f, m in factors:
        coeffs = [int(c) for c in f.all_coeffs()[::-1]]
        q = IntPolynomial(coeffs)
        if q.lc < 0:
            q = -q
            if m % 2:
                cont = -cont
        out.append((q, int(m)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return cont, out


def is_irreducible_over_Q(p: IntPolynomial) -> bool:
    if p.degree < 1:
        return False
    _, fs = factor_over_Q(p)
    return len(fs) == 1 and fs[0][1] == 1


@dataclass(frozen=True)
class RealRootReport:
    distinct_real_roots: int
    takes_positive_values: bool
    takes_negative_values: bool


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    def deriv(a):
        return [i * c for i, c in enumerate(a)][1:]

    def rem(a, b):
        a = a[:]
        while len(a) >= len(b) > 0:
            c = a[-1] / b[-1]
            k = len(a) - len(b)
            for j, y in enumerate(b):
                a[k + j] -= c * y
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [p, deriv(p)]
    while chain[-1]:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_changes(vals: list) -> int:
    signs = [1 if v > 0 else -1 for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _real_root_count(f: IntPolynomial) -> int:
    """Distinct real roots of a squarefree f (Sturm, exact)."""
    chain = _sturm_chain([Fraction(c) for c in f.coeffs])
    at_minus = [c[-1] * (-1) ** (len(c) - 1) for c in chain]
    at_plus = [c[-1] for c in chain]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def real_roots_sign_analysis(p: IntPolynomial) -> RealRootReport:
    """Distinct real root count (Sturm, exact) and attained signs of P on R."""
    if p.degree < 0:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return RealRootReport(0, p.lc > 0, p.lc < 0)
    return _real_root_report(p, factor_over_Q(p)[1])


def _real_root_report(p: IntPolynomial, factors) -> RealRootReport:
    """real_roots_sign_analysis of a nonconstant p from factor_over_Q(p)[1]."""
    # the irreducible factors are coprime, so their real roots are distinct
    nroots = 0
    odd_mult_root_possible = False
    for f, m in factors:
        k = _real_root_count(f)
        nroots += k
        if m % 2 and k:
            odd_mult_root_possible = True
    if p.degree % 2 == 1:
        pos = neg = True
    elif p.lc > 0:
        pos = True
        neg = odd_mult_root_possible
    else:
        neg = True
        pos = odd_mult_root_possible
    return RealRootReport(nroots, pos, neg)
