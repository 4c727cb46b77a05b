"""Exact polynomial arithmetic over Z and Q, and binary forms over Z.

Coefficient order is low degree first everywhere. The text format is a sum of
sparse terms "c*T^k" (e.g. "T^2-2", "3*T^4+T-1"); it round-trips through
parse_poly/format_poly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, count, islice
from math import gcd, isqrt, prod
from typing import Sequence

from .intutil import ConsistencyError, is_probable_prime

__all__ = [
    "ConsistencyError",
    "IntPolynomial",
    "HomogPolynomial",
    "ProjectivePoint",
    "INFINITY",
    "parse_poly",
    "format_poly",
    "resultant",
    "discriminant",
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


def parse_poly(text: str) -> IntPolynomial:
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
            if m.group("var") != "T":
                raise ValueError(f"unexpected variable {m.group('var')!r}, want 'T'")
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
        pos = m.end()
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return IntPolynomial(out)


def format_poly(p: IntPolynomial) -> str:
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
            body = f"{head}T" + (f"^{e}" if e > 1 else "")
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
    if rem:
        raise ConsistencyError(f"lc {p.lc} does not divide Res(p, p') = {r}")
    return q


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
# Factorization over Q (Zassenhaus on top of speclab.fp) and real root analysis

_FACTOR_DEGREE_CAP = 24
# Odd primes tried for a squarefree reduction of f before Yun's algorithm
# decides squarefreeness over Z; a squarefree f fails at a prime only when
# the prime divides lc(f) * disc(f). Six settle 99.8% of the squarefree
# branch polynomials of the benchmark workloads and of sampled survey covers.
_SQF_TRIES = 6
# Good primes whose distinct-degree patterns are intersected before lifting.
_DDF_PRIMES = 5


def factor_over_Q(p: IntPolynomial) -> tuple[int, list[tuple[IntPolynomial, int]]]:
    """Exact factorization over Q: (content with sign, primitive irreducible
    factors with positive leading coefficient, multiplicities), the factors
    sorted by (degree, coefficients). Degree <= 24.

    Squarefree decomposition by one squarefree reduction mod a prime (else
    Yun's algorithm over Z), then Zassenhaus per squarefree part: degree
    patterns at a few primes, Hensel lifting past the Mignotte bound and
    recombination of the lifted factors (H. Zassenhaus, J. Number Theory 1,
    1969; von zur Gathen-Gerhard, Modern Computer Algebra, ch. 15). The
    product content * prod(f^m) is checked against p; a mismatch raises
    ConsistencyError."""
    cont, parts, good = _squarefree_parts(p)
    out = []
    for g, m in parts:
        out += [(h, m) for h in _zassenhaus(g, good or filter(None, _reductions(g)))]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    _check_product(p, cont, out)
    return cont, out


def _squarefree_parts(p: IntPolynomial):
    """(cont, parts, good) with p = cont * prod(g^m for g, m in parts).

    cont is the content with the sign of lc(p). The parts are squarefree,
    pairwise coprime, primitive, of positive degree and leading coefficient,
    with distinct multiplicities; they are not split into irreducibles.
    Degree <= 24, as for factor_over_Q. One squarefree reduction mod a small
    prime proves p / cont squarefree; then parts is [(p / cont, 1)] and good
    yields that reduction and the later ones (see _reductions), for
    Zassenhaus to go on from. Else the parts come from Yun's algorithm over
    Z, checked against p, and good is None."""
    if p.degree < 0:
        raise ValueError("cannot factor 0")
    if p.degree > _FACTOR_DEGREE_CAP:
        raise ValueError(f"degree {p.degree} exceeds cap {_FACTOR_DEGREE_CAP}")
    cont = p.content if p.lc > 0 else -p.content
    f = IntPolynomial([c // cont for c in p.coeffs])
    if f.degree == 0:
        return cont, [], None
    scan = _reductions(f)
    first = next(filter(None, islice(scan, _SQF_TRIES)), None)
    if first:
        return cont, [(f, 1)], chain([first], filter(None, scan))
    parts = _yun(f)
    _check_product(p, cont, parts)
    return cont, parts, None


def _check_product(p: IntPolynomial, cont: int, parts) -> None:
    """Raise ConsistencyError unless cont * prod(g^m for g, m in parts) is p."""
    check = IntPolynomial([cont])
    for g, m in parts:
        for _ in range(m):
            check = check * g
    if check != p:
        raise ConsistencyError(f"factors of {format_poly(p)} multiply to {format_poly(check)}")


def _reductions(f: IntPolynomial):
    """For each odd prime p in increasing order: (p, f mod p made monic) when
    p does not divide lc(f) and f mod p is squarefree, else None. Such a p
    does not divide disc(f), so one of them proves f squarefree; for a
    squarefree f all but finitely many primes give one."""
    from . import fp

    for p in filter(is_probable_prime, count(3, 2)):
        if f.lc % p == 0:
            yield None
            continue
        a = fp.reduce(f.coeffs, p)
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
        yield (p, a) if fp.gcd(a, fp._deriv(a, p), p) == [1] else None


def _zassenhaus(f: IntPolynomial, good) -> list[IntPolynomial]:
    """Irreducible factors of a squarefree primitive f of positive degree and
    positive leading coefficient. good yields (p, f mod p made monic) at
    primes p where that is squarefree and p does not divide lc(f)."""
    from . import fp

    n = f.degree
    sums = None  # degrees a factor over Z can have, by every pattern so far
    best = None  # (number of factors, p)
    for p, a in islice(good, _DDF_PRIMES):
        degs = [d for part, d in fp._ddf(a, p) for _ in range((len(part) - 1) // d)]
        reach = {0}
        for d in degs:
            reach |= {x + d for x in reach}
        sums = reach if sums is None else sums & reach
        if len(sums) == 2:  # {0, n}: irreducible mod some p or by the patterns
            return [f]
        best = min(best, (len(degs), p)) if best else (len(degs), p)
    p = best[1]
    mods = [list(g.coeffs) for g, _ in fp.factor_mod_p(f, p)[1]]
    # Mignotte: a factor of f of degree m has coefficients of size at most
    # 2^m ||f||_2, and its multiple with leading coefficient lc(f) at most
    # lc(f) times that; pk must exceed twice that for the symmetric range
    bound = 2 * f.lc * 2**n * (isqrt(sum(c * c for c in f.coeffs)) + 1)
    pk = p
    while pk <= bound:
        pk *= p
    return _recombine(f, fp.hensel_lift(f.coeffs, mods, p, pk), pk, sums)


def _recombine(f: IntPolynomial, lifted, pk: int, sums) -> list[IntPolynomial]:
    """Zassenhaus recombination: the true factors of f among lc * (product of
    a subset of the lifted factors mod pk, in the symmetric range), subsets
    by increasing size, each with a degree in sums. pk exceeds twice lc(f)
    times the Mignotte bound, so every factor over Z is such a product."""
    from . import fp

    out = []
    s = 1
    while 2 * s <= len(lifted):
        for S in combinations(range(len(lifted)), s):
            if sum(len(lifted[i]) - 1 for i in S) not in sums:
                continue
            b = f.lc
            # trailing-coefficient test: the constant term of a factor's
            # multiple with leading coefficient b divides b * f(0)
            c0 = _symmetric(b * prod(lifted[i][0] for i in S) % pk, pk)
            if c0 and (b * f.coeffs[0]) % c0:
                continue
            G = [b]
            for i in S:
                G = fp._mul(G, lifted[i], pk)
            g = IntPolynomial([_symmetric(c, pk) for c in G]).primitive()
            q = _exact_quotient(f, g)
            if q is None:
                continue
            out.append(g)
            f = q
            lifted = [u for i, u in enumerate(lifted) if i not in S]
            break
        else:
            s += 1
    return out + [f]


def _symmetric(c: int, m: int) -> int:
    """The representative of c mod m in (-m/2, m/2]."""
    c %= m
    return c - m if 2 * c > m else c


def _exact_quotient(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial | None:
    """a / b when b divides a in Z[x], else None; b nonzero."""
    r = list(a.coeffs)
    q = [0] * max(0, a.degree - b.degree + 1)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + b.degree], b.lc)
        if rem:
            return None
        q[i] = c
        for j, y in enumerate(b.coeffs):
            r[i + j] -= c * y
    return IntPolynomial(q) if not any(r) else None


def _prem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """A pseudo-remainder of a by b: c * a mod b for a nonzero integer c."""
    r = list(a.coeffs)
    while len(r) > b.degree and r:
        c, k = r[-1], len(r) - 1 - b.degree
        r = [x * b.lc for x in r]
        for j, y in enumerate(b.coeffs):
            r[k + j] -= c * y
        r = list(_trim(r))
    return IntPolynomial(r)


def _gcd_Z(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient of a and b in Z[x],
    not both zero (primitive remainder sequence)."""
    a, b = a.primitive(), b.primitive()
    while b.coeffs:
        a, b = b, _prem(a, b).primitive()
    return -a if a.lc < 0 else a


def _yun(f: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Squarefree decomposition [(g_i, i)] of a primitive f with positive
    leading coefficient: f = prod g_i^i, each g_i squarefree, primitive, of
    positive degree and leading coefficient (Yun's algorithm over Z; every
    quotient is exact in Z[x] by Gauss's lemma)."""
    d = f.derivative()
    c = _gcd_Z(f, d)
    w, y = _exact_quotient(f, c), _exact_quotient(d, c)
    out = []
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        g = _gcd_Z(w, z)
        if g.degree > 0:
            out.append((g, i))
        w, y = _exact_quotient(w, g), _exact_quotient(z, g)
        i += 1
    return out


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


def _real_root_report(p: IntPolynomial, parts) -> RealRootReport:
    """real_roots_sign_analysis of a nonconstant p from any coprime
    squarefree parts [(f, m)] with p = c * prod(f^m) for a constant c: the
    irreducible factors of factor_over_Q(p)[1], or the squarefree parts of
    _squarefree_parts(p)[1]."""
    # the parts are coprime, so their real roots are distinct
    nroots = 0
    odd_mult_root_possible = False
    for f, m in parts:
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
