import signal
from contextlib import contextmanager
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.subresultants_qq_zz import sylvester

from speclab import poly as poly_module
from speclab.covers import CubicCover
from speclab.intutil import is_probable_prime, primes_up_to
from speclab.poly import (
    INFINITY,
    ConsistencyError,
    HomogPolynomial,
    IntPolynomial,
    ProjectivePoint,
    discriminant,
    factor_over_Q,
    format_poly,
    is_irreducible_over_Q,
    parse_poly,
    real_roots_sign_analysis,
    resultant,
)

coeff_lists = st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=7)


def poly(*cs):
    return IntPolynomial(cs)


def test_parse_format_roundtrip():
    for text in ("T^3 - 2", "3*T^2 - 2", "T^8 + 3*T^6 + 6*T^4 + 6*T^2 + 4", "-7"):
        p = parse_poly(text)
        assert parse_poly(format_poly(p)) == p
    with pytest.raises(ValueError):
        parse_poly("T^^2")


@given(coeff_lists, coeff_lists)
def test_resultant_multiplicative_in_product(a, b):
    pa, pb = IntPolynomial(a), IntPolynomial(b)
    if pa.degree < 1 or pb.degree < 1:
        return
    g = IntPolynomial([1, 1])
    lhs = resultant(pa * g, pb)
    assert lhs == resultant(pa, pb) * resultant(g, pb)


def test_discriminant_values():
    assert discriminant(poly(-2, 0, 1)) == 8  # T^2 - 2
    assert discriminant(poly(-2, 0, 0, 1)) == -108  # T^3 - 2
    assert discriminant(poly(1, 1, 1)) == -3


def test_discriminant_y_cubic():
    # Y^3 + T Y + T: delta = -4 T^3 - 27 T^2
    assert CubicCover(poly(), poly(0, 1), poly(0, 1)).delta == poly(0, 0, -27, -4)


X = sympy.Symbol("x")


def to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], X)


def sympy_resultant(a, b):
    """Res(a, b) by sympy: sympy.resultant, except for 0 < deg a < deg b,
    where sympy 1.14's resultant has the sign of Res(b, a), so the
    determinant of sympy's Sylvester matrix instead."""
    if 0 < a.degree < b.degree:
        return int(sylvester(to_sympy(a).as_expr(), to_sympy(b).as_expr(), X).det())
    return int(sympy.resultant(to_sympy(a), to_sympy(b)))


def int_polys(max_degree=12):
    """Polynomials of degree 0 to max_degree with any nonzero leading
    coefficient, often sparse (so pseudo-division skips steps)."""
    coeff = st.one_of(st.just(0), st.integers(-20, 20), st.integers(-10**6, 10**6))
    return st.builds(
        lambda cs, lc: IntPolynomial(cs + [lc]),
        st.lists(coeff, max_size=max_degree),
        st.integers(-9, 9).filter(bool),
    )


@st.composite
def resultant_pairs(draw):
    """(a, b) of degree -1 (zero) to 12, often of degree 0, and often with a
    constructed common factor of positive degree."""
    a, b = draw(int_polys()), draw(int_polys())
    if draw(st.booleans()):
        g = draw(int_polys(3))
        assume(g.degree >= 1 and (a * g).degree <= 12 and (b * g).degree <= 12)
        a, b = a * g, b * g
    zero = draw(st.sampled_from([None, "a", "b"]))
    return (IntPolynomial([]) if zero == "a" else a), (IntPolynomial([]) if zero == "b" else b)


@given(resultant_pairs())
@example((IntPolynomial([]), poly(1, 0, 1)))  # zero argument
@example((poly(-3), poly(1, 0, 0, 2)))  # constant argument: (-3)^3
@example((poly(5), poly(-7)))  # both constant: 1
@example((poly(1, 2), poly(1, 0, 3, 1)))  # deg a < deg b, both odd
@example((poly(0, 1), poly(1, 0, 0, 1)))  # Res(T, T^3 + 1) = 1
@example((poly(1, 0, 0, 0, 1), poly(1, 0, 1)))  # leading terms cancel: a step skipped
@example((poly(-2, 0, 1) * poly(1, 3), poly(-2, 0, 1) * poly(5, 0, -2)))  # common factor
@example((poly(3, 0, 0, 0, -6), poly(1, 4, 0, 0, 0, 0, 0, -9)))  # non-unit, negative lc
@settings(max_examples=400, deadline=None)
def test_resultant_matches_sympy(pair):
    a, b = pair
    got = resultant(a, b)
    assert got == sympy_resultant(a, b)
    if a.degree >= 1 and b.degree >= 1 and poly_module._gcd_Z(a, b).degree >= 1:
        assert got == 0


@given(int_polys())
@example(poly(-2, 0, 0, 1))
@example(poly(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3))  # 3 T^12 + 1
@example(poly(1, 0, 1) * poly(1, 0, 1) * poly(-1, 5))  # a repeated factor: 0
@settings(max_examples=200, deadline=None)
def test_discriminant_matches_sympy(p):
    assume(p.degree >= 1)
    assert discriminant(p) == int(sympy.discriminant(to_sympy(p)))


def old_prem(a, b):
    """The pseudo-remainder as it was before its power of |lc(b)| was made
    exact: c * (a mod b) for c some power of |lc(b)|; kept as oracle."""
    r = list(a.coeffs)
    s = abs(b.lc)
    while len(r) > b.degree and r:
        c, k = (r[-1] if b.lc > 0 else -r[-1]), len(r) - 1 - b.degree
        r = [x * s for x in r]
        for j, y in enumerate(b.coeffs):
            r[k + j] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return IntPolynomial(r)


def old_sturm_chain(f):
    """The Sturm chain as the loop that built it before the remainder
    sequence was shared with the resultant; kept as oracle."""
    chain = [f, f.derivative()]
    while (r := old_prem(chain[-2], chain[-1])).coeffs:
        chain.append(-r.primitive())
    return chain


@given(int_polys())
@example(parse_poly("T^5+3*T^3+5*T+3"))
@example(parse_poly("T^6-T-1"))
@example(prod([poly(1, 0, -2)] * 3 + [poly(-1, 0, -1)] * 2))
@settings(max_examples=200, deadline=None)
def test_sturm_chain_matches_old_loop(f):
    assume(f.degree >= 1)
    d = f.derivative()
    assert [f, d, *(r for r, _ in poly_module._remainders(f, d))] == old_sturm_chain(f)


def exact_quotient_over_Q(a, b):
    """q with a = q * b + r, deg r < deg b, over Q by long division."""
    r = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * max(0, a.degree - b.degree + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + b.degree] / b.lc
        for j, y in enumerate(b.coeffs):
            r[i + j] -= q[i] * y
    return q


@given(resultant_pairs())
@example((poly(1, 0, 0, 0, 1), poly(1, 0, 1)))  # T^3 cancels: one step skipped
@example((poly(1, 0, 0, 0, 0, 0, 1), poly(1, 0, 0, -2)))  # two steps skipped
@example((poly(1, 2), poly(1, 0, 3)))  # deg a < deg b: a itself
@example((IntPolynomial([]), poly(3)))
@settings(max_examples=300, deadline=None)
def test_prem_is_exact_power_of_lc(pair):
    """_prem(a, b) = |lc b|^(delta + 1) a - q b for the exact quotient q of
    that multiple of a by b, delta = deg a - deg b (a itself when delta < 0)."""
    a, b = pair
    assume(b.degree >= 0)
    scaled = a * abs(b.lc) ** max(0, a.degree - b.degree + 1)
    q = exact_quotient_over_Q(scaled, b)
    assert all(c.denominator == 1 for c in q)
    assert poly_module._prem(a, b) == scaled - IntPolynomial([int(c) for c in q]) * b


@given(coeff_lists)
@settings(max_examples=60)
def test_factor_over_Q_reassembles(cs):
    p = IntPolynomial(cs)
    if p.degree < 1:
        return
    content, factors = factor_over_Q(p)
    prod = IntPolynomial([content])
    for f, m in factors:
        assert f.lc > 0
        for _ in range(m):
            prod = prod * f
    assert prod == p


def old_factor_over_Q(p):
    """factor_over_Q by sympy's factor_list, as it was computed before
    Zassenhaus on speclab.fp; kept as oracle."""
    x = sympy.Symbol("x")
    content, factors = sympy.Poly(list(p.coeffs[::-1]), x, domain=sympy.ZZ).factor_list()
    cont, out = int(content), []
    for f, m in factors:
        q = IntPolynomial([int(c) for c in f.all_coeffs()[::-1]])
        if q.lc < 0:
            q = -q
            cont = -cont if m % 2 else cont
        out.append((q, int(m)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return cont, out


def sympy_factors_mod_p(f, p):
    """The monic irreducible factors of f mod p with their multiplicities, by
    sympy's factorisation over GF(p)."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(f.coeffs[::-1]), x, modulus=p).factor_list()
    return [(IntPolynomial([int(c) % p for c in g.all_coeffs()[::-1]]), int(m)) for g, m in factors]


SD4 = "T^4-10*T^2+1"  # minimal polynomial of sqrt 2 + sqrt 3
SD8 = "T^8-40*T^6+352*T^4-960*T^2+576"  # of sqrt 2 + sqrt 3 + sqrt 5


def swinnerton_dyer(primes):
    """The Swinnerton-Dyer polynomial: the product of T - sum(+-sqrt p) over
    all signs, the minimal polynomial of sum(sqrt p), of degree 2^len(primes).
    One prime at a time, f(T + sqrt p) = A + sqrt(p) B by Horner, and
    f(T + sqrt p) f(T - sqrt p) = A^2 - p B^2."""
    f = t = poly(0, 1)
    for p in primes:
        a = b = IntPolynomial([])
        for c in reversed(f.coeffs):
            a, b = a * t + poly(p) * b + poly(c), b * t + a
        f = a * a - poly(p) * b * b
    return f


@contextmanager
def within(seconds):
    """Fail the test when its body runs longer than seconds (SIGALRM)."""

    def hung(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def products(draw):
    """c * prod f_i^m_i of degree 1..24: a content of either sign, factors
    of degree 1-6 with any nonzero leading coefficient, multiplicities up to 3."""
    p = IntPolynomial([draw(st.integers(1, 60)) * draw(st.sampled_from([-1, 1]))])
    for _ in range(draw(st.integers(1, 5))):
        f = IntPolynomial(
            draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
            + [draw(st.integers(-6, 6).filter(bool))]
        )
        for _ in range(draw(st.integers(1, 3))):
            if (p * f).degree <= 24:
                p = p * f
    assume(p.degree >= 1)
    return p


@given(st.one_of(products(), coeff_lists.map(IntPolynomial)))
@example(parse_poly(SD4) * parse_poly(SD4).shift(1))
@example(parse_poly(SD4) * parse_poly(SD4) * parse_poly(SD8).shift(-1))
@example(parse_poly(SD8) * parse_poly("T^4+1") * parse_poly("-3*T^8+5*T-2") * parse_poly("2*T^4-7"))
@example(prod((poly(-i, 1) for i in range(1, 25)), start=poly(1)))  # 24 linear factors
@example(prod([poly(-2, 0, 3)] * 3 + [poly(1, -1, 0, 7)] * 2 + [poly(*[5] + [0] * 11 + [-1])]))
@settings(max_examples=500, deadline=None)
def test_factor_over_Q_matches_sympy(p):
    if p.degree < 1:
        return
    assert factor_over_Q(p) == old_factor_over_Q(p)


@pytest.mark.parametrize("text", [SD4, SD8])
def test_factor_over_Q_recombines(text):
    """SD4 and SD8 are irreducible but split into factors of degree <= 2 mod
    every prime, so every pattern intersection is inconclusive and only
    recombination proves them irreducible, alone and in products."""
    p = parse_poly(text)
    for q in primes_up_to(60):
        if discriminant(p) % q:
            assert all(g.degree <= 2 for g, _ in sympy_factors_mod_p(p, q))
    assert factor_over_Q(p) == (1, [(p, 1)])
    shifted = p.shift(2)
    for m in (1, 2):  # squarefree, and through Yun's algorithm
        q = prod([p] * m + [shifted, IntPolynomial([-2])])
        want = sorted([(p, m), (shifted, 1)], key=lambda fm: (fm[0].degree, fm[0].coeffs))
        assert factor_over_Q(q) == (-2, want) == old_factor_over_Q(q)


@st.composite
def large_products(draw):
    """c * prod f_i^m_i of degree 25..48, past the degree cap factor_over_Q
    once had: factors of degree 1-12 with any nonzero leading coefficient,
    multiplicities up to 3, drawn until the degree reaches 25."""
    p = IntPolynomial([draw(st.integers(1, 60)) * draw(st.sampled_from([-1, 1]))])
    while p.degree < 25:
        f = IntPolynomial(
            draw(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
            + [draw(st.integers(-6, 6).filter(bool))]
        )
        q = prod([f] * draw(st.integers(1, 3)), start=p)
        if q.degree <= 48:
            p = q
    return p


@given(large_products())
@example(IntPolynomial([1] * 26))  # (T^26 - 1) / (T - 1): 3 cyclotomic factors
# 20 rational roots and SD8, which has 4 factors mod every good prime: 24 in all
@example(prod((poly(-i, 1) for i in range(1, 21)), start=parse_poly(SD8)))
@settings(max_examples=100, deadline=None)
def test_factor_over_Q_matches_sympy_past_degree_24(p):
    assert factor_over_Q(p) == old_factor_over_Q(p)


def test_swinnerton_dyer_degree_32_is_irreducible():
    """sqrt 2 + ... + sqrt 11: mod every prime its factors have degree <= 2, so
    only recombination of at least 16 lifted factors proves it irreducible."""
    assert swinnerton_dyer([2, 3]) == parse_poly(SD4)
    assert swinnerton_dyer([2, 3, 5]) == parse_poly(SD8)
    p = swinnerton_dyer([2, 3, 5, 7, 11])
    assert p.degree == 32
    with within(10):
        assert factor_over_Q(p) == (1, [(p, 1)])


def test_factor_over_Q_rejects():
    with pytest.raises(ValueError):
        factor_over_Q(IntPolynomial([]))
    p = IntPolynomial([1] * 26)  # degree 25 factors like any other degree
    assert factor_over_Q(p) == old_factor_over_Q(p)
    # refused before lifting by the factors mod the best prime, not the degree
    with pytest.raises(ValueError, match="25 factors mod 29"):
        factor_over_Q(prod((poly(-i, 1) for i in range(1, 26)), start=poly(1)))
    p = swinnerton_dyer([2, 3, 5, 7, 11, 13])
    with within(10), pytest.raises(ValueError, match="32 factors mod 19"):
        factor_over_Q(p)


def test_factor_over_Q_checks_the_product(monkeypatch):
    monkeypatch.setattr(poly_module, "_zassenhaus", lambda f, good: [f, poly(1, 1)])
    with pytest.raises(ConsistencyError):
        factor_over_Q(parse_poly("T^2+1"))


def test_irreducibility():
    assert is_irreducible_over_Q(parse_poly("T^2+1"))
    assert not is_irreducible_over_Q(parse_poly("T^2-1"))


def test_projective_points():
    pt = ProjectivePoint(4, -6)
    assert (pt.u, pt.v) == (-2, 3)
    inf = ProjectivePoint.from_rational(INFINITY)
    assert (inf.u, inf.v) == (1, 0)


def test_real_roots_sign_analysis():
    rep = real_roots_sign_analysis(parse_poly("T^2+1"))
    assert rep.takes_positive_values and not rep.takes_negative_values
    rep2 = real_roots_sign_analysis(parse_poly("-1*T^2-1"))
    assert rep2.takes_negative_values and not rep2.takes_positive_values
    rep3 = real_roots_sign_analysis(parse_poly("T^2-2"))
    assert rep3.takes_positive_values and rep3.takes_negative_values
    assert rep3.distinct_real_roots == 2


@st.composite
def real_root_products(draw):
    """c * prod f_i^m_i of degree 1..10, c of either sign: factors of degree
    1-3 with any nonzero leading coefficient, multiplicities up to 3."""
    p = IntPolynomial([draw(st.integers(1, 5)) * draw(st.sampled_from([-1, 1]))])
    for _ in range(draw(st.integers(1, 4))):
        f = IntPolynomial(
            draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
            + [draw(st.integers(-4, 4).filter(bool))]
        )
        for _ in range(draw(st.integers(1, 3))):
            if (p * f).degree <= 10:
                p = p * f
    assume(p.degree >= 1)
    return p


def sympy_sign_points(p):
    """One rational point in each open interval of R cut by the real roots of
    p, from sympy's isolating intervals refined until they are disjoint."""
    sp = sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"))
    eps = Fraction(1, 2)
    while True:
        ivs = sorted((Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
                     for (a, b), _ in sp.intervals(eps=sympy.Rational(eps.numerator, eps.denominator)))
        if all(b < a for (_, b), (a, _) in zip(ivs, ivs[1:])):
            break
        eps /= 4
    if not ivs:
        return [Fraction(0)]
    gaps = [(b + a) / 2 for (_, b), (a, _) in zip(ivs, ivs[1:])]
    return [ivs[0][0] - 1] + gaps + [ivs[-1][1] + 1]


# half the coefficients zero: Sturm chains whose degrees drop by more than one
sparse_polys = st.lists(st.one_of(st.just(0), st.integers(-5, 5)), min_size=2, max_size=11).map(IntPolynomial)


@given(st.one_of(real_root_products(), sparse_polys, coeff_lists.map(IntPolynomial)))
@example(parse_poly("T^5+3*T^3+5*T+3"))  # a chain term of negative leading coefficient
@example(parse_poly("3*T^4+5*T-2"))
@example(parse_poly("-3*T^2+6"))  # negative leading coefficient, two real roots
@example(parse_poly("-1*T^4+2*T^2-1"))  # -(T^2 - 1)^2: never positive
@example(parse_poly("-2*T^3+T"))  # odd degree, negative leading coefficient
@example(prod([poly(1, 0, -2)] * 3 + [poly(-1, 0, -1)] * 2))  # (T^2 - 2)^3 (-T^2 - 1)^2
@settings(max_examples=300, deadline=None)
def test_real_root_report_matches_sympy(p):
    """The Sturm counts and sign flags of the real-root report, from the
    squarefree parts and from the irreducible factors, against sympy's root
    count and P's signs between sympy's isolated real roots."""
    if p.degree < 1:
        return
    count = sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x")).count_roots()
    signs = {(v > 0) - (v < 0) for v in map(p, sympy_sign_points(p))}
    want = poly_module.RealRootReport(count, 1 in signs, -1 in signs)
    assert real_roots_sign_analysis(p) == want
    assert poly_module._real_root_report(p, factor_over_Q(p)[1]) == want


def test_real_roots_sign_analysis_never_factorises(monkeypatch):
    calls = []
    monkeypatch.setattr(poly_module, "factor_over_Q", lambda p: calls.append(p))
    rep = real_roots_sign_analysis(parse_poly("T^26-2") * parse_poly("T-1") * parse_poly("T-1"))
    assert rep == poly_module.RealRootReport(3, True, True)
    assert calls == []


@st.composite
def rational_root_polys(draw):
    """(P, its planted rational roots): c * T^z * R * prod (b T - a)^m of
    degree 1..12, with content c, |lc(R)| <= 30, roots a/b with b > 1 among
    the planted ones, some repeated, and P(0) = 0 when z > 0."""
    p = IntPolynomial([draw(st.sampled_from([1, -1, 2, -3, 6, 12]))])
    p = p * IntPolynomial(
        draw(st.lists(st.integers(-30, 30), max_size=5))
        + [draw(st.integers(-30, 30).filter(bool))]
    )
    planted = set()
    z = draw(st.integers(0, 2))
    if z:
        p = p * IntPolynomial([0] * z + [1])
        planted.add(Fraction(0))
    for a, b, m in draw(st.lists(
        st.tuples(st.integers(-10**6, 10**6), st.integers(1, 40), st.integers(1, 3)), max_size=4
    )):
        if p.degree + m <= 12:
            p = prod([IntPolynomial([-a, b])] * m, start=p)
            planted.add(Fraction(a, b))
    assume(1 <= p.degree <= 12)
    return p, sorted(planted)


def rational_roots_oracle(p):
    """The rational roots of p from the degree-1 factors of factor_over_Q."""
    return sorted(Fraction(-f.coeffs[0], f.coeffs[1]) for f, _ in factor_over_Q(p)[1] if f.degree == 1)


MANY_DIVISORS = prod([parse_poly("T^2+1"), poly(151351200, 1), poly(-1, 720720)])


@given(rational_root_polys())
@example((MANY_DIVISORS, [Fraction(-151351200), Fraction(1, 720720)]))
@example((parse_poly("T^26-2") * poly(7, 3), [Fraction(-7, 3)]))
@example((poly(0, 0, 0, 5), [Fraction(0)]))
@example((poly(-2, 0, 1), []))
@settings(max_examples=300, deadline=None)
def test_rational_roots_match_factor_over_Q(case):
    p, planted = case
    got = poly_module._rational_roots(p)
    assert set(planted) <= set(got)
    assert got == rational_roots_oracle(p)


@given(coeff_lists)
def test_eval_proj_matches_dehomogenized(cs):
    p = IntPolynomial(cs)
    if p.degree < 1:
        return
    form = HomogPolynomial.from_poly(p)
    assert form.eval_proj(ProjectivePoint(3, 1)) == p(3)
