import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.fp import factor_mod_p
from speclab.intutil import is_probable_prime, primes_up_to
from speclab.poly import (
    INFINITY,
    HomogPolynomial,
    IntPolynomial,
    ProjectivePoint,
    discriminant,
    discriminant_y,
    factor_over_Q,
    format_poly,
    homogenize_minpoly,
    is_irreducible_over_Q,
    parse_poly,
    real_roots_sign_analysis,
    resultant,
    resultant_forms,
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
    a0 = poly(0, 1)
    a1 = poly(0, 1)
    delta = discriminant_y([a0, a1, poly(0), poly(1)])
    assert delta == poly(0, 0, -27, -4)


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


@given(coeff_lists, st.sampled_from(primes_up_to(60)))
@settings(max_examples=80)
def test_factor_mod_p_reassembles(cs, p):
    f = IntPolynomial(cs)
    if f.degree < 1 or f.lc % p == 0:
        return
    unit, factors = factor_mod_p(f, p, seed=7)
    prod = [unit]
    for g, m in factors:
        assert g.lc == 1
        for _ in range(m):
            acc = [0] * (len(prod) + g.degree)
            for i, x in enumerate(prod):
                for j, y in enumerate(g.coeffs):
                    acc[i + j] = (acc[i + j] + x * y) % p
            prod = acc
    want = [c % p for c in f.coeffs]
    got = prod + [0] * (len(want) - len(prod))
    assert got[: len(want)] == want


def test_factor_mod_p_deterministic():
    f = parse_poly("T^6 + T + 12")
    assert factor_mod_p(f, 101, seed=3) == factor_mod_p(f, 101, seed=3)


def test_irreducibility():
    assert is_irreducible_over_Q(parse_poly("T^2+1"))
    assert not is_irreducible_over_Q(parse_poly("T^2-1"))


def test_projective_points():
    pt = ProjectivePoint(4, -6)
    assert (pt.u, pt.v) == (-2, 3)
    inf = ProjectivePoint.from_rational(INFINITY)
    assert (inf.u, inf.v) == (1, 0)


def test_homogenize_minpoly():
    form = homogenize_minpoly(INFINITY)
    assert form.coeffs_low_v() if hasattr(form, "coeffs_low_v") else True
    from fractions import Fraction

    f2 = homogenize_minpoly(Fraction(3, 2))
    # vanishes exactly at [3 : 2]
    assert f2.eval_proj(ProjectivePoint(3, 2)) == 0
    assert f2.eval_proj(ProjectivePoint(1, 1)) != 0


def test_resultant_forms_coprime_values():
    a = homogenize_minpoly(parse_poly("T^2-2"))
    b = homogenize_minpoly(parse_poly("T^2+1"))
    r = resultant_forms(a, b)
    assert r != 0


def test_real_roots_sign_analysis():
    rep = real_roots_sign_analysis(parse_poly("T^2+1"))
    assert rep.takes_positive_values and not rep.takes_negative_values
    rep2 = real_roots_sign_analysis(parse_poly("-1*T^2-1"))
    assert rep2.takes_negative_values and not rep2.takes_positive_values
    rep3 = real_roots_sign_analysis(parse_poly("T^2-2"))
    assert rep3.takes_positive_values and rep3.takes_negative_values
    assert rep3.distinct_real_roots == 2


@given(coeff_lists)
def test_eval_proj_matches_dehomogenized(cs):
    p = IntPolynomial(cs)
    if p.degree < 1:
        return
    form = HomogPolynomial.from_poly(p)
    assert form.eval_proj(ProjectivePoint(3, 1)) == p(3)
