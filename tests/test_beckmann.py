from dataclasses import asdict
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from speclab import covers, poly, ramify
from speclab.covers import CubicCover, QuadraticCover, quad_cover
from speclab.intutil import ConsistencyError, factorize
from speclab.poly import IntPolynomial, ProjectivePoint, parse_poly
from speclab.ramify import (
    ConsistencyReport,
    consistency_check,
    exceptional_superset,
    predict,
)


def P(text):
    return parse_poly(text)


def cubic_ttY():
    t = P("T")
    return CubicCover(P("0"), t, t)


def cubic_delta_30():
    """Y^3 - 3 g^2 Y + 2 g^3 + g^5 with g = 2T^3 + T + 1: delta = g^8 h, h of
    degree 6, so delta has degree 30."""
    g = P("2*T^3 + T + 1")
    return CubicCover(P("0"), -3 * g * g, prod([g] * 3, start=P("2")) + prod([g] * 5))


def test_exceptional_supersets_cover_known_bad_primes():
    assert {2} <= exceptional_superset(quad_cover(P("T^2 - 2")))
    assert {2, 3} <= exceptional_superset(quad_cover(P("3*T^2 - 2")))
    assert {2, 3} <= exceptional_superset(cubic_ttY())


def form_sylvester(a, b):
    """Sylvester matrix of two binary forms in their full degrees: deg b rows
    of a's coefficients and deg a rows of b's, highest power of U first."""
    n = a.degree + b.degree
    rows = [[0] * i + list(a.coeffs[::-1]) + [0] * (n - a.degree - 1 - i) for i in range(b.degree)]
    return rows + [[0] * i + list(b.coeffs[::-1]) + [0] * (n - b.degree - 1 - i) for i in range(a.degree)]


def old_exceptional_superset(cover):
    """The exceptional superset with the orbit forms' own primes: their
    leading coefficients in U and V, their discriminants and their pairwise
    resultants (Sylvester in the forms' full degrees); the route before the
    branch polynomial alone was shown to carry them, kept as oracle."""
    nums = set(factorize(cover.group_order))
    base = cover.P if isinstance(cover, QuadraticCover) else cover.delta
    coeffs = [base.content, base.lc, base.trailing]
    if isinstance(cover, CubicCover):
        coeffs += [c for a in (cover.a0, cover.a1, cover.a2) if a.degree >= 0 for c in (a.content, a.lc)]
    sqf = prod((f for f, _ in cover._factors), start=IntPolynomial([1]))
    if sqf.degree >= 1:
        coeffs.append(poly.discriminant(sqf))
    forms = [form for form, _ in cover.branch_orbits()]
    for i, a in enumerate(forms):
        coeffs += [a.coeffs[-1], a.coeffs[0]]
        if a.degree >= 2:
            coeffs.append(poly.discriminant(a.dehomogenize()))
        for b in forms[i + 1 :]:
            coeffs.append(int(sympy.Matrix(form_sylvester(a, b)).det()))
    for n in coeffs:
        if n:
            nums.update(factorize(n))
    return nums


@st.composite
def quadratic_covers(draw):
    """y^2 = c * f_1 * ... * f_k with k <= 3 factors of degree 1 to 3, so
    P has degree <= 8, several irreducible factors and often lc(P) != +-1."""
    factors = [
        IntPolynomial(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=4)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    assume(all(f.degree >= 1 for f in factors))
    P = draw(st.sampled_from([1, -1, 2, -3, 6])) * prod(factors, start=IntPolynomial([1]))
    assume(P.degree <= 8)
    try:
        return QuadraticCover(P)
    except ValueError:
        assume(False)


@st.composite
def cubic_covers(draw):
    """Y^3 + a2 Y^2 + a1 Y + a0 with coefficients of degree <= 2; a0 is
    often a multiple of T, which puts T into delta."""
    a2, a1, a0 = (IntPolynomial(draw(st.lists(st.integers(-4, 4), max_size=3))) for _ in range(3))
    if draw(st.booleans()):
        a0 = a0 * IntPolynomial([0, 1])
    try:
        return CubicCover(a2, a1, a0)
    except ValueError:
        assume(False)


class TestExceptionalSuperset:
    @given(quadratic_covers())
    @example(quad_cover(P("3*T^2 - 2")))
    @example(quad_cover(P("2*T - 1") * P("3*T^2 + 5") * P("T^3 - 2")))  # lc 6, degree 6
    @settings(max_examples=200, deadline=None)
    def test_quadratic_matches_orbit_route(self, cover):
        assert exceptional_superset(cover) == old_exceptional_superset(cover)

    @given(cubic_covers())
    @example(cubic_ttY())  # delta = -T^2 (4T + 27)
    @example(CubicCover(P("T"), P("2*T^2 - 1"), P("3*T")))
    @example(cubic_delta_30())
    @settings(max_examples=150, deadline=None)
    def test_cubic_matches_orbit_route(self, cover):
        assert exceptional_superset(cover) == old_exceptional_superset(cover)


def test_intersection_numbers():
    cov = quad_cover(P("T^2 - 2"))
    # t0 = 3: t^2 - 2 = 7, so I_7 = 1 (order 2) and no other prime meets
    assert predict(cov, 3).entries == ((7, 0, 1, 2),)
    # higher contact: 108^2 - 2 = 11662 = 2 * 7^3 * 17
    assert (7, 0, 3, 2) in predict(cov, 108).entries


def test_intersection_rejects_branch_point():
    cov = quad_cover(P("T^2 - 4"))
    with pytest.raises(ValueError):
        predict(cov, ProjectivePoint(2, 1))


def test_predict_matches_specialization_quadratic():
    cov = quad_cover(P("T^2 - 2"))
    rep = consistency_check(cov, n_samples=120, height=200, seed=11)
    assert rep.ok
    assert rep.mismatches == ()


def test_predict_matches_specialization_cubic():
    rep = consistency_check(cubic_ttY(), n_samples=60, height=60, seed=3)
    assert rep.ok


def test_predict_report_shape():
    cov = quad_cover(P("T^2 - 2"))
    rep = predict(cov, ProjectivePoint(3, 1))
    # t0 = 3: P = 7 meets the orbit T^2 - 2 once, so 7 has order 2 and 5 is absent
    assert rep.entries == ((7, 0, 1, 2),)


def test_cubic_inertia_orders():
    cov = cubic_ttY()
    rep = predict(cov, ProjectivePoint(1, 1))
    # t0 = 1: delta = -31: 31 meets the conjugate-pair orbit 4U + 27V (index 1)
    # at order 1, so its inertia has order 2
    assert rep.entries == ((31, 1, 1, 2),)


def test_consistency_reports_pinned():
    rep = consistency_check(cubic_ttY(), n_samples=200, height=50, seed=5)
    assert rep == ConsistencyReport(samples=200, checked_primes=575, mismatches=())
    rep = consistency_check(quad_cover(P("T^6 - T - 1")), n_samples=200, height=50, seed=5)
    assert rep == ConsistencyReport(samples=200, checked_primes=455, mismatches=())


@pytest.mark.parametrize(
    "a2, a1, a0, checked",
    [
        ("0", "T", "T", 168),  # S3
        ("-1*T", "-1*T - 3", "-1", 95),  # C3, Shanks' simplest cubic
        ("-1*T", "-1*T", "T^2", 107),  # C2, (Y - T)(Y^2 - T)
        ("0", "-1*T^2", "0", 0),  # C1, Y(Y - T)(Y + T)
    ],
    ids=["S3", "C3", "C2", "C1"],
)
def test_consistency_on_each_generic_group(a2, a1, a0, checked):
    """Predicted against exact inertia orders on a cover of each group; the
    C2 cover's specialisations read inertia from their quadratic factor."""
    rep = consistency_check(CubicCover(P(a2), P(a1), P(a0)), n_samples=60, height=30, seed=1)
    assert rep == ConsistencyReport(samples=60, checked_primes=checked, mismatches=())


@pytest.mark.parametrize(
    "cls, cover",
    [(CubicCover, cubic_ttY()), (QuadraticCover, quad_cover(P("T^6 - T - 1")))],
)
def test_consistency_check_computes_orbits_once(monkeypatch, cls, cover):
    calls = []
    orig = cls.branch_orbits

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(cls, "branch_orbits", counted)
    rep = consistency_check(cover, n_samples=20, height=30, seed=1)
    assert rep.samples == 20
    assert len(calls) == 1


@pytest.mark.parametrize("cover", [cubic_ttY(), quad_cover(P("T^6 - T - 1"))])
def test_consistency_check_factors_branch_polynomial_once(monkeypatch, cover):
    factored = []
    orig = poly.factor_over_Q

    def counted(p):
        factored.append(p)
        return orig(p)

    for mod in (poly, covers):
        monkeypatch.setattr(mod, "factor_over_Q", counted)
    rep = consistency_check(cover, n_samples=20, height=30, seed=1)
    assert rep.samples == 20
    base = cover.delta if isinstance(cover, CubicCover) else cover.P
    assert factored == [base]


def specialize(cover, pt):
    if isinstance(cover, QuadraticCover):
        return covers.quad_specialize(cover, pt)
    return covers.cubic_specialize(cover, pt)


def assert_shared_primes_agree(cover, pt):
    """predict given the specialiser's primes equals predict that factorises
    each orbit value, entry by entry."""
    try:
        rep = specialize(cover, pt)
    except ValueError:
        assume(False)
    orbits = cover.branch_orbits()
    want = predict(cover, pt, orbits)
    got = predict(cover, pt, orbits, rep._primes)
    assert got.entries == want.entries
    return rep


class TestSharedPrimes:
    @given(quadratic_covers(), st.integers(-60, 60), st.integers(0, 60))
    @example(quad_cover(P("2*T^2 - 4")), 2, 1)  # content 2 meets the orbit T^2 - 2 at 2
    @example(quad_cover(P("2*T^2 - 4")), 1, 0)  # t0 = oo: the value is lc(P) = 2
    @example(quad_cover(P("6*T^3 - 3*T + 3")), 7, 12)  # odd degree: V meets 2 and 3
    @example(quad_cover(P("2*T - 1") * P("3*T^2 + 5") * P("T^3 - 2")), 1, 0)
    @settings(max_examples=200, deadline=None)
    def test_quadratic_matches_orbit_route(self, cover, u, v):
        assume(u or v)
        rep = assert_shared_primes_agree(cover, ProjectivePoint(u, v))
        assert rep._primes is not None

    @given(cubic_covers(), st.integers(-60, 60), st.integers(1, 60))
    @example(cubic_ttY(), 7, 3)
    @example(CubicCover(P("0"), P("0"), P("-T")), 5, 2)  # Y^3 - T: infinity branched, e = 3
    @example(CubicCover(P("0"), P("0"), P("-T")), 8, 1)  # Y^3 - 8 has the root 2: C2
    @settings(max_examples=150, deadline=None)
    def test_cubic_matches_orbit_route(self, cover, u, v):
        assert_shared_primes_agree(cover, ProjectivePoint(u, v))

    def test_rational_root_keeps_orbit_route(self):
        rep = covers.cubic_specialize(CubicCover(P("0"), P("0"), P("-T")), Fraction(8))
        assert rep.group == "C2" and rep._primes is None

    @pytest.mark.parametrize(
        "cover, t0",
        [
            (quad_cover(P("2*T^2 - 4")), Fraction(2)),
            (quad_cover(P("6*T^3 - 3*T + 3")), Fraction(7, 12)),
            (quad_cover(P("T^6 - T - 1")), Fraction(-13, 10)),
            (cubic_ttY(), Fraction(7, 3)),
            (CubicCover(P("0"), P("0"), P("-T")), Fraction(5, 2)),
        ],
    )
    def test_a_missing_prime_raises(self, cover, t0):
        pt = ProjectivePoint.from_rational(t0)
        rep = specialize(cover, pt)
        orbits = cover.branch_orbits()
        needed = {p for p, _, _, _ in predict(cover, pt, orbits).entries}
        assert needed
        for p in needed:
            with pytest.raises(ConsistencyError):
                predict(cover, pt, orbits, tuple(q for q in rep._primes if q != p))

    def test_reports_compare_without_primes(self):
        rep = covers.quad_specialize(quad_cover(P("T^2 - 2")), Fraction(3))
        plain = covers.SpecializationReport(
            "quadratic", ProjectivePoint(3, 1), "C2", m=7, disc_field=28, ramified_primes=(2, 7)
        )
        assert rep._primes == (7,) and plain._primes is None
        assert rep == plain and hash(rep) == hash(plain)
        assert repr(rep) == repr(plain) and asdict(rep) == asdict(plain)


def test_consistency_check_calls_through_module_attributes(monkeypatch):
    """consistency_check reaches the specialisers and predict by looking them
    up on their modules, where perfbench's tracer binds its wrappers; each
    quadratic report hands predict its primes."""
    calls = {"quad_specialize": 0, "cubic_specialize": 0}
    for name in calls:
        orig = getattr(covers, name)

        def counted(c, pt, orig=orig, name=name):
            calls[name] += 1
            return orig(c, pt)

        monkeypatch.setattr(covers, name, counted)
    given_primes = []
    orig_predict = ramify.predict

    def counted_predict(cover, t0, orbits=None, primes=None):
        given_primes.append(primes)
        return orig_predict(cover, t0, orbits, primes)

    monkeypatch.setattr(ramify, "predict", counted_predict)
    assert consistency_check(quad_cover(P("T^3 - 2")), n_samples=6, height=20, seed=1).ok
    assert calls == {"quad_specialize": 6, "cubic_specialize": 0}
    assert len(given_primes) == 6 and None not in given_primes
    assert consistency_check(cubic_ttY(), n_samples=4, height=20, seed=1).ok
    assert calls["cubic_specialize"] >= 4 and len(given_primes) == 10
