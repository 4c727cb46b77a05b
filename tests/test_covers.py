from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.numberfields.basis import round_two

from speclab import covers, fp, twists
from speclab.covers import (
    ConsistencyError,
    CubicCover,
    chebotarev_unramified_sieve,
    cubic_field_disc,
    cubic_field_fingerprint,
    cubic_specialize,
    quad_cover,
    quad_specialize,
    s3_survey_predicates,
    splits_completely,
    verify_unramified,
)
from speclab.intutil import is_nth_power, quad_disc, squarefree_part
from speclab.poly import INFINITY, IntPolynomial, discriminant, factor_over_Q, parse_poly


def P(text):
    return parse_poly(text)


def old_rootless_mod_p(R, p):
    """The root test kept as oracle: a Python loop over F_p when p <= deg + 1,
    else gcd(x^p - x, R)."""
    a = fp.reduce(R.coeffs, p)
    if len(a) == 1:
        return True
    if p <= len(a):
        return all(R(t) % p for t in range(p))
    diff = fp._pow_mod([0, 1], p, a, p) + [0, 0]
    diff = fp.reduce([c - (i == 1) for i, c in enumerate(diff)], p)
    return bool(diff) and len(fp.gcd(diff, a, p)) == 1


def old_splits_completely(R, p):
    """The split test kept as oracle: a full factorisation mod p."""
    if R.lc % p == 0:
        return False
    _, facs = fp.factor_mod_p(R, p, seed=0)
    return all(f.degree == 1 and m == 1 for f, m in facs) and sum(
        f.degree * m for f, m in facs
    ) == R.degree


# primes on both sides of the numpy cutoff of fp.root_count
ROOT_TEST_PRIMES = [2, 3, 5, 7, 11, 101, 1009, 4093, 4099, 5003]


@st.composite
def split_candidates(draw):
    """(R, p): half of them products of linear factors, whose roots may
    coincide mod p; the leading coefficient may be divisible by p, and the
    rest of R may vanish mod p, leaving R constant mod p."""
    p = draw(st.sampled_from(ROOT_TEST_PRIMES))
    lc = draw(st.sampled_from([1, -1, 2, -3, p, -2 * p]))
    if draw(st.booleans()):
        roots = draw(st.lists(st.integers(0, 12), max_size=8))
        shifts = draw(st.lists(st.integers(-3, 3), min_size=len(roots), max_size=len(roots)))
        R = IntPolynomial([lc])
        for r, k in zip(roots, shifts):
            R = R * IntPolynomial([-(r + k * p), 1])
    else:
        R = IntPolynomial(draw(st.lists(st.integers(-60, 60), max_size=8)) + [lc])
    if draw(st.integers(0, 7)) == 0:
        R = IntPolynomial([draw(st.integers(1, 9))]) + p * R
    return R, p


class TestQuadratic:
    def test_rejects_nonsquarefree(self):
        with pytest.raises(ValueError):
            quad_cover(P("T^2 - 2*T + 1"))
        with pytest.raises(ValueError):
            quad_cover(P("4*T^2 - 8"))  # square content

    def test_branch_orbits_and_infinity(self):
        odd = quad_cover(P("T^3 - 2"))
        assert odd.infinity_branched
        assert odd.branch_count == 4  # 3 roots plus infinity
        even = quad_cover(P("T^2 - 2"))
        assert not even.infinity_branched
        assert even.branch_count == 2

    def test_specialize_values(self):
        rep = quad_specialize(quad_cover(P("T^3 - 2")), Fraction(1, 2))
        assert rep.m == -30  # sqf((1/8 - 2) * 4) classes
        rep2 = quad_specialize(quad_cover(P("3*T^2 - 2")), INFINITY)
        assert rep2.m == 3
        rep3 = quad_specialize(quad_cover(P("T^2 - 2")), 3)
        assert rep3.m == 7 and rep3.disc_field == 28
        assert rep3.ramified_primes == (2, 7)

    def test_field_disc_rule(self):
        assert quad_specialize(quad_cover(P("T^2 - 2")), 5).m == 23
        rep = quad_specialize(quad_cover(P("T^2 - 2")), 5)
        assert rep.disc_field == 4 * 23  # 23 = 3 mod 4
        rep13 = quad_specialize(quad_cover(P("T^2 + 4")), 3)
        assert rep13.m == 13 and rep13.disc_field == 13  # 1 mod 4


class TestCubic:
    def cover(self):
        t = P("T")
        return CubicCover(P("0"), t, t)  # Y^3 + T Y + T

    def test_delta_and_orbits(self):
        cov = self.cover()
        assert cov.delta == IntPolynomial([0, 0, -27, -4])
        forms = [f.coeffs for f, e in cov.branch_orbits()]
        es = [e for _, e in cov.branch_orbits()]
        assert es == [3, 2, 2]

    def test_cycle_types(self):
        cov = self.cover()
        assert cov.cycle_type_at(Fraction(0)) == [3]
        assert cov.cycle_type_at(Fraction(-27, 4)) == [1, 2]
        assert cov.cycle_type_at(INFINITY) == [1, 2]
        assert cov.cycle_type_at(Fraction(1)) == [1, 1, 1]

    def test_branch_set_exact(self):
        cov = self.cover()
        pts = set()
        for form, _ in cov.branch_orbits():
            pts.add(tuple(form.coeffs))
        assert cov.branch_count == 3  # 0, -27/4, infinity

    def test_specialization_t1(self):
        rep = cubic_specialize(self.cover(), 1)
        assert rep.group == "S3"
        assert rep.d_K == -31 and rep.d_k == -31
        assert abs(rep.disc_field) == 31**3

    def test_group_tags(self):
        # Y^3 - 1 factors: C1 after splitting; Y^3 - 2 at t is C3/S3 cases
        rep = cubic_specialize(CubicCover(P("0"), P("0"), P("-1*T")), 2)
        assert rep.group == "S3"  # x^3 - 2: disc -108, nonsquare
        rep2 = cubic_specialize(CubicCover(P("0"), P("-3"), P("-1*T")), 1)
        assert rep2.group == "C3"  # x^3 - 3x - 1: disc 81


def old_generic_group(cover):
    """The generic group from the factorisation of P(T, Y) over Q(T) and a
    square test of delta by factor_over_Q, as generic_group decided it before
    the S3 witness; kept as oracle."""
    T, Y = sympy.symbols("T Y")
    poly = sum(int(c) * T**i for i, c in enumerate(cover.a0.coeffs))
    poly += Y * sum(int(c) * T**i for i, c in enumerate(cover.a1.coeffs))
    poly += Y**2 * sum(int(c) * T**i for i, c in enumerate(cover.a2.coeffs))
    _, factors = sympy.Poly(poly + Y**3, Y, T, domain=sympy.ZZ).factor_list()
    reducible = len(factors) > 1 or any(m > 1 for _, m in factors)
    cont, dfac = factor_over_Q(cover.delta)
    square = all(m % 2 == 0 for _, m in dfac) and cont > 0 and is_nth_power(cont, 2)
    if reducible:
        return "C1" if square else "C2"
    return "C3" if square else "S3"


@st.composite
def small_cubic_covers(draw):
    """Y^3 + a2 Y^2 + a1 Y + a0 with small coefficients of degree <= 2, half
    of them (Y - r)(Y^2 + b Y + c), so reducible over Q(T)."""
    def small_poly():
        return IntPolynomial(draw(st.lists(st.integers(-3, 3), max_size=3)))

    if draw(st.booleans()):
        r, b, c = small_poly(), small_poly(), small_poly()
        a2, a1, a0 = b - r, c - r * b, -(r * c)
    else:
        a2, a1, a0 = small_poly(), small_poly(), small_poly()
    try:
        return CubicCover(a2, a1, a0)
    except ValueError:
        assume(False)


class TestGenericGroup:
    @pytest.mark.parametrize(
        "a2, a1, a0, group",
        [
            ("0", "T", "T", "S3"),  # Y^3 + TY + T
            ("-1*T", "-1*T - 3", "-1", "C3"),  # Shanks' simplest cubic
            ("-1*T", "-1*T", "T^2", "C2"),  # (Y - T)(Y^2 - T)
            ("0", "-1*T^2", "0", "C1"),  # Y(Y - T)(Y + T)
        ],
    )
    def test_known_groups(self, a2, a1, a0, group):
        cover = CubicCover(P(a2), P(a1), P(a0))
        assert cover.generic_group() == group == old_generic_group(cover)
        assert cover._group_over_QT() == group  # the route without a witness
        assert cover.group_order == {"S3": 6, "C3": 3, "C2": 2, "C1": 1}[group]

    @given(small_cubic_covers())
    @settings(max_examples=150, deadline=None)
    def test_matches_bivariate_route(self, cover):
        assert cover.generic_group() == old_generic_group(cover)


def old_reducible_class(f):
    """Group and field discriminant of a reducible monic cubic from its sympy
    factorisation over Q, kept as oracle."""
    _, factors = factor_over_Q(f)
    quad = [g for g, _ in factors if g.degree == 2]
    if not quad:
        return "C1", 1
    return "C2", quad_disc(squarefree_part(discriminant(quad[0])))


class TestReducibleSpecialization:
    @given(st.integers(-30, 30), st.integers(-12, 12), st.integers(-40, 40))
    @example(2, 0, 1)  # x^2 + 1: the cofactor's discriminant is -2^2
    @example(0, 0, -4)  # three rational roots
    @settings(max_examples=300, deadline=None)
    def test_matches_factorisation(self, r, b, c):
        f = IntPolynomial([-r, 1]) * IntPolynomial([c, b, 1])  # (x - r)(x^2 + b x + c)
        assume(discriminant(f) != 0)
        a0, a1, a2 = f.coeffs[:3]
        cover = CubicCover(IntPolynomial([a2]), IntPolynomial([a1]), IntPolynomial([a0]))
        rep = cubic_specialize(cover, 0)
        assert (rep.group, rep.disc_field) == old_reducible_class(f)


class TestCubicFieldDisc:
    def test_known_fields(self):
        assert cubic_field_disc(P("T^3 - T - 1")) == -23
        assert cubic_field_disc(P("T^3 - 2")) == -108
        assert cubic_field_disc(P("T^3 - 3*T - 1")) == 81
        assert cubic_field_disc(P("T^3 + T - 1")) == -31
        # Dedekind's non-monogenic field, and pure cubics of high 2- and 3-index
        assert cubic_field_disc(P("T^3 - T^2 - 2*T - 8")) == -503
        assert cubic_field_disc(P("T^3 - 128")) == -108
        assert cubic_field_disc(P("T^3 - 1458")) == -108

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            cubic_field_disc(P("T^3 - 8"))
        with pytest.raises(ValueError):
            cubic_field_disc(P("T^3 + T^2"))

    def test_disagreeing_routes_raise(self, monkeypatch):
        assert twists.ConsistencyError is ConsistencyError
        dedekind = covers._dedekind_p_maximal
        monkeypatch.setattr(covers, "_dedekind_p_maximal", lambda f, p: not dedekind(f, p))
        with pytest.raises(ConsistencyError):
            cubic_field_disc(P("T^3 - 2"))

    # a_i = b_i * p^e_i: large p-indices, and forms that vanish mod p midway
    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.lists(st.integers(-20, 20), min_size=3, max_size=3),
        st.lists(st.integers(0, 6), min_size=3, max_size=3),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_round_two(self, p, bs, es):
        a0, a1, a2 = (b * p**e for b, e in zip(bs, es))
        f = IntPolynomial([a0, a1, a2, 1])
        assume(covers._monic_cubic_root(f) is None)
        x = sympy.Symbol("x")
        _, want = round_two(sympy.Poly([1, a2, a1, a0], x, domain=sympy.ZZ))
        assert cubic_field_disc(f) == int(want)

    def test_fingerprint_separates(self):
        f1 = cubic_field_fingerprint(P("T^3 - T - 1"))
        f2 = cubic_field_fingerprint(P("T^3 + T - 1"))
        assert f1 != f2

    def test_fingerprint_same_field(self):
        # x^3 - x - 1 and its shift generate the same field
        g = P("T^3 + 3*T^2 + 2*T - 1")  # (x+1)^3 - (x+1) - 1
        assert cubic_field_fingerprint(P("T^3 - T - 1")) == cubic_field_fingerprint(g)


class TestSurvey:
    def test_survey_cover_passes(self):
        t = P("T")
        pred = s3_survey_predicates(P("0"), t, t)
        assert pred.separable and pred.galois_S3 and pred.regular

    def test_inseparable_fails(self):
        pred = s3_survey_predicates(P("0"), P("0"), P("0"))
        assert not pred.separable and not pred.all_conditions


class TestSieve:
    def test_splits_completely(self):
        f = P("T^2 - 2")
        assert splits_completely(f, 7)  # 2 is a QR mod 7
        assert not splits_completely(f, 5)

    @given(split_candidates())
    @example((IntPolynomial([-2, 0, 1]), 7))
    @example((IntPolynomial([3, -7 * 4, 7 * 5]), 7))  # constant mod p
    @example((IntPolynomial([-1, 0, 0, 0, 1]), 4099))
    @example((IntPolynomial([0, -1, 0, 0, 0, 1]), 5003))
    @settings(max_examples=300, deadline=None)
    def test_splits_matches_factorisation(self, case):
        R, p = case
        assert splits_completely(R, p) == old_splits_completely(R, p)

    def test_sieve_density(self):
        primes, density, _ = chebotarev_unramified_sieve(P("T^2 + 1"), 10**4)
        assert abs(float(density) - 0.5) < 0.03

    def test_rootless_cutoff_between_test_primes(self):
        assert 4093 <= fp._BRUTE_ROOT_P < 4099

    @given(
        st.lists(st.integers(-60, 60), min_size=2, max_size=9).filter(lambda c: c[-1] != 0),
        st.sampled_from(ROOT_TEST_PRIMES),
    )
    @settings(max_examples=200, deadline=None)
    def test_rootless_matches_brute_force(self, coeffs, p):
        R = IntPolynomial(coeffs)
        if all(c % p == 0 for c in coeffs):
            with pytest.raises(ValueError):
                covers._rootless_mod_p(R, p)
            return
        want = all(R(t) % p for t in range(p))
        assert covers._rootless_mod_p(R, p) == want == old_rootless_mod_p(R, p)

    @pytest.mark.parametrize("p", [3, 4093, 4099])
    def test_rootless_edge_cases(self, p):
        rootless = covers._rootless_mod_p
        assert not rootless(P("T^3 + T"), p)  # p <= deg for p = 3; root 0
        # p | lc: the reduction has lower degree
        assert rootless(IntPolynomial([1, 0, 1, p]), p) == all((t * t + 1) % p for t in range(p))
        assert not rootless(IntPolynomial([-1, 1, p]), p)
        # R constant mod p: no root
        assert rootless(IntPolynomial([2, p, 5 * p]), p)
        for vanishing in ([p], [0, -p, 0, 3 * p]):
            with pytest.raises(ValueError):
                rootless(IntPolynomial(vanishing), p)

    def test_chebotarev_sieve_unchanged(self):
        R = P("T^6 - T - 1")
        primes, density, _ = chebotarev_unramified_sieve(R, 5000)
        # pinned from the gcd-only root test
        assert (len(primes), sum(primes), primes[:6]) == (240, 563469, [2, 3, 7, 11, 23, 41])
        assert density == 240 / 669
        want = [p for p in sympy.primerange(2, 5001) if old_rootless_mod_p(R, p)]
        assert primes == want

    def test_verify_unramified(self):
        cov = quad_cover(P("T^2 - 2"))
        primes, _, _ = chebotarev_unramified_sieve(P("T^2 - 2"), 200)
        bad = verify_unramified(cov, primes, {2}, n_samples=60, height=40, seed=5)
        assert bad == []
