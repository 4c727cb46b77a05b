import random
import tracemalloc
import time
from itertools import repeat
from unittest import mock
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from speclab import census, covers, fp, poly, ramify, twists
from speclab.covers import quad_cover
from speclab.intutil import (
    factorize,
    nfree_part,
    nfree_sieve,
    nth_root,
    primes_up_to,
    squarefree_part,
    valuation,
)
from speclab.poly import (
    IntPolynomial,
    discriminant,
    factor_over_Q,
    parse_poly,
    real_roots_sign_analysis,
)
from speclab.twists import (
    INSOLUBLE,
    SOLUBLE,
    UNKNOWN,
    ConsistencyError,
    HasseScanResult,
    SuperellipticCurve,
    TwistedCurve,
    admissible_prime_scan,
    everywhere_locally_soluble,
    hasse_failure_candidates,
    local_solubility,
    obstruction_certificate,
    search_points,
)
from speclab.twists import LocalSolver, _qp_class


def P(text):
    return parse_poly(text)


PINNED8 = P("T^2+1") * P("T^2+2") * P("T^4+2")


class TestModels:
    def test_degrees_and_genus(self):
        c = SuperellipticCurve(2, P("T^3 - 2"))
        assert (c.N, c.model_degree, c.genus) == (3, 4, 1)
        c2 = SuperellipticCurve(2, PINNED8)
        assert (c2.model_degree, c2.genus) == (8, 3)
        c3 = SuperellipticCurve(3, P("T^4 + 1"))
        assert c3.model_degree == 6 and c3.genus == 3

    def test_stored_factorisation_is_not_compared(self):
        a, b = SuperellipticCurve(2, PINNED8), SuperellipticCurve(2, PINNED8)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"SuperellipticCurve(n=2, P={PINNED8!r})"

    def test_rejects_high_multiplicity(self):
        with pytest.raises(ValueError):
            SuperellipticCurve(2, P("T^2 - 2*T + 1"))

    def test_twist_must_be_nfree(self):
        base = SuperellipticCurve(2, P("T^3 - 2"))
        with pytest.raises(ValueError):
            base.twist(4)
        with pytest.raises(ValueError):
            base.twist(0)


# Factors with rational roots, with irrational real roots only, and with no
# real root, for products with content, sign and multiplicities drawn apart.
FACTOR_POOL = [
    P(s)
    for s in (
        "T", "T - 1", "2*T + 3", "3*T - 1",
        "T^2 - 2", "2*T^2 - 3", "T^3 - 2",
        "T^2 + 1", "T^2 + T + 1", "3*T^2 + 1", "T^4 + 2",
    )
]


def _product(content, factors):
    return prod((f for f, m in factors for _ in range(m)), start=IntPolynomial([content]))


products = st.builds(
    _product,
    st.integers(min_value=-12, max_value=12).filter(bool),
    st.lists(st.tuples(st.sampled_from(FACTOR_POOL), st.integers(min_value=1, max_value=3)),
             min_size=1, max_size=4),
)
dense = st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=9).map(IntPolynomial)


class TestSquarefreeParts:
    """The curve's squarefree parts, real-root report and rational-root flag
    against the route through factor_over_Q that they replace."""

    @given(st.one_of(products, dense).filter(lambda p: 1 <= p.degree <= 8))
    @settings(max_examples=150, deadline=None)
    @example(-6 * P("T^2 + 1") * P("T^2 + 1") * P("T - 1"))  # content -6
    @example(P("T - 1") * P("T - 1") * P("T - 1") * P("T^2 - 2"))  # repeated rational root
    @example(4 * P("T^4 - 2"))  # content 4, irrational real roots only
    @example(PINNED8)  # positive definite
    @example(-P("T^2 + 1") * P("T^2 + 1"))  # negative definite, repeated
    @example(P("2*T^2 - 3") * P("T^2 - 2"))  # real roots, none rational
    def test_match_factor_over_Q(self, p):
        curve = SuperellipticCurve(9, p)  # every multiplicity is below 9
        _, factors = factor_over_Q(p)
        by_mult = {}
        for f, m in factors:
            by_mult[m] = by_mult.get(m, IntPolynomial([1])) * f
        assert len({m for _, m in curve._sqf_parts}) == len(curve._sqf_parts)
        assert {m: g for g, m in curve._sqf_parts} == by_mult
        assert curve._has_rational_root == any(f.degree == 1 for f, _ in factors)
        assert curve._real_report == real_roots_sign_analysis(p)
        sqf = prod((f for f, _ in factors), start=IntPolynomial([1]))
        assert LocalSolver(curve)._disc_sqf == (discriminant(sqf) if sqf.degree >= 1 else 1)

    def test_hasse_scan_of_positive_definite_P_never_factorises(self, monkeypatch):
        cov = quad_cover(PINNED8.shift(2))
        calls = []
        real = poly.factor_over_Q

        def spy(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(poly, "factor_over_Q", spy)
        monkeypatch.setattr(covers, "factor_over_Q", spy)
        twists._solver_cache.clear()
        res = hasse_failure_candidates(cov, 20, 30)
        assert res.soluble_with_points + len(res.candidates) > 0  # the scan did search
        assert calls == []
        # with a real root the flag comes from _rational_roots, not a factorisation
        assert not SuperellipticCurve(2, P("T^4 - 2"))._has_rational_root
        assert SuperellipticCurve(2, P("T^4 - 2") * P("3*T + 7"))._has_rational_root
        assert calls == []

    def test_past_the_factoring_cap(self, monkeypatch):
        # named for the degree cap factor_over_Q once had: a curve of degree
        # 26 or 27 is built from squarefree parts and never factorises P
        calls = []
        for module in (poly, covers):
            monkeypatch.setattr(module, "factor_over_Q", calls.append)
        curve = SuperellipticCurve(2, P("T^26 - 2"))
        assert not curve._has_rational_root
        assert curve._real_report.distinct_real_roots == 2
        assert SuperellipticCurve(2, P("T^26 - 2") * P("3*T + 7"))._has_rational_root
        assert calls == []

    def test_one_decomposition_per_curve(self, monkeypatch):
        # the rational-root flag reads the parts that the curve keeps
        calls = []
        real = poly._squarefree_parts

        def spy(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(poly, "_squarefree_parts", spy)
        monkeypatch.setattr(twists, "_squarefree_parts", spy)
        for p, rational in [
            (P("T^4 - 2"), False),  # real roots, none rational
            (P("T^4 - 2") * P("3*T + 7"), True),
            (P("T - 1") * P("T - 1") * P("T^2 - 2"), True),  # parts from Yun
            (PINNED8, False),  # no real root
        ]:
            calls.clear()
            assert SuperellipticCurve(3, p)._has_rational_root == rational
            assert calls == [p]


class TestSearch:
    def test_known_point(self):
        pts = search_points(SuperellipticCurve(2, P("T^3 - 2")), 10)
        assert any((pt.u, pt.v) == (3, 1) for pt in pts)
        assert all(pt.y != 0 for pt in pts)

    def test_z_zero_point(self):
        # y^2 = 4 T^2 + 1: above z = 0 the value is the leading coefficient 4
        curve = SuperellipticCurve(2, P("4*T^2 + 1"))
        pts = search_points(curve, 3)
        zs = [pt for pt in pts if pt.z_zero]
        assert len(zs) == 1 and zs[0].y == 2
        assert search_points(curve, 3, max_points=1) == zs
        # no cap below 1 lets the z = 0 point through
        for cap in (0, -1):
            assert search_points(curve, 3, max_points=cap) == []

    def test_lind_has_no_small_points(self):
        tw = SuperellipticCurve(2, P("T^4 - 17")).twist(2)
        assert search_points(tw, 150) == []

    def test_tables_built_once_per_curve(self):
        base = SuperellipticCurve(2, PINNED8)
        twists._solver_cache.clear()
        for d in (-7, -3, -1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21):
            search_points(base.twist(d), 20)
        tables = twists._solver(base).tables
        # the 2-adic row: F mod 64 under 64, one (64, 1) table per (allowed residues of d mod 64, H)
        assert 64 in tables and {k[2] for k in tables if isinstance(k, tuple) and k[0] == 64} == {20}
        primes = {k for k in tables if isinstance(k, int) and k != 64}  # one value row per prime
        rows = [k for k in tables if isinstance(k, tuple) and k[0] != 64]  # packed rows per (p, class of d, H)
        assert primes == {p for p, _, _ in rows}
        assert {H for _, _, H in rows} == {20}
        assert len(rows) <= 2 * len(primes)  # squares and nonsquares mod p
        before = dict(tables)
        for d in (-5, 22, 23, 26, 29, 30, 31):
            search_points(base.twist(d), 20)
        assert all(tables[k] is v for k, v in before.items())
        twists._solver_cache.clear()
        assert twists._solver(base).tables == {}


class TestCertificate:
    def test_certificate_value(self):
        cert = obstruction_certificate(SuperellipticCurve(2, P("T^4 + 1")).twist(3))
        assert cert is not None and cert.p == 3 and cert.v_p_d == 1
        assert "impossible" in cert.explain()

    def test_no_certificate_for_lind(self):
        assert obstruction_certificate(SuperellipticCurve(2, P("T^4 - 17")).twist(2)) is None

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            obstruction_certificate(SuperellipticCurve(2, P("T^3 - 2")).twist(3))
        with pytest.raises(ValueError):
            obstruction_certificate(SuperellipticCurve(2, P("T^4 - 1")).twist(3))
        with pytest.raises(ValueError):  # P(0) = 0: the rational root 0
            obstruction_certificate(SuperellipticCurve(2, P("T^4 + 2*T")).twist(3))

    @pytest.mark.parametrize(
        "n,text,lc_prime",
        [
            (2, "T^4 + 1", None),
            (2, "T^2 + 15", None),  # 3 and 5 divide only P(0)
            (2, "T^4 + T + 35", None),  # 5 and 7 divide only P(0)
            (2, "T^6 - T - 1", None),
            (2, "T^8 + 3*T^6 + 4*T^4 + 6*T^2 + 4", None),  # P8
            (2, "3*T^4 + T^2 + 1", 3),  # T^2 + 1 mod 3
            (3, "T^3 - 2", None),
            (3, "T^3 + T + 21", None),
            (3, "2*T^3 + T^2 + T + 1", 2),  # T^2 + T + 1 mod 2
            (3, "5*T^3 + 7", 5),  # the unit 2 mod 5
        ],
    )
    def test_matches_old_predicate(self, n, text, lc_prime):
        """Rootless mod p already implies a unit P(0) mod p, so the certificate
        agrees with its former predicate, which also skipped every p dividing
        P's trailing coefficient; a prime dividing lc stays excluded even
        where P is rootless mod it."""

        def old_certificate(tw):
            base, d = tw.base, tw.d
            a0, aN = base.P.trailing, base.P.lc
            for p in sorted(factorize(d)):
                v = valuation(d, p)
                if not 1 <= v <= n - 1 or a0 % p == 0 or aN % p == 0:
                    continue
                if base.P.coeffs[0] != 0 and covers._rootless_mod_p(base.P, p):
                    return twists.ObstructionCertificate(p, v, n)
            return None

        base = SuperellipticCurve(n, P(text))
        if lc_prime is not None:
            assert base.P.lc % lc_prime == 0 and covers._rootless_mod_p(base.P, lc_prime)
        certs = [obstruction_certificate(base.twist(d)) for d in nfree_sieve(n, 60)]
        assert certs == [old_certificate(base.twist(d)) for d in nfree_sieve(n, 60)]
        assert any(certs)


def _rootless_by_brute_force(R, p):
    """No t in 0..p-1 with R(t) = 0 mod p, by Horner at every residue."""
    for t in range(p):
        acc = 0
        for c in reversed(R.coeffs):
            acc = (acc * t + c) % p
        if acc == 0:
            return False
    return True


class TestCertifyingPrimes:
    """twists._certifying_primes takes one root test per prime for a short
    list of candidates and the trace route of fp._rootless_primes from
    _TRACE_ROUTE_PRIMES candidates on; both routes meet a brute-force root
    test."""

    @staticmethod
    def spy(monkeypatch):
        calls = {"per_prime": 0, "trace": []}
        per_prime, trace = twists._rootless_mod_p, twists._rootless_primes

        def per_prime_spy(R, p):
            calls["per_prime"] += 1
            return per_prime(R, p)

        def trace_spy(R, primes):
            calls["trace"].append(list(primes))
            return trace(R, primes)

        monkeypatch.setattr(twists, "_rootless_mod_p", per_prime_spy)
        monkeypatch.setattr(twists, "_rootless_primes", trace_spy)
        return calls

    @pytest.mark.parametrize(
        "n,text",
        [
            (2, "T^6 - T - 1"),
            (2, "T^8 + 3*T^6 + 4*T^4 + 6*T^2 + 4"),  # P8
            (2, "3*T^4 + T^2 + 1"),
            (2, "15*T^4 + 7*T + 1"),
            (3, "T^3 - 2"),
            (3, "5*T^3 + 7"),
        ],
    )
    @pytest.mark.parametrize("short", [1, 0])
    def test_routes_meet_brute_force(self, monkeypatch, n, text, short):
        """Candidates are the primes prime to lc(P), one short of the
        threshold or at it; the primes dividing lc(P) ride along and are
        dropped. The list is shuffled: the result keeps its order."""
        R = P(text)
        k = twists._TRACE_ROUTE_PRIMES - short
        kept = [p for p in primes_up_to(1000) if R.lc % p][:k]
        primes = kept + list(factorize(R.lc))
        random.Random(k).shuffle(primes)
        kept = [p for p in primes if R.lc % p]
        calls = self.spy(monkeypatch)
        got = twists._certifying_primes(R, n, primes)
        assert got == [p for p in kept if _rootless_by_brute_force(R, p)]
        assert got and len(got) < len(kept)
        if short:
            assert calls == {"per_prime": k, "trace": []}
        else:
            assert calls == {"per_prime": 0, "trace": [kept]}

    def test_lc_filter_drops_below_threshold(self, monkeypatch):
        R = P("15*T^4 + 7*T + 1")
        primes = primes_up_to(1000)[: twists._TRACE_ROUTE_PRIMES]
        calls = self.spy(monkeypatch)
        got = twists._certifying_primes(R, 2, primes)
        kept = [p for p in primes if p not in (3, 5)]
        assert got == [p for p in kept if _rootless_by_brute_force(R, p)]
        assert calls == {"per_prime": len(kept), "trace": []}

    def test_degree_not_divisible_by_n(self, monkeypatch):
        calls = self.spy(monkeypatch)
        primes = primes_up_to(1000)
        assert twists._certifying_primes(P("T^3 - 2"), 2, primes) == []
        assert twists._certifying_primes(P("T^4 + 1"), 3, primes[:3]) == []
        assert calls == {"per_prime": 0, "trace": []}


def _form_value(R, u, v):
    """F(u, v) = v^deg R * R(u / v) for the form F of R."""
    return sum(c * u**j * v ** (R.degree - j) for j, c in enumerate(R.coeffs))


@st.composite
def points_on_twists(draw):
    """(n, P, u, v, d) with n | deg P and a coprime (u, v), v >= 0, where d
    is the n-free part of F(u, v)^(n - 1) for the form F of P: then
    d * F(u, v) is an n-th power, and y^n = d * P(t) has a point over u / v."""
    n = draw(st.sampled_from([2, 3]))
    N = n * draw(st.integers(1, 6 // n))
    lc = draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1]))
    R = IntPolynomial(draw(st.lists(st.integers(-30, 30), min_size=N, max_size=N)) + [lc])
    u, v = draw(st.integers(-40, 40)), draw(st.integers(0, 40))
    assume(gcd(u, v) == 1)
    value = _form_value(R, u, v)
    assume(value != 0)
    try:
        SuperellipticCurve(n, R)
    except ValueError:  # a root of multiplicity >= n
        assume(False)
    return n, R, u, v, nfree_part(value ** (n - 1), n)


@given(points_on_twists())
@example((2, P("T^4 + 1"), 1, 2, 17))  # 17 = 1 mod 8: T^4 + 1 has roots mod 17
@example((2, P("3*T^4 + T^2 + 1"), 1, 1, 5))
@example((3, P("T^3 - 2"), 1, 1, 1))  # d = 1, the untwisted curve
@settings(max_examples=300, deadline=None)
def test_twists_with_a_point_are_never_certified(case):
    """A proof of "no rational point" must never reject a twist that has
    one: neither obstruction_certificate nor the census table certifies the
    twist through a known point."""
    n, R, u, v, d = case
    value = _form_value(R, u, v)
    y = nth_root(d * value, n)
    assert y is not None and y**n == d * value
    base = SuperellipticCurve(n, R)
    if base.separable and not base._has_rational_root:
        assert obstruction_certificate(base.twist(d)) is None
    if n == 2 and abs(d) <= 10**4:
        try:
            cov = quad_cover(R)
        except ValueError:  # not separable, or content not squarefree
            return
        x = max(abs(d), 2)
        assert not census._absence_certifier(cov, x, primes_up_to(x))(d)


class TestLocal:
    def test_qp_nth_power_membership(self):
        assert _qp_class(49, 7, 2) == (0, 1)
        assert _qp_class(7, 7, 2) != (0, 1)
        assert _qp_class(2, 7, 3) != (0, 1)  # 2^((7-1)/3) = 4 mod 7
        assert _qp_class(6, 7, 3) == (0, 1)  # 6^2 = 1 mod 7
        assert _qp_class(17, 2, 2) == (0, 1)  # 17 = 1 mod 16
        assert _qp_class(3, 2, 2) != (0, 1)
        assert (_qp_class(10, 3, 3) == (0, 1)) == any(
            pow(x, 3, 27) == 10 % 27 for x in range(27) if x % 3)

    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.sampled_from([2, 3, 4, 6]),
        st.integers(-3000, 3000).filter(bool),
        st.integers(-3000, 3000).filter(bool),
        st.integers(1, 500),
        st.integers(0, 2),
    )
    @example(2, 3, 3, 1, 1, 0)  # p = 2 with s = 0: every odd unit is a cube
    @example(2, 2, -7, 1, 1, 0)  # -7 = 1 mod 8 is a square in Q_2
    @example(2, 4, 9, 1, 3, 1)  # 9 = 3^2 is a square in Q_2 but not a fourth power
    @example(3, 6, -3**6 * 10, 10, 2, 1)  # p | n and a negative value
    @settings(max_examples=400, deadline=None)
    def test_qp_class_against_brute_force(self, p, n, a, b, x, j):
        """The class key against n-th powers mod p^(2s+3), s = v_p(n): an
        integer is an n-th power in Q_p iff its valuation is 0 mod n and its
        unit part is an n-th power of a unit mod p^k for any k > 2s."""
        s = valuation(n, p) if n % p == 0 else 0
        mod = p ** (2 * s + 3)
        powers = {pow(y, n, mod) for y in range(1, mod) if y % p}

        def is_power(val):
            w = valuation(val, p)
            return w % n == 0 and (val // p**w) % mod in powers

        assert (_qp_class(a, p, n) == (0, 1)) == is_power(a)
        # a and b share a class iff a / b, like a * b^(n-1), is an n-th power
        assert (_qp_class(a, p, n) == _qp_class(b, p, n)) == is_power(a * b ** (n - 1))
        if x % p:
            assert _qp_class(a * x**n * p ** (n * j), p, n) == _qp_class(a, p, n)

    @pytest.mark.parametrize("place", ["abc", "", "2.5", 4, -3])
    def test_bad_place_is_named(self, place):
        tw = SuperellipticCurve(2, P("T^2 + 1")).twist(-1)
        with pytest.raises(ValueError, match="place must be 'infinity' or a prime"):
            local_solubility(tw, place)

    def test_real_place(self):
        assert local_solubility(SuperellipticCurve(2, P("T^2+1")).twist(-1), "infinity") == INSOLUBLE
        assert local_solubility(SuperellipticCurve(3, P("T^2+1")).twist(-1), "infinity") == SOLUBLE

    @pytest.mark.parametrize(
        "n,poly",
        [
            (2, PINNED8),
            (2, P("T^3 - 2")),
            (4, P("T^4 - 6*T^2 + 8*T - 3")),  # (T-1)^3 (T+3): odd multiplicities
            (4, P("T^4 - 2*T^3 + 2*T^2 - 2*T + 1")),  # (T-1)^2 (T^2+1)
        ],
        ids=["P8", "T^3-2", "(T-1)^3(T+3)", "(T-1)^2(T^2+1)"],
    )
    def test_real_place_matches_direct_analysis(self, n, poly):
        base = SuperellipticCurve(n, poly)
        solver = LocalSolver(base)
        for d in range(-30, 31):
            if d:
                direct = real_roots_sign_analysis(d * base.P).takes_positive_values
                assert solver.at_infinity(d) == (SOLUBLE if direct else INSOLUBLE)

    def test_els_statuses(self):
        st_, _ = everywhere_locally_soluble(SuperellipticCurve(2, P("T^4+1")).twist(3))
        assert st_ == INSOLUBLE
        st2, detail = everywhere_locally_soluble(SuperellipticCurve(2, P("T^4-17")).twist(2))
        assert st2 == SOLUBLE and all(v == SOLUBLE for v in detail.values())

    def test_odd_degree_fullness_sample(self):
        base = SuperellipticCurve(2, P("T^3 - 2"))
        for d in (-1, 2, 3, -5, 6, 7, -10, 11, 13, -14):
            st_, _ = everywhere_locally_soluble(base.twist(d))
            assert st_ == SOLUBLE

    def test_shortcut_agrees_with_bfs(self):
        base = SuperellipticCurve(2, PINNED8)
        solver = LocalSolver(base)
        checked = 0
        for p in (101, 103, 107, 109, 113):
            if solver._good_reduction_shortcut(5, p):
                assert solver._walk(5, p) == SOLUBLE
                checked += 1
        assert checked >= 3

    def test_cache_consistency_between_class_mates(self):
        base = SuperellipticCurve(2, P("T^3 - 2"))
        solver = LocalSolver(base)
        # 5 and 45 = 5 * 9 sit in the same class of Q_3^* modulo squares
        assert solver.at_prime(5, 3) == solver.at_prime(45, 3)

    def test_chart_memory_grows_with_depth_not_p(self):
        # 51893 divides disc(P), so no shortcut applies and the chart walk
        # refines at the root; listing all p children of a branch up front
        # took about 4.9 MB here, the lazy walk about 1 kB
        solver = LocalSolver(SuperellipticCurve(2, P("3*T^5+4*T^4+2*T^3-T^2-5*T-1")))
        tracemalloc.start()
        try:
            assert solver.at_prime(-1, 51893) == SOLUBLE
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5


def _old_bad_primes(solver, d):
    """bad_primes as it stood: one factorisation of the whole product per d."""
    base = solver.base
    nums = base.n * d * base.P.lc * base.P.content * solver._disc_sqf
    return sorted(set(factorize(nums)) | set(primes_up_to(solver._weil_floor)))


def _old_shortcut(solver, d, p):
    """The good-reduction shortcut predicate as it stood."""
    base = solver.base
    if p == 2 or not base.separable:
        return False
    if (base.n * d * base.P.lc * base.P.content * solver._disc_sqf) % p == 0:
        return False
    return p >= solver._weil_floor


@st.composite
def curves_with_twists(draw):
    """y^n = P with content >= 2 (so |lc| >= 2), multiplicities up to n - 1
    (P is not separable when one is above 1), and up to 6 n-free |d| <= 500."""
    n = draw(st.sampled_from([2, 3, 4]))
    factors = draw(st.lists(st.sampled_from(FACTOR_POOL), min_size=1, max_size=3,
                            unique_by=lambda f: f.coeffs))
    parts = [(f, draw(st.integers(1, n - 1))) for f in factors]
    content = draw(st.integers(2, 12)) * draw(st.sampled_from([1, -1]))
    ds = draw(st.lists(st.integers(-500, 500).filter(bool), min_size=1, max_size=6))
    return n, _product(content, parts), [nfree_part(d, n) for d in ds]


def _legendre(a, p):
    """Euler's criterion at an odd prime p: 1, -1, or 0 when p | a."""
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def _old_admissible_prime_scan(cover, t0, bound):
    """admissible_prime_scan as it stood with a Legendre symbol that proved p
    prime, a guard on q | m0 n0 and a separate test of 2, kept as an oracle."""
    base = SuperellipticCurve(2, cover.P)
    rep = covers.quad_specialize(cover, t0)
    m0 = rep.m
    S = ramify.exceptional_superset(cover) | {2}
    S1 = set(rep.ramified_primes)
    solver = twists._solver(base)
    restrictive = set()
    for q in primes_up_to(solver._weil_floor):
        if q in S or q in S1:
            continue
        n0 = next(c for c in range(2, q) if _legendre(c, q) != 1)
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
        if _legendre(m0, p) != 1:
            continue
        if need_two and _legendre(2, p) != 1:
            continue
        if any(_legendre(ell, p) != 1 for ell in ell_set if ell != p):
            continue
        if not covers.splits_completely(orbit_poly, p):
            continue
        d = squarefree_part(m0 * p)
        status, _detail = everywhere_locally_soluble(base.twist(d))
        out.append((p, d, status))
    return out


class TestScans:
    def test_admissible_scan_pinned(self):
        cov = quad_cover(PINNED8)
        rows = admissible_prime_scan(cov, 1, 1200)
        assert [(p, d) for p, d, _ in rows][:3] == [(193, 386), (337, 674), (457, 914)]
        assert all(st_ == SOLUBLE for _, _, st_ in rows)

    @pytest.mark.parametrize("shift,t0", [(0, 1), (1, 1), (2, -3)])
    def test_admissible_scan_matches_old_scan(self, shift, t0):
        cov = quad_cover(PINNED8.shift(shift))
        rows = admissible_prime_scan(cov, t0, 3000)
        assert rows  # the comparison sees emitted primes
        assert rows == _old_admissible_prime_scan(cov, t0, 3000)

    def test_admissible_scan_rejects_where_the_orbit_does_not_split(self, monkeypatch):
        # T^4 + T + 1 at t0 = 1: 20 primes pass every square condition, yet
        # T^4 + T + 1 has fewer than 4 roots mod them; 193 is emitted
        cov, rejected = quad_cover(P("T^4 + T + 1")), []
        splits = twists.splits_completely

        def spy(R, p):
            if not splits(R, p):
                rejected.append(p)
                return False
            return True

        monkeypatch.setattr(twists, "splits_completely", spy)
        rows = admissible_prime_scan(cov, 1, 3000)
        assert rows == [(193, 579, SOLUBLE)]
        assert rejected[:4] == [97, 241, 337, 409] and len(rejected) == 20
        assert all(fp.root_count(P("T^4 + T + 1"), p) < 4 for p in rejected)

    def test_admissible_scan_empty_below_least(self):
        cov = quad_cover(PINNED8)
        assert admissible_prime_scan(cov, 1, 190) == []

    def test_scan_rejects_odd_degree(self):
        with pytest.raises(ValueError):
            admissible_prime_scan(quad_cover(P("T^3 - 2")), 1, 100)

    def test_scan_rejects_rational_branch_point(self):
        with pytest.raises(ValueError):
            admissible_prime_scan(quad_cover(P("T^4 - 1")), 2, 100)

    def test_hasse_scan_finds_candidates(self):
        cov = quad_cover(PINNED8)
        res = hasse_failure_candidates(cov, 40, 300)
        assert res.x == 40 and res.H == 300
        assert len(res.candidates) >= 1
        assert res.locally_obstructed >= 1

    def test_hasse_scan_pinned(self):
        res = hasse_failure_candidates(quad_cover(PINNED8), 40, 300)
        assert res == HasseScanResult(
            x=40,
            H=300,
            candidates=(29, 37, 39),
            soluble_with_points=2,
            locally_obstructed=46,
            unknown=(),
        )


    @pytest.mark.parametrize("H", [0, -1])
    def test_hasse_scan_rejects_height_below_1(self, monkeypatch, H):
        # at H = 0 no twist has a searched point, so y^2 = 2(t^4 + 1), with
        # the point (1 : 1), would be reported as a candidate
        cov = quad_cover(P("T^4 + 1"))
        assert search_points(SuperellipticCurve(2, cov.P).twist(2), 1)
        assert 2 not in hasse_failure_candidates(cov, 10, 1).candidates
        monkeypatch.setattr(twists, "everywhere_locally_soluble", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match=r"need H >= 1"):
            hasse_failure_candidates(cov, 10, H)

    def test_hasse_scan_below_height_100(self):
        # y^2 = 43(t^4 + 3) is everywhere locally soluble; its smallest
        # points are (+-20 : 1), so it has a point of height 10 only when
        # the search runs to 20
        cov = quad_cover(P("T^4 + 3"))
        assert search_points(SuperellipticCurve(2, cov.P).twist(43), 20)[0].u == -20
        assert hasse_failure_candidates(cov, 45, 10) == HasseScanResult(
            x=45,
            H=10,
            candidates=(37, 43),
            soluble_with_points=3,
            locally_obstructed=52,
            unknown=(),
        )
        assert 43 not in hasse_failure_candidates(cov, 45, 20).candidates

    @pytest.mark.parametrize("H", [5, 10, 20, 50])
    def test_hasse_scan_matches_per_twist_search(self, H):
        for poly, x in ((P("T^4 + 3"), 45), (PINNED8, 40)):
            base = SuperellipticCurve(2, poly)
            soluble = [
                d
                for d in nfree_sieve(2, x)
                if everywhere_locally_soluble(base.twist(d))[0] == SOLUBLE
            ]
            # the uncapped search: every point up to H, not just the first
            want = tuple(d for d in soluble if not search_points(base.twist(d), H))
            res = hasse_failure_candidates(quad_cover(poly), x, H)
            assert res.candidates == want
            assert res.soluble_with_points == len(soluble) - len(want)

    def test_hasse_scan_searches_each_twist_once(self, monkeypatch):
        calls = []
        search = twists.search_points

        def spy(tw, H, max_points=None):
            calls.append((tw.d, H, max_points))
            return search(tw, H, max_points=max_points)

        monkeypatch.setattr(twists, "search_points", spy)
        res = hasse_failure_candidates(quad_cover(PINNED8), 40, 300)
        searched = res.soluble_with_points + len(res.candidates)
        assert searched == len(calls) == len({d for d, _, _ in calls})
        assert {(H, k) for _, H, k in calls} == {(300, 1)}
        assert set(res.candidates) <= {d for d, _, _ in calls}
        assert not set(res.unknown) & {d for d, _, _ in calls}


class TestOneHomePerFact:
    """The solver derives each fact of its curve once: the bad-prime set,
    the curve's constant product and the two charts."""

    @given(curves_with_twists())
    @settings(max_examples=150, deadline=None)
    @example((3, 2 * P("T^2 + 1") * P("T^2 + 1") * P("T^2 + T + 1"), [1, -2, 6, 9]))
    @example((4, -6 * P("T - 1") * P("T - 1") * P("T - 1") * P("T^2 - 2"), [2, -3, 4, 500]))
    @example((2, 4 * P("3*T^2 + 1") * P("T^4 + 2"), [-1, 3, 5, -7]))
    def test_match_old_formulas(self, case):
        n, poly, ds = case
        solver = LocalSolver(SuperellipticCurve(n, poly))
        floor = solver._weil_floor
        base = solver.base
        constants = n * base.P.lc * base.P.content * solver._disc_sqf
        # 2, the primes of n and of the constants, composites and primes
        # around the Weil floor (from 2 up: a genus-0 floor can be 1), and
        # the primes of each d
        places = {2, 4, 6, *factorize(n), *factorize(constants), *range(max(floor - 3, 2), floor + 40)}
        for d in ds:
            places.update(factorize(d))
        for d in ds:
            assert solver.bad_primes(factorize(d)) == _old_bad_primes(solver, d)
            for p in sorted(places):
                assert solver._good_reduction_shortcut(d, p) == _old_shortcut(solver, d, p), p

    @staticmethod
    def _spy_factorize(monkeypatch):
        calls = []
        real = twists.factorize

        def spy(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(twists, "factorize", spy)
        return calls

    def test_bad_primes_factorise_d_only(self, monkeypatch):
        base = SuperellipticCurve(2, PINNED8)
        product = 2 * base.P.lc * base.P.content * discriminant(PINNED8)
        calls = self._spy_factorize(monkeypatch)
        solver = LocalSolver(base)
        ds = nfree_sieve(2, 40)[:50]
        assert len(ds) == 50
        lists = [solver.bad_primes(base.twist(d)._d_factors) for d in ds]
        assert lists == [_old_bad_primes(solver, d) for d in ds]
        assert calls.count(product) == 1
        assert [m for m in calls if m != product] == ds

    def test_single_place_and_search_never_factorise_the_curve(self, monkeypatch):
        base = SuperellipticCurve(2, P("T^4 + 1"))
        product = 2 * discriminant(base.P)
        calls = self._spy_factorize(monkeypatch)
        twists._solver_cache.clear()
        tw = base.twist(3)
        assert local_solubility(tw, 5) == SOLUBLE
        assert local_solubility(tw, 3) == INSOLUBLE
        assert obstruction_certificate(tw).p == 3
        assert search_points(tw, 200) == []
        assert search_points(base.twist(2), 50, max_points=1)
        assert calls and all(m % product for m in calls)

    def test_derivatives_built_once_per_solver(self, monkeypatch):
        bases = [SuperellipticCurve(2, PINNED8), SuperellipticCurve(3, P("T^4 + T + 3"))]
        derived = []
        real = IntPolynomial.derivative

        def spy(f):
            derived.append(f)
            return real(f)

        monkeypatch.setattr(IntPolynomial, "derivative", spy)
        charts = []
        chart = LocalSolver._chart

        def chart_spy(self, *args):
            charts.append(args)
            return chart(self, *args)

        monkeypatch.setattr(LocalSolver, "_chart", chart_spy)
        for base in bases:
            radical = prod((f for f, _ in base._sqf_parts), start=IntPolynomial([1]))
            derived.clear()
            discriminant(radical)
            by_disc = len(derived)
            derived.clear()
            twists._solver_cache.clear()
            solver = twists._solver(base)
            assert len(derived) == 2 + by_disc
            charts.clear()
            # the images walk each prime once, so the primes of d past the
            # Weil floor bring the walks
            for d in (-7, -2, -1, 2, 3, 5, 6, 7, 10, 11, *primes_up_to(700)[15:]):
                for p in solver.bad_primes(factorize(d)):
                    solver._walk(d, p)
                everywhere_locally_soluble(base.twist(d))
                search_points(base.twist(d), 30)
            assert len(charts) > 100
            assert len(derived) == 2 + by_disc


# Non-separable P: the shortcut refuses them, yet everywhere_locally_soluble
# lists only the bad primes of d, so the walk must itself find the primes past
# them soluble.
NON_SEPARABLE = [
    (3, P("T^2 + 1") * P("T^2 + 1") * P("T^2 + 2")),
    (3, P("T^3 - 2") * P("T^3 - 2")),
    (4, P("T^2 + 3") * P("T^2 + 3") * P("T^2 + 3") * P("T^2 + 1")),
    (3, P("T - 1") * P("T - 1") * P("T^4 + T + 1")),
]


@pytest.mark.parametrize(
    "n,poly", NON_SEPARABLE,
    ids=["(T^2+1)^2(T^2+2)", "(T^3-2)^2", "(T^2+3)^3(T^2+1)", "(T-1)^2(T^4+T+1)"],
)
def test_non_separable_places_past_the_list_are_soluble(n, poly):
    base = SuperellipticCurve(n, poly)
    solver = LocalSolver(base)
    assert not base.separable
    listed = set(solver.bad_primes({}))
    past = [p for p in primes_up_to(10 * solver._weil_floor) if p not in listed][:25]
    assert len(past) == 25 and not any(solver._good_reduction_shortcut(1, p) for p in past)
    for d in (1, 2, 5, -7):
        assert [solver._walk(d, p) for p in past] == [SOLUBLE] * 25


@given(st.integers(min_value=-60, max_value=60).filter(lambda d: d != 0))
@settings(max_examples=25, deadline=None)
def test_found_point_implies_soluble_everywhere(d):
    from speclab.intutil import squarefree_part

    d = squarefree_part(d)
    if d == 1:
        d = -1
    base = SuperellipticCurve(2, P("T^3 - 2"))
    tw = base.twist(d)
    pts = search_points(tw, 25)
    if pts:
        st_, _ = everywhere_locally_soluble(tw)
        assert st_ == SOLUBLE


# ---------------------------------------------------------------------------
# The closed form at tame primes dividing d, and the walk's closing test


def old_chart(self, g, gp, c, p, cap, start_at_multiple):
    """LocalSolver._chart as it stood, closing a branch only once
    j >= v(g(a)) + k0; kept as the oracle of the sharper closing test."""
    n = self.base.n
    k0 = 2 * (valuation(n, p) if n % p == 0 else 0) + 1
    vc = valuation(c, p)
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
                return SOLUBLE
            unknown = True
            continue
        vga = valuation(ga, p)
        if gpa != 0:
            vgpa = valuation(gpa, p)
            if vga > 2 * vgpa and vga - vgpa >= j:
                return SOLUBLE
        w = vc + vga
        if vc + j >= w + k0:
            if _qp_class(c * ga, p, n) == (0, 1):
                return SOLUBLE
            continue
        if j >= cap:
            unknown = True
            continue
        step = p**j
        stack.append(zip(range(a + (p - 1) * step, a - 1, -step), repeat(j + 1)))
    return UNKNOWN if unknown else INSOLUBLE


def per_d_chart(self, g, gp, c, p, cap, start_at_multiple):
    """LocalSolver._chart as it stood before the local image: one walk for
    one twist c, stopped at its first soluble branch, with the closing test
    min(v(g'(a)) + j, 2j) >= v(g(a)) + k0; kept as the oracle of the image."""
    n = self.base.n
    k0 = 2 * (valuation(n, p) if n % p == 0 else 0) + 1
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
                return SOLUBLE
            unknown = True
            continue
        vga = valuation(ga, p)
        spread = 2 * j
        if gpa != 0:
            vgpa = valuation(gpa, p)
            if vga > 2 * vgpa and vga - vgpa >= j:
                return SOLUBLE
            spread = min(spread, vgpa + j)
        if spread >= vga + k0:
            if _qp_class(c * ga, p, n) == (0, 1):
                return SOLUBLE
            continue
        if j >= cap:
            unknown = True
            continue
        step = p**j
        stack.append(zip(range(a + (p - 1) * step, a - 1, -step), repeat(j + 1)))
    return UNKNOWN if unknown else INSOLUBLE


def per_d_walk(solver, d, p, chart=per_d_chart):
    """LocalSolver._walk as it stood before the local image: the z = 0
    point, then both charts of the model walked for d alone, g = P(t) over
    Z_p and g the reversed model form over pZ_p, to a cap that counts
    v_p(d) and 4 levels past the valuations that can hide a root."""
    base, n = solver.base, solver.base.n
    cap = (
        2 * (valuation(n, p) if n % p == 0 else 0)
        + (valuation(solver._disc_sqf, p) if solver._disc_sqf % p == 0 else 0)
        + valuation(d, p)
        + (valuation(base.P.content, p) if base.P.content % p == 0 else 0)
        + 4
    )
    if base.N % n == 0 and _qp_class(d * base.P.lc, p, n) == (0, 1):
        return SOLUBLE
    unknown = False
    for g, start_at_multiple in ((base.P, False), (base.P.reverse(base.model_degree), True)):
        st_ = chart(solver, g, g.derivative(), d, p, cap, start_at_multiple)
        if st_ == SOLUBLE:
            return SOLUBLE
        unknown |= st_ == UNKNOWN
    return UNKNOWN if unknown else INSOLUBLE


@st.composite
def local_cases(draw):
    """y^n = P, separable or not (multiplicities up to n - 1), a prime
    p <= 13 and d = p^v * u with v in 0..3 and u prime to p."""
    n = draw(st.sampled_from([2, 3, 4]))
    factors = draw(st.lists(st.sampled_from(FACTOR_POOL), min_size=1, max_size=3,
                            unique_by=lambda f: f.coeffs))
    parts = [(f, draw(st.integers(1, n - 1))) for f in factors]
    content = draw(st.sampled_from([1, -1, 2, -3, 5, 6]))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    u = draw(st.integers(-40, 40).filter(lambda u: u % p))
    return n, _product(content, parts), p, p ** draw(st.integers(0, 3)) * u


class _OverBudget(Exception):
    pass


def _budgeted(chart, nodes):
    """chart, stopped with _OverBudget once a walk has visited `nodes`
    nodes: at p = 13 with a deep cap the old walk can take a minute."""

    def run(self, g, *args):
        left = iter(range(nodes))

        def counted(a):
            if next(left, None) is None:
                raise _OverBudget
            return g(a)

        return chart(self, counted, *args)

    return run


def _walks(n, poly, p, d, nodes=5000):
    """The verdict at p without closed form or shortcut, read from the local
    image, and by the per-d walk with old_chart, None where that walk ran
    over budget."""
    solver = LocalSolver(SuperellipticCurve(n, poly))
    new = solver._walk(d, p)
    try:
        old = per_d_walk(solver, d, p, _budgeted(old_chart, nodes))
    except _OverBudget:
        old = None
    return new, old


@given(local_cases())
@settings(max_examples=300, deadline=None)
@example((2, PINNED8, 2, -1))
@example((2, PINNED8, 2, 6))
@example((3, P("T^3 - 2"), 3, 9))
@example((4, P("T^2 + 1") * P("T^2 + 1") * P("T^2 + 1") * P("T^4 + 2"), 2, 8))
def test_sharper_closing_agrees_with_old_walk(case):
    """Wherever the old walk decides, the new one gives the same verdict."""
    new, old = _walks(*case)
    if old in (SOLUBLE, INSOLUBLE):
        assert new == old


def test_sharper_closing_decides_where_old_walk_capped():
    # y^4 = 175 (T^2 + 1)^3 at 5: the old walk leaves a branch at its cap
    cube = P("T^2 + 1") * P("T^2 + 1") * P("T^2 + 1")
    assert _walks(4, cube, 5, 175) == (SOLUBLE, UNKNOWN)


@st.composite
def image_cases(draw):
    """y^n = P with multiplicities up to n - 1 (so multiple roots once
    n > 2), a prime p <= 13, and 4 to 8 distinct n-free twists p^v * u with
    v <= min(n - 1, 3) and u prime to p, in the order drawn."""
    n = draw(st.sampled_from([2, 3, 4, 6]))
    factors = draw(st.lists(st.sampled_from(FACTOR_POOL), min_size=1, max_size=3,
                            unique_by=lambda f: f.coeffs))
    parts = [(f, draw(st.integers(1, n - 1))) for f in factors]
    content = draw(st.sampled_from([1, -1, 2, -3, 5, 6]))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    twist = st.tuples(
        st.integers(0, min(n - 1, 3)),
        st.integers(-60, 60).filter(lambda u: u % p).map(lambda u: nfree_part(u, n)),
    ).map(lambda vu: p ** vu[0] * vu[1])
    ds = draw(st.lists(twist, min_size=4, max_size=8, unique=True))
    return n, _product(content, parts), p, ds


@given(image_cases())
@settings(max_examples=200, deadline=None)
# multiple roots at p, asked first for a twist prime to p and then for
# twists with v_p(d) >= 1
@example((4, P("24*T^8+72*T^7+126*T^6+216*T^5+234*T^4+216*T^3+186*T^2+72*T+54"),
          5, [23, -3375, 3500, 7]))
@example((6, P("6*T^10+30*T^9+90*T^8+180*T^7+270*T^6+306*T^5+270*T^4+180*T^3+90*T^2+30*T+6"),
          7, [-161, 441, 1078, 3]))
def test_image_agrees_with_per_d_walk(case):
    """Twists asked of one solver in turn, through at_prime and _walk, so
    that the image at p resumes its walk mid-tree: wherever the per-d walk
    decides, the image gives its verdict."""
    n, poly, p, ds = case
    solver = LocalSolver(SuperellipticCurve(n, poly))
    for i, d in enumerate(ds):
        verdict = solver._walk(d, p) if i % 2 else solver.at_prime(d, p)
        try:
            # near a root of multiplicity k the per-d walk to depth cap can
            # visit about p^(cap / 2) branches
            old = per_d_walk(solver, d, p, _budgeted(per_d_chart, 20000))
        except _OverBudget:
            continue
        if old in (SOLUBLE, INSOLUBLE):
            assert verdict == old, d


def _spy_charts(monkeypatch):
    charts = []
    chart = LocalSolver._chart

    def spy(self, *args):
        charts.append(args)
        return chart(self, *args)

    monkeypatch.setattr(LocalSolver, "_chart", spy)
    return charts


@st.composite
def tame_cases(draw):
    """y^n = P with P separable and n | deg P, and a prime p <= 97 dividing
    neither n * lc * content * disc nor d / p^v, with v = v_p(d) not 0 mod n."""
    n = draw(st.sampled_from([2, 3, 4]))
    factors = draw(st.lists(st.sampled_from(FACTOR_POOL), min_size=1, max_size=4,
                            unique_by=lambda f: f.coeffs))
    poly = _product(draw(st.sampled_from([1, -1, 2, -3])), [(f, 1) for f in factors])
    assume(poly.degree % n == 0)
    solver = LocalSolver(SuperellipticCurve(n, poly))
    primes = [p for p in primes_up_to(97) if solver._constants % p]
    p = draw(st.sampled_from(primes))
    v = draw(st.integers(1, 2 * n - 1).filter(lambda v: v % n))
    u = draw(st.integers(-30, 30).filter(lambda u: u % p))
    return solver, p, p**v * u


@given(tame_cases())
@settings(max_examples=200, deadline=None)
@example((LocalSolver(SuperellipticCurve(2, P("T^4 + 1"))), 3, 3))  # rootless: insoluble
@example((LocalSolver(SuperellipticCurve(2, P("T^2 - 2"))), 7, -7))  # 3^2 = 2 mod 7: soluble
def test_closed_form_matches_walk(case):
    """The closed form decides without a walk, as the walk decides."""
    solver, p, d = case
    with mock.patch.object(LocalSolver, "_chart", side_effect=AssertionError("walked")):
        closed = solver._decide(d, p)
    assert closed in (SOLUBLE, INSOLUBLE)
    assert solver._walk(d, p) == closed


@pytest.mark.parametrize(
    "n,poly,p,d,want",
    [
        # n does not divide deg P: z = 0 is a root of z^2 on the chart at
        # infinity. gcd(n, deg P) = 2: the points above t = oo are defined
        # over Q_3(sqrt 3), and the curve has no Q_3 point
        (4, P("T^2 + 1"), 3, 3, INSOLUBLE),
        (3, P("T^2 + 1") * P("T^2 + 1") * P("T^2 + 2"), 7, 7, INSOLUBLE),  # not separable
        (2, P("T^4 + 2"), 2, 2, SOLUBLE),  # p | n
        (3, P("T^3 - 3"), 3, 3, INSOLUBLE),  # p | n
        (2, P("T^2 + 3"), 3, -3, INSOLUBLE),  # p | disc: a double root mod 3, yet insoluble
        (2, P("T^2 + 5"), 5, 5, SOLUBLE),  # p | disc: a double root mod 5
    ],
    ids=["T^2+1,n=4", "non-separable", "p=n=2", "p=n=3", "T^2+3,p=3", "T^2+5,p=5"],
)
def test_closed_form_does_not_fire(monkeypatch, n, poly, p, d, want):
    solver = LocalSolver(SuperellipticCurve(n, poly))
    charts = _spy_charts(monkeypatch)
    verdict = solver.at_prime(d, p)
    assert charts, "decided without a walk"
    assert verdict == solver._walk(d, p) == want
    assert (_residue_witness(n, poly, p, d) is None) == (want == INSOLUBLE)


@pytest.mark.parametrize(
    "n,poly,p,d",
    [
        (2, P("T^3 - 2"), 7, 7),  # 2 is no cube mod 7
        (3, P("T^4 + T^2"), 3, -12),  # y^3 = d T^2 (T^2 + 1): the walk left every place unknown
        (4, P("T^5 + T^3"), 2, -12),  # y^4 = d T^3 (T^2 + 1): likewise
        (3, P("T^4 + T + 1"), 7, 7),  # one of the walk's unknowns on y^3 = d (T^4 + T + 1)
    ],
    ids=["T^3-2", "T^2(T^2+1),n=3", "T^3(T^2+1),n=4", "T^4+T+1,n=3"],
)
def test_rational_point_at_infinity(monkeypatch, n, poly, p, d):
    """gcd(n, deg P) = 1: the one point above t = oo is rational, so every
    twist is soluble at every place, without a walk. The residue witness
    agrees, and so does the walk."""
    solver = LocalSolver(SuperellipticCurve(n, poly))
    charts = _spy_charts(monkeypatch)
    assert solver.at_prime(d, p) == SOLUBLE
    assert not charts, "walked"
    assert _residue_witness(n, poly, p, d) is not None
    assert solver._walk(d, p) == SOLUBLE
    charts.clear()
    # every listed place of every twist with |d| <= 12, and the real place
    for e in [*nfree_sieve(n, 12), 1]:
        status, places = everywhere_locally_soluble(SuperellipticCurve(n, poly).twist(e))
        assert status == SOLUBLE and set(places.values()) == {SOLUBLE}
    assert not charts, "walked"


def _residue_witness(n, poly, p, d):
    """A t mod p^K, p^K <= 4096 the largest such power, on either chart of
    the model (t in Z_p with g = P, or t in pZ_p with g the reversed model
    form), with v(g(t)) + k0 <= K and d * g(t) an n-th power of Q_p^*, or
    None. Such a t makes y^n = d * P soluble over Q_p: the class of d * g is
    constant on t + p^(v(g(t)) + k0) Z_p. Integer arithmetic only; the unit
    n-th powers are listed mod p^k0."""
    K = 1
    while p ** (K + 1) <= 4096:
        K += 1
    mod = p**K
    k0 = 2 * (valuation(n, p) if n % p == 0 else 0) + 1
    powers = {pow(x, n, p**k0) for x in range(p**k0) if x % p}
    vd = valuation(d, p)
    ud = d // p**vd
    model = SuperellipticCurve(n, poly).model_coeffs
    for coeffs, start in ((model, 0), (model[::-1], p)):
        for t in range(start, mod, max(start, 1)):
            val = 0
            for c in reversed(coeffs):
                val = (val * t + c) % mod
            if val == 0:
                continue
            v = valuation(val, p)
            if v + k0 <= K and (vd + v) % n == 0 and ud * (val // p**v) % p**k0 in powers:
                return t, start
    return None


@given(local_cases())
@settings(max_examples=150, deadline=None)
@example((2, P("T^4 + 1"), 3, 3))
@example((2, PINNED8, 2, 3))
@example((3, P("T^3 - 2") * P("T^3 - 2"), 7, 14))
def test_insoluble_verdicts_have_no_residue_witness(case):
    """An insoluble verdict, closed form or walk, is refuted by no residue."""
    n, poly, p, d = case
    verdict = LocalSolver(SuperellipticCurve(n, poly)).at_prime(d, p)
    assert verdict in (SOLUBLE, INSOLUBLE)
    if verdict == INSOLUBLE:
        assert _residue_witness(n, poly, p, d) is None


@pytest.mark.parametrize("poly", ["T^2 + 1", "T^6 + 3"])
def test_no_unknown_at_any_listed_place(poly):
    """y^4 = d * P with gcd(4, deg P) = 2, so z = 0 is a double root on the
    chart at infinity: every n-free |d| <= 60 at every place of bad_primes,
    on a fresh solver, is decided, and no residue refutes an insoluble
    verdict at p <= 64."""
    solver = LocalSolver(SuperellipticCurve(4, P(poly)))
    verdicts = [
        (d, p, solver.at_prime(d, p))
        for d in nfree_sieve(4, 60)
        for p in solver.bad_primes(factorize(d))
    ]
    assert len(verdicts) == {"T^2 + 1": 504, "T^6 + 3": 5424}[poly]
    assert {v for _, _, v in verdicts} == {SOLUBLE, INSOLUBLE}
    for d, p, v in verdicts:
        if v == INSOLUBLE and p <= 64:
            assert _residue_witness(4, P(poly), p, d) is None, (d, p)


@pytest.mark.parametrize("j", [1, 3, 5])
def test_fourth_power_of_a_quadratic_at_13(j):
    """y^6 = -d (3T^2 + 1)^4 at 13, where 3T^2 + 1 has two roots: every
    multiplicity of the model is even, so d = -12 * 13^j with j odd is
    insoluble. The coset rule closes each root's branch at once; a walk
    that refines towards a root of multiplicity 4 meets about 13^(depth/2)
    branches."""
    poly = -(P("3*T^2 + 1") * P("3*T^2 + 1") * P("3*T^2 + 1") * P("3*T^2 + 1"))
    d = -12 * 13**j
    start = time.perf_counter()
    assert LocalSolver(SuperellipticCurve(6, poly))._walk(d, 13) == INSOLUBLE
    assert time.perf_counter() - start < 1
    assert _residue_witness(6, poly, 13, d) is None


def test_residue_check_on_pinned8_at_2():
    base = SuperellipticCurve(2, PINNED8)
    solver = LocalSolver(base)
    ds = [d for d in range(-20, 21) if d and squarefree_part(d) == d]
    verdicts = {d: solver.at_prime(d, 2) for d in ds}
    insoluble = [d for d in ds if verdicts[d] == INSOLUBLE]
    assert len(insoluble) == 9
    assert all(_residue_witness(2, PINNED8, 2, d) is None for d in insoluble)
    # the check is not empty: every soluble twist here meets a residue witness
    assert all(_residue_witness(2, PINNED8, 2, d) for d in ds if verdicts[d] == SOLUBLE)


def test_chart_nodes_at_2_on_pinned8(monkeypatch):
    """Work-count guard: g(a) and g'(a) at each node of the 2-adic walks of
    y^2 = d * P8, |d| <= 20 squarefree. The walk closing at
    j >= v(g(a)) + k0 evaluated 1692 times, and the closing test
    min(v(g'(a)) + j, 2j) >= v(g(a)) + k0 618 times, both walking once per
    twist; the local image, one walk shared by the 26 twists, 36 times."""
    calls = []
    evaluate = IntPolynomial.__call__

    def count(f, x):
        calls.append(x)
        return evaluate(f, x)

    solver = LocalSolver(SuperellipticCurve(2, PINNED8))
    ds = [d for d in range(-20, 21) if d and squarefree_part(d) == d]
    monkeypatch.setattr(IntPolynomial, "__call__", count)
    verdicts = [solver._walk(d, 2) for d in ds]
    assert len(ds) == 26 and UNKNOWN not in verdicts
    assert 0 < len(calls) <= 36


def _old_weil_floor(base):
    """The Weil floor as it stood: m = (n + 1)(N + 1) for every P."""
    n, N, g = base.n, base.N, base.genus
    if g is None:
        g = (n - 1) * (base.model_degree - 1) // 2
    m = (n + 1) * (N + 1)
    return (g + isqrt(g * g + m) + 1) ** 2


@pytest.mark.parametrize(
    "n,poly,floor,old",
    [
        (2, PINNED8, 49, 100),  # genus 3, n | N: m = 0
        (2, P("T^6 - T - 1"), 25, 64),  # genus 2
        (2, P("T^3 - 2"), 9, 25),  # genus 1, n does not divide N: m = gcd(2, 3)
        (2, P("T^2 - 2"), 1, 16),  # genus 0
        (3, P("T^2 + 1") * P("T^2 + 1") * P("T^2 + 2"), 169, 169),  # not separable
    ],
    ids=["P8", "T^6-T-1", "T^3-2", "T^2-2", "non-separable"],
)
def test_weil_floor_pinned(n, poly, floor, old):
    base = SuperellipticCurve(n, poly)
    assert (LocalSolver(base)._weil_floor, _old_weil_floor(base)) == (floor, old)


@st.composite
def separable_curves(draw):
    """y^n = P with P a content times distinct factors of the pool, so
    separable, of degree at most 8."""
    n = draw(st.sampled_from([2, 3, 4, 6]))
    factors = draw(st.lists(st.sampled_from(FACTOR_POOL), min_size=1, max_size=3,
                            unique_by=lambda f: f.coeffs))
    poly = _product(draw(st.sampled_from([1, -1, 2, -3, 5])), [(f, 1) for f in factors])
    assume(poly.degree <= 8)
    return n, poly


def _unit_class_twists(p, n):
    """The least positive twist of each class of Z_p^* modulo n-th powers."""
    seen = {}
    d = 1
    while len(seen) < gcd(n, p - 1):
        seen.setdefault(_qp_class(d, p, n), d)
        d += 1
    return sorted(seen.values())


@given(separable_curves())
@settings(max_examples=40, deadline=None)
@example((2, PINNED8))
@example((2, P("T^3 - 2")))
@example((6, P("T^4 + 2") * P("T^3 - 2")))
def test_floor_soundness_between_the_floors(case):
    """At every good prime from the Weil floor up to the floor as it stood
    (m = (n + 1)(N + 1)), every unit class of twists is soluble: the per-d
    walk says so, and a residue witness agrees wherever p^2 <= 4096."""
    n, poly = case
    base = SuperellipticCurve(n, poly)
    solver = LocalSolver(base)
    assert base.separable
    for p in primes_up_to(_old_weil_floor(base) - 1):
        if p < solver._weil_floor or p == 2 or solver._constants % p == 0:
            continue
        for d in _unit_class_twists(p, n):
            assert solver._good_reduction_shortcut(d, p)
            assert per_d_walk(solver, d, p) == SOLUBLE, (p, d)
            if p * p <= 4096:
                assert _residue_witness(n, poly, p, d), (p, d)


@given(separable_curves(), st.lists(st.integers(-500, 500).filter(bool), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
@example((2, PINNED8), [1, 3, -5, 7])
@example((3, P("T^4 + T + 3")), [2, -6, 9])
@example((3, P("T")), [-1, 275])  # 275 = 5^2 * 11 walks the image at 5 first
def test_shortcut_applies_only_past_the_listed_places(case, ds):
    """bad_primes lists exactly the odd primes where _good_reduction_shortcut
    refuses: those of the constants, of d, and those below the Weil floor. So
    everywhere_locally_soluble never takes the shortcut; a single-place query
    past the floor does."""
    n, poly = case
    base = SuperellipticCurve(n, poly)
    twists._solver_cache.clear()
    solver = twists._solver(base)
    taken = []
    shortcut = LocalSolver._good_reduction_shortcut

    def spy(self, d, p):
        applies = shortcut(self, d, p)
        if applies:
            taken.append((d, p))
        return applies

    with mock.patch.object(LocalSolver, "_good_reduction_shortcut", spy):
        for d in {nfree_part(d, n) for d in ds}:
            listed = set(solver.bad_primes(factorize(d)))
            for p in primes_up_to(solver._weil_floor + 200):
                assert shortcut(solver, d, p) == (p not in listed and p != 2), (d, p)
            everywhere_locally_soluble(base.twist(d))
            assert taken == []
            past = next(p for p in primes_up_to(solver._weil_floor + 10**4) if p not in listed and p != 2)
            twists._solver_cache.clear()  # a fresh solver, with no image at past
            assert local_solubility(base.twist(d), past) == SOLUBLE
            assert taken == [(d, past)]
            taken.clear()


def test_suspended_walks_are_dropped():
    """After the local pass over the twists |d| <= 40 of P8, a walk is kept
    only while a class a twist can ask for is missing from its image; at a
    tame prime those are the unit classes."""
    base = SuperellipticCurve(2, PINNED8)
    twists._solver_cache.clear()
    solver = twists._solver(base)
    for d in nfree_sieve(2, 40):
        everywhere_locally_soluble(base.twist(d))
    dropped = 0
    for p, image in solver._images.items():
        met = {k for k in image.met if k[0] == 0 or not solver._tame(p)}
        if image.walk is not None:
            assert not (image.done or image.every)
            assert len(met) < image.wanted
        elif not (image.done or image.every):
            assert len(met) == image.wanted
            dropped += 1
    assert dropped > 0
