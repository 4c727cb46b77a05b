import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import twists
from speclab.covers import quad_cover
from speclab.intutil import nfree_sieve
from speclab.poly import parse_poly, real_roots_sign_analysis
from speclab.twists import (
    INSOLUBLE,
    SOLUBLE,
    UNKNOWN,
    ConsistencyError,
    CurvePoint,
    HasseScanResult,
    SuperellipticCurve,
    TwistedCurve,
    admissible_prime_scan,
    everywhere_locally_soluble,
    hasse_failure_candidates,
    local_solubility,
    map_twist_point,
    obstruction_certificate,
    search_points,
)
from speclab.twists import LocalSolver, _is_nth_power_qp


def P(text):
    return parse_poly(text)


PINNED8 = P("T^2+1") * P("T^2+2") * P("T^4+2")


class TestModels:
    def test_degrees_and_genus(self):
        c = SuperellipticCurve(2, P("T^3 - 2"))
        assert (c.N, c.model_degree, c.weight, c.genus) == (3, 4, 2, 1)
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


class TestSearch:
    def test_known_point(self):
        pts = search_points(SuperellipticCurve(2, P("T^3 - 2")), 10)
        assert any((pt.u, pt.v) == (3, 1) for pt in pts)
        assert all(not pt.trivial for pt in pts)

    def test_z_zero_point(self):
        # y^2 = 4 T^2 + 1: above z = 0 the value is the leading coefficient 4
        pts = search_points(SuperellipticCurve(2, P("4*T^2 + 1")), 3)
        zs = [pt for pt in pts if pt.z_zero]
        assert len(zs) == 1 and zs[0].y == 2

    def test_lind_has_no_small_points(self):
        tw = SuperellipticCurve(2, P("T^4 - 17")).twist(2)
        assert search_points(tw, 150) == []

    def test_tables_built_once_per_curve(self):
        base = SuperellipticCurve(2, PINNED8)
        twists._solver_cache.clear()
        for d in (-7, -3, -1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21):
            search_points(base.twist(d), 20)
        tables = twists._solver(base).tables
        primes = {k for k in tables if isinstance(k, int)}
        classes = [k for k in tables if isinstance(k, tuple)]
        assert primes == {p for p, _ in classes}
        assert len(classes) <= 2 * len(primes)  # squares and nonsquares mod p
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


class TestLocal:
    def test_qp_nth_power_membership(self):
        assert _is_nth_power_qp(49, 7, 2)
        assert not _is_nth_power_qp(7, 7, 2)
        assert not _is_nth_power_qp(2, 7, 3)  # 2^((7-1)/3) = 4 mod 7
        assert _is_nth_power_qp(6, 7, 3)  # 6^2 = 1 mod 7
        assert _is_nth_power_qp(17, 2, 2)  # 17 = 1 mod 16
        assert not _is_nth_power_qp(3, 2, 2)
        assert _is_nth_power_qp(10, 3, 3) == any(
            pow(x, 3, 27) == 10 % 27 for x in range(27) if x % 3)

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
                assert solver.at_prime(5, p, allow_shortcut=False) == SOLUBLE
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


class TestMapping:
    def test_push_down(self):
        src = SuperellipticCurve(4, P("T^4 + 71")).twist(18)
        pts = search_points(src, 3)
        tgt, q = map_twist_point(src, 3, [pt for pt in pts if pt.u == 1][0])
        assert tgt.d == 2 and q.y == 12 and (q.u, q.v) == (1, 1)
        assert q.y**2 == 2 * (1**4 + 71)

    def test_rejects_wrong_alpha(self):
        src = SuperellipticCurve(4, P("T^4 + 71")).twist(18)
        pt = search_points(src, 3)[0]
        with pytest.raises(ValueError):
            map_twist_point(src, 5, pt)

    def test_rejects_prime_exponent(self):
        src = SuperellipticCurve(3, P("T^4 + 1")).twist(2)
        with pytest.raises(ValueError):
            map_twist_point(src, 1, CurvePoint(1, 0, 1))


class TestScans:
    def test_admissible_scan_pinned(self):
        cov = quad_cover(PINNED8)
        rows = admissible_prime_scan(cov, 1, 1200)
        assert [(p, d) for p, d, _ in rows][:3] == [(193, 386), (337, 674), (457, 914)]
        assert all(st_ == SOLUBLE for _, _, st_ in rows)

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
