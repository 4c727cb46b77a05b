import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from speclab import census, covers, intutil, kernels, twists
from speclab import poly as poly_module
from speclab.census import (
    DensitySeries,
    count_poly_sets,
    fit_log_exponent,
    local_global_ratio_series,
    quad_field_census,
    s3_survey,
    twist_density_series,
)
from speclab.covers import _rootless_mod_p, quad_cover
from speclab.intutil import factorize, nfree_sieve, primes_up_to, quad_disc, squarefree_part
from speclab.poly import IntPolynomial, factor_over_Q, parse_poly
from speclab.twists import (
    INSOLUBLE,
    SOLUBLE,
    UNKNOWN,
    SuperellipticCurve,
    everywhere_locally_soluble,
    local_solubility,
    obstruction_certificate,
    search_points,
)


def P(text):
    return parse_poly(text)


P6 = P("T^2+1") * P("T^4+2")
P8 = P("T^2+1") * P("T^2+2") * P("T^4+2")


def old_found_twists(cover, H, x):
    """The per-value census kept as oracle: the squarefree part of every
    value F(u, v), each factorised in full."""
    found = set()

    def note(val):
        if val == 0:
            return
        m = squarefree_part(val)
        if m != 1 and abs(quad_disc(m)) <= x:
            found.add(m)

    if cover.degree % 2 == 0:
        note(cover.P.lc)
    N = cover.degree + (cover.degree % 2)
    cs = list(cover.P.coeffs) + [0] * (N + 1 - len(cover.P.coeffs))
    for v in range(1, H + 1):
        for u in range(-H, H + 1):
            if gcd(u, v) == 1:
                note(sum(c * u**j * v ** (N - j) for j, c in enumerate(cs)))
    return found


def old_small_cores(vals, primes, x):
    """The per-prime census sieve kept as oracle for the blocked one: each
    prime divides out of the active values in turn, and a value retires
    before each prime p once its cofactor is below p^2 or |core| * p > x."""

    def settle(c, core, p):
        square = census._is_square(c)
        prime = ~square & (c < p * p) & (c <= x)
        return np.concatenate([core[square], core[prime] * c[prime].astype(np.int64)])

    nz = vals != 0
    c = np.abs(vals[nz])
    core = np.where(vals[nz] < 0, -1, 1).astype(np.int64)
    out = []
    for p in primes:
        if not c.size:
            break
        done = (c < p * p) | (np.abs(core) * p > x)
        if done.any():
            out.append(settle(c[done], core[done], p))
            c, core = c[~done], core[~done]
        hit = np.flatnonzero(c % p == 0)
        if not hit.size:
            continue
        ch = c[hit]
        odd = np.zeros(hit.size, dtype=bool)
        sub = np.arange(hit.size)
        while sub.size:
            ch[sub] //= p
            odd[sub] ^= True
            sub = sub[ch[sub] % p == 0]
        c[hit] = ch
        core[hit[odd]] *= p
    out.append(settle(c, core, x + 1))
    return np.concatenate(out)


def cores_up_to(cores, x):
    """The oracle's cores with |m| <= x, sorted: it may return larger ones."""
    return sorted(m for m in cores.tolist() if abs(m) <= x)


@st.composite
def sieve_values(draw):
    """(values, x, dtype) for the census sieve: zeros and signs, prime powers
    with large exponents, products of consecutive primes (so of one block),
    square cofactors of primes above x, and values whose squarefree part is
    x itself when x is squarefree. int64 values stay below 2^62."""
    dtype = draw(st.sampled_from([np.int64, object]))
    limit = 2**62 if dtype is np.int64 else 2**90
    x = draw(st.integers(2, 3000))
    primes = primes_up_to(x)
    above = [q for q in primes_up_to(2 * x + 60) if q > x][:4]
    edge = squarefree_part(x)
    vals = []
    for kind in draw(st.lists(st.sampled_from("ipbse"), max_size=30)):
        if kind == "i":
            v = draw(st.integers(-(10**6), 10**6))
        elif kind == "p":
            p = draw(st.sampled_from(primes))
            k = draw(st.integers(1, 90))
            while p**k >= limit:
                k -= 1
            v = p**k * draw(st.sampled_from([1, 2, 3, 6, 35]))
        elif kind == "b":
            j = draw(st.integers(0, len(primes) - 1))
            v = draw(st.integers(1, 12))
            for p in primes[j : j + draw(st.integers(2, 6))]:
                v *= p ** draw(st.integers(1, 3))
        elif kind == "s":
            v = draw(st.sampled_from(above)) ** 2 * draw(st.integers(1, 40))
        else:
            v = edge * draw(st.integers(1, 30)) ** 2
        if abs(v) < limit:
            vals.append(v * draw(st.sampled_from([1, -1])))
    return vals, x, dtype


def old_certifier(cover):
    """The absence certifier kept as oracle: it factorises every d."""
    Pc = cover.P
    if cover.degree % 2:
        return lambda d: False
    _, factors = factor_over_Q(Pc)
    if any(f.degree == 1 for f, _ in factors) or any(m > 1 for _, m in factors):
        return lambda d: False
    bad = set(factorize(2 * Pc.lc * Pc.trailing * Pc.content))
    return lambda d: any(p not in bad and _rootless_mod_p(Pc, p) for p in factorize(d))


def old_twist_density_series(cover, grid, schedule=None):
    """The twist density series as one labelling loop and one nested loop
    per grid point, kept as oracle for the census pass."""
    if not grid:
        return DensitySeries((), (), (), ())
    if schedule is None:
        schedule = [16, 64, 256]
    x_max = max(grid)
    found = census._found_twists(cover, max(schedule), x_max, primes_up_to(x_max))
    certifies = census._absence_certifier(cover, x_max, primes_up_to(x_max))
    num = []
    den = []
    unk = []
    d_by_absdF = sorted(
        (abs(quad_disc(d)), d) for d in nfree_sieve(2, x_max) if abs(quad_disc(d)) <= x_max
    )
    statuses = []
    for _, d in d_by_absdF:
        if d in found:
            statuses.append(SOLUBLE)
        elif certifies(d):
            statuses.append(INSOLUBLE)
        else:
            statuses.append(UNKNOWN)
    for x in grid:
        n = d = u = 0
        for (adF, _), st_ in zip(d_by_absdF, statuses):
            if adF > x:
                break
            d += 1
            if st_ == SOLUBLE:
                n += 1
            elif st_ == UNKNOWN:
                u += 1
        num.append(n)
        den.append(d)
        unk.append(u)
    return DensitySeries(tuple(grid), tuple(num), tuple(den), tuple(unk))


def old_local_global_ratio_series(cover, grid, H):
    """The global and local series from their own pass over the fields,
    kept as oracle for the census pass."""
    if not grid:
        empty = DensitySeries((), (), (), ())
        return empty, empty
    x_max = max(grid)
    base = SuperellipticCurve(2, cover.P)
    found = census._found_twists(cover, H, x_max, primes_up_to(x_max))
    certifies = census._absence_certifier(cover, x_max, primes_up_to(x_max))
    rows = []
    for d in nfree_sieve(2, x_max):
        adF = abs(quad_disc(d))
        if adF > x_max:
            continue
        loc, _ = everywhere_locally_soluble(base.twist(d))
        if d in found:
            glob = SOLUBLE
        elif loc == INSOLUBLE or certifies(d):
            glob = INSOLUBLE
        else:
            glob = UNKNOWN
        rows.append((adF, glob, loc))
    rows.sort()
    gnum, gunk, lnum, lunk, dens = [], [], [], [], []
    for x in grid:
        gn = gu = ln = lu = dd = 0
        for adF, glob, loc in rows:
            if adF > x:
                break
            dd += 1
            gn += glob == SOLUBLE
            gu += glob == UNKNOWN
            ln += loc == SOLUBLE
            lu += loc == UNKNOWN
        gnum.append(gn)
        gunk.append(gu)
        lnum.append(ln)
        lunk.append(lu)
        dens.append(dd)
    g = DensitySeries(tuple(grid), tuple(gnum), tuple(dens), tuple(gunk))
    l = DensitySeries(tuple(grid), tuple(lnum), tuple(dens), tuple(lunk))
    return g, l


@st.composite
def census_covers(draw):
    """Covers of degree 1-8, odd degrees included, with a leading coefficient
    that may be negative or carry a square factor, and a squarefree content."""
    deg = draw(st.integers(1, 8))
    lc = draw(st.sampled_from([1, -1, 2, -3, 4, -9, 12, 18, -25, 50]))
    content = draw(st.sampled_from([1, 1, 2, 3, -5, 6]))
    low = draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
    try:
        return quad_cover(IntPolynomial([content * c for c in low] + [content * lc]))
    except ValueError:  # not separable, or a square in the content
        assume(False)


def brute_count_sets(n, N, H):
    """Independent enumeration of the population counters with sympy only.

    Returns (|P|, |P2|): degree exactly N with every factor multiplicity < n,
    and the subset whose content is n-free."""
    T = sympy.Symbol("T")
    box = range(-H, H + 1)
    n_P = n_P2 = 0
    for coeffs in _tuples(N + 1, box):
        if coeffs[0] == 0:
            continue
        poly = sympy.Poly(list(coeffs), T)
        fl = sympy.factor_list(poly.as_expr())[1]
        if any(m >= n for _, m in fl):
            continue
        n_P += 1
        content = math.gcd(*[abs(c) for c in coeffs])
        if content <= 1 or _nfree(content, n):
            n_P2 += 1
    return n_P, n_P2


def _tuples(k, box):
    if k == 0:
        yield ()
        return
    for rest in _tuples(k - 1, box):
        for c in box:
            yield (c,) + rest


def _nfree(m, n):
    for p, e in sympy.factorint(m).items():
        if e >= n:
            return False
    return True


class TestDensitySeries:
    def test_bounds(self):
        s = DensitySeries(grid=(10, 100), numerator=(1, 3), denominator=(4, 10), unknown=(1, 0))
        assert s.lower() == (Fraction(1, 4), Fraction(3, 10))
        assert s.upper() == (Fraction(1, 2), Fraction(3, 10))

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            DensitySeries(grid=(10,), numerator=(5,), denominator=(4,), unknown=(0,))
        with pytest.raises(ValueError):
            DensitySeries(grid=(10,), numerator=(2,), denominator=(4,), unknown=(3,))

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(1, 100)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_random(self, rows):
        rows = [(min(a, d), min(b, d - min(a, d)), d) for a, b, d in rows]
        grid = tuple(range(1, len(rows) + 1))
        s = DensitySeries(
            grid=grid,
            numerator=tuple(a for a, _, _ in rows),
            denominator=tuple(d for _, _, d in rows),
            unknown=tuple(b for _, b, _ in rows),
        )
        for lo, hi in zip(s.lower(), s.upper()):
            assert 0 <= lo <= hi <= 1


class TestCounts:
    def test_pinned_small_counts(self):
        assert count_poly_sets(2, 2, 2) == {"P": 92, "P2": 92, "P2_lower": 20, "E_forms": 112}
        assert count_poly_sets(2, 2, 3) == {"P": 284, "P2": 284, "P2_lower": 42, "E_forms": 326}
        # degrees 3 and 4 run the brute-force loop
        assert count_poly_sets(2, 3, 1) == {"P": 44, "P2": 44, "P2_lower": 16, "E_forms": 60}
        assert count_poly_sets(2, 4, 1) == {"P": 136, "P2": 136, "P2_lower": 44, "E_forms": 180}
        assert count_poly_sets(3, 3, 1) == {"P": 52, "P2": 52}

    def test_counting_never_factorises(self, monkeypatch):
        # the multiplicities come from the squarefree decomposition
        calls = []
        for mod in (poly_module, covers):
            monkeypatch.setattr(mod, "factor_over_Q", lambda p: calls.append(p))
        assert count_poly_sets(2, 3, 1) == {"P": 44, "P2": 44, "P2_lower": 16, "E_forms": 60}
        assert calls == []

    def test_against_independent_enumeration(self):
        n_P, n_P2 = brute_count_sets(2, 2, 2)
        got = count_poly_sets(2, 2, 2)
        assert (got["P"], got["P2"]) == (n_P, n_P2)
        # the lower stratum is linear polynomials with squarefree content
        _, low = brute_count_sets(2, 1, 2)
        assert got["P2_lower"] == low
        # the vectorized linear count with a cube-free content table
        assert tuple(count_poly_sets(3, 1, 9).values()) == brute_count_sets(3, 1, 9)

    def test_forms_identity(self):
        # |E(2, H)| = |P2(2, 2, H)| + |P2(2, 1, H)| by splitting on a = 0
        for H in range(1, 6):
            lhs = count_poly_sets(2, 2, H)["E_forms"]
            rhs = count_poly_sets(2, 2, H)["P2"] + count_poly_sets(2, 1, H)["P2"]
            assert lhs == rhs

    def test_squarefree_proportion(self):
        got = count_poly_sets(2, 2, 100)
        ratio = got["P2"] / got["P"]
        # squarefree-content proportion tends to prod_p (1 - p^-6) = 1/zeta(6)
        assert abs(ratio - 1 / float(sympy.zeta(6))) < 0.005


class TestFields:
    def test_census_pins(self):
        assert quad_field_census(10) == [-3, -4, 5, -7, -8, 8]
        assert quad_field_census(4) == [-3, -4]
        assert quad_field_census(1) == []

    @pytest.mark.parametrize("x", [0, 1, 2, 5, 12, 100, 1001, 3000])
    def test_census_matches_sorted_discriminants(self, x):
        want = sorted(
            (quad_disc(d) for d in nfree_sieve(2, x) if abs(quad_disc(d)) <= x),
            key=lambda v: (abs(v), v),
        )
        assert quad_field_census(x) == want

    @pytest.mark.parametrize("x", [-5, 0, 1, 7, 8, 9, 100, 3000])
    def test_fields_match_sorted_pairs(self, x):
        # d = 2 and d = -2 tie at |dF| = 8: negative d first
        pairs = ((abs(quad_disc(d)), d) for d in nfree_sieve(2, x))
        want = sorted(pair for pair in pairs if pair[0] <= x)
        adF, d = census._fields(x)
        assert adF.dtype == d.dtype == np.int64
        assert list(zip(adF.tolist(), d.tolist())) == want


class TestFit:
    def test_recovers_exact_powers(self):
        grid = (10**2, 10**3, 10**4, 10**5)
        den = tuple(10**6 for _ in grid)
        num = tuple(int(10**6 / math.log(x)) for x in grid)
        s = DensitySeries(grid=grid, numerator=num, denominator=den, unknown=(0,) * 4)
        fit = fit_log_exponent(s)
        assert abs(fit.alpha - 1.0) < 1e-3
        flat = DensitySeries(grid=grid, numerator=(500,) * 4, denominator=(1000,) * 4, unknown=(0,) * 4)
        assert abs(fit_log_exponent(flat).alpha) < 1e-9

    def test_rejects_short_series(self):
        s = DensitySeries(grid=(10, 100), numerator=(1, 1), denominator=(2, 2), unknown=(0, 0))
        with pytest.raises(ValueError):
            fit_log_exponent(s)


class TestSurvey:
    def test_deterministic(self):
        a = s3_survey(1, 8, sample_size=500, seed=7)
        b = s3_survey(1, 8, sample_size=500, seed=7)
        assert a.counts == b.counts and a.total == b.total

    def test_small_exhaustive(self):
        # D = 1: three degree-<=1 coefficients, six integers in [-3, 3]
        res = s3_survey(1, 2, sample_size=10**5, seed=0)
        assert res.exhaustive
        assert res.total == 5**6
        for flag, prop in res.proportions.items():
            assert 0 <= prop[0] <= 1

    def test_flag_monotone_keys(self):
        res = s3_survey(1, 5, sample_size=2000, seed=0)
        assert "all" in res.proportions

    def test_degree_7_covers(self):
        # deltas of degree up to 28, past the degree cap factor_over_Q once had
        res = s3_survey(7, 1, sample_size=20, seed=0)
        assert (res.total, res.exhaustive) == (20, False)
        assert res.counts["all"] <= res.counts["galois_S3"] <= res.counts["separable"] <= 20

    @pytest.mark.parametrize("sample_size", [0, -3])
    def test_sample_size_checked_before_work(self, monkeypatch, sample_size):
        def surveyed(*args):
            raise AssertionError("surveyed before checking sample_size")

        monkeypatch.setattr("speclab.census.s3_survey_predicates", surveyed)
        with pytest.raises(ValueError, match="need sample_size >= 1"):
            s3_survey(1, 2, sample_size=sample_size)


class TestTwistSeries:
    def test_direct_regression(self):
        cov = quad_cover(P6)
        s = twist_density_series(cov, (50, 200))
        assert s.grid == (50, 200)
        assert s.denominator[0] > 0
        up = s.upper()
        assert up[1] <= up[0]

    @pytest.mark.parametrize(
        "poly,num,den,unk",
        [
            (P6, (3, 7), (61, 607), (41, 390)),
            (P("T^2-2"), (19, 157), (61, 607), (0, 1)),
            (P("T^6-T-1"), (6, 13), (61, 607), (22, 248)),
        ],
    )
    def test_pinned_series(self, poly, num, den, unk):
        s = twist_density_series(quad_cover(poly), [100, 1000], [16, 40])
        assert (s.numerator, s.denominator, s.unknown) == (num, den, unk)

    def test_pinned_local_global(self):
        g, l = local_global_ratio_series(quad_cover(P8), [100, 300], 64)
        assert (g.numerator, g.denominator, g.unknown) == ((2, 4), (61, 184), (6, 21))
        assert (l.numerator, l.denominator, l.unknown) == ((8, 25), (61, 184), (0, 0))

    def test_local_pass_factorises_each_d_once(self, monkeypatch):
        # the twist's n-free check factorises d, and the local solver's bad
        # primes read that factorisation; the curve's constants are factorised
        # once, by the one solver of the pass. Every binding of factorize that
        # the pass can reach is spied on, intutil's (is_nfree) too.
        calls = []
        real = intutil.factorize

        def spy(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(intutil, "factorize", spy)
        monkeypatch.setattr(twists, "factorize", spy)
        monkeypatch.setattr(twists, "_solver_cache", {})
        cover = quad_cover(P("T^2-2"))
        local_global_ratio_series(cover, [100, 300], 16)
        _, ds = census._fields(300)
        constants = twists._solver(SuperellipticCurve(2, cover.P))._constants
        assert calls.count(constants) == 1
        assert sorted(m for m in calls if m != constants) == sorted(ds.tolist())

    @given(census_covers(), st.integers(1, 24), st.integers(2, 3000))
    @example(quad_cover(P("T^2-28")), 1, 3)  # F(1, 1) = -3^3 and x = 3: m = -3 sits on the bound
    @example(quad_cover(P("3*T^4-T^3-6*T+2")), 4, 300)  # (3T - 1)(T^3 - 2): the rational root 1/3
    @example(quad_cover(P("T^4+2*T")), 4, 300)  # P(0) = 0
    @example(quad_cover(P("3*T^4+6")), 4, 300)  # content 3
    @example(quad_cover(P("T^4+T+35")), 4, 300)  # 5 and 7 divide only the trailing coefficient
    @example(quad_cover(P("T^3-2")), 4, 300)  # odd degree: rootless mod 7, yet never certifies
    @settings(max_examples=200, deadline=None)
    def test_sieve_matches_factorisation(self, cov, H, x):
        assert census._found_twists(cov, H, x, primes_up_to(x)) == old_found_twists(cov, H, x)
        new = census._absence_certifier(cov, x, primes_up_to(x))
        old = old_certifier(cov)
        ds = nfree_sieve(2, x)
        assert [new(d) for d in ds] == [old(d) for d in ds]

    # 3T^2-2 and 11T^2-2T have a nonsquare leading coefficient, so the fiber
    # above infinity (v = 0) yields a twist; for 11T^2-2T, d = 11 is found
    # only there, and some twists only in the column u = H
    @pytest.mark.parametrize(
        "poly", [P("T^2-2"), P("T^6-T-1"), P6, P("T^3-T+3"), P("3*T^2-2"), P("11*T^2-2*T")]
    )
    @pytest.mark.parametrize("H,x", [(8, 300), (16, 1000)])
    def test_found_twists_by_point_search(self, poly, H, x):
        """A twist is found iff the point search at height H finds a point
        on it: the sieve and the search are independent routes."""
        base = SuperellipticCurve(2, poly)
        want = {
            d
            for d in nfree_sieve(2, x)
            if abs(quad_disc(d)) <= x and search_points(base.twist(d), H, max_points=1)
        }
        assert census._found_twists(quad_cover(poly), H, x, primes_up_to(x)) == want

    # 2T^3 + 3: odd degree with a non-unit leading coefficient
    @pytest.mark.parametrize(
        "poly,x,H,count",
        [
            (P("T^2+T+7"), 3000, 64, 255),
            (P("3*T^2-2"), 3000, 64, 316),
            (P8, 60, 200, 2),
            (P("T^4+1"), 200, 100, 5),
            (P("T^6-T-1"), 300, 60, 8),
            (P("2*T^3+3"), 1000, 60, 70),
        ],
    )
    def test_found_twists_match_point_search_over_fields(self, poly, x, H, count):
        """The census box sieve finds a twist of the field census iff the
        point search at height H finds a point on it, for censuses up to
        x = 3000 and heights up to 200."""
        base = SuperellipticCurve(2, poly)
        want = {d for d in census._fields(x)[1].tolist() if search_points(base.twist(d), H, max_points=1)}
        assert census._found_twists(quad_cover(poly), H, x, primes_up_to(x)) == want
        assert len(want) == count

    def test_is_square_near_int64_limit(self):
        k = np.arange(2**31 - 40, 2**31 - 1, dtype=np.int64)
        c = np.concatenate([k * k, k * k - 1, k * k + 1])
        assert census._is_square(c).tolist() == [True] * k.size + [False] * (2 * k.size)
        assert census._is_square(c.astype(object)).tolist() == census._is_square(c).tolist()

    def test_sieve_object_values(self, monkeypatch):
        # sum |c_j| * 8^8 >= 2^62 needs Python ints; the value at infinity,
        # 2 * 10007^2, has a square cofactor of primes above x
        cov = quad_cover(IntPolynomial([5, 0, 0, 0, 2**44, 0, 0, 0, 2 * 10007**2]))
        dtypes = []
        form_values = kernels.form_values

        def spy(*args):
            vals = form_values(*args)
            dtypes.append(vals.dtype)
            return vals

        monkeypatch.setattr(kernels, "form_values", spy)
        found = census._found_twists(cov, 8, 3000, primes_up_to(3000))
        assert dtypes and all(dt == object for dt in dtypes)
        assert {2, 5} <= found
        assert found == old_found_twists(cov, 8, 3000)

    @given(sieve_values())
    # more active values than _SIEVE_CELLS: the first blocks hold one prime
    @example((list(range(-census._SIEVE_CELLS, census._SIEVE_CELLS + 1)), 50, np.int64))
    # x = 2: one block spans every prime
    @example(([0, -1, 2, -8, 12, 2**61, -(3**38)], 2, np.int64))
    # values that never retire: blocks double to 256 primes, and the last
    # spans every prime left; 3001 and 3011 are primes above x
    @example(([3001**2, -2 * 3011**2, 2 * 3 * 3001**2 * 5**2], 3000, np.int64))
    # |m| = x = 2 * 3 * 5 * 7 * 11, and two primes of one block in one value
    @example(([2310, -2310 * 49, 2310 * 4, 3 * 5 * 7 * 11 * 13], 2310, object))
    @example(([2**89, -(7**31) * 11, 3001**2 * 2**70], 3000, object))
    @settings(max_examples=300, deadline=None)
    def test_blocked_sieve_matches_per_prime(self, case):
        vals, x, dtype = case
        arr = np.array(vals, dtype=dtype)
        primes = primes_up_to(x)
        want = cores_up_to(old_small_cores(arr.copy(), primes, x), x)
        new = census._small_cores(arr.copy(), primes, x)
        assert new.dtype == np.int64
        assert sorted(new.tolist()) == want
        if dtype is np.int64 and arr.size:
            # the same values repeated into rows long enough for the division test
            k = -(-census._LONG_ROW // arr.size)
            assert sorted(census._small_cores(np.tile(arr, k), primes, x).tolist()) == sorted(want * k)

    def test_certifier_needs_d_in_its_sieve(self):
        cov = quad_cover(P6)
        certifies = census._absence_certifier(cov, 100, primes_up_to(100))
        assert [certifies(d) for d in (-100, 77, 100)] == [old_certifier(cov)(d) for d in (-100, 77, 100)]
        with pytest.raises(ValueError):
            certifies(101)

    @pytest.mark.parametrize("grid", [[3000, 100], [100, 100]])
    def test_bad_grid_fails_before_census(self, grid, monkeypatch):
        calls = []
        monkeypatch.setattr(census, "_census", lambda *args: calls.append(args))
        cov = quad_cover(P6)
        with pytest.raises(ValueError, match="strictly increasing"):
            twist_density_series(cov, grid, [16])
        with pytest.raises(ValueError, match="strictly increasing"):
            local_global_ratio_series(cov, grid, 16)
        assert calls == []

    def test_empty_grid(self):
        s = twist_density_series(quad_cover(P6), ())
        assert s.grid == () and s.lower() == ()

    @pytest.mark.parametrize("grid", [[100, 300], []])
    def test_empty_schedule_fails_before_census(self, grid, monkeypatch):
        calls = []
        monkeypatch.setattr(census, "_census", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="schedule"):
            twist_density_series(quad_cover(P6), grid, [])
        assert calls == []

    # p = 2 certifies 498 twists of T^6-T-1 with |d| <= 3000, and 332 of
    # 3T^4+T^2+1 (T^4+T^2+1 = (T^2+T+1)^2 mod 2); the census leaves them unknown
    @pytest.mark.parametrize(
        "poly,only_at_2",
        [(P6, 0), (P("T^6-T-1"), 498), (P("T^4+1"), 0), (P("3*T^4+T^2+1"), 332)],
    )
    def test_certifier_is_the_certificate_without_2(self, poly, only_at_2):
        """The census table certifies d exactly when obstruction_certificate
        certifies d with its factor 2 removed: both read
        twists._certifying_primes, and the census leaves out p = 2. Every d
        certified only at 2 is insoluble over Q_2, as the argument says."""
        x = 3000
        base = SuperellipticCurve(2, poly)
        certifies = census._absence_certifier(quad_cover(poly), x, primes_up_to(x))
        ds = nfree_sieve(2, x)
        for d in ds:
            odd = d // 2 if d % 2 == 0 else d
            assert bool(certifies(d)) == (obstruction_certificate(base.twist(odd)) is not None), d
        at_2 = [d for d in ds if not certifies(d) and obstruction_certificate(base.twist(d))]
        assert len(at_2) == only_at_2
        for d in at_2:
            assert obstruction_certificate(base.twist(d)).p == 2
            assert local_solubility(base.twist(d), 2) == INSOLUBLE, d

    @pytest.mark.parametrize("poly", [P("T^3-2"), P("T^4+2*T")])
    def test_certifier_table_empty(self, poly):
        """Odd degree, and a rational root (here 0), leave nothing to certify."""
        x = 3000
        certifies = census._absence_certifier(quad_cover(poly), x, primes_up_to(x))
        assert not certifies(np.array(nfree_sieve(2, x))).any()

    @given(census_covers(), st.lists(st.integers(1, 300), max_size=4, unique=True), st.integers(1, 24))
    @example(quad_cover(P("T^3-2")), [10, 120], 8)  # odd degree: the certifier never certifies
    @example(quad_cover(P6), [], 8)
    @example(quad_cover(P("3*T^2-2")), [1, 4, 5, 300], 1)  # x below the first field, and on one
    @settings(max_examples=60, deadline=None)
    def test_series_match_oracles(self, cov, grid, H):
        grid = sorted(grid)
        assert twist_density_series(cov, grid, [H]) == old_twist_density_series(cov, grid, [H])
        assert local_global_ratio_series(cov, grid, H) == old_local_global_ratio_series(cov, grid, H)

    def test_default_schedule_is_height_256(self):
        cov = quad_cover(P("T^6-T-1"))
        assert twist_density_series(cov, [60, 200]) == twist_density_series(cov, [60, 200], [256])
        assert twist_density_series(cov, [60, 200]) == old_twist_density_series(cov, [60, 200])

    @pytest.mark.parametrize("poly", [P8, P("T^6-T-1"), P("T^4+1"), P("3*T^2-2")])
    def test_census_routes_agree_with_local_solver(self, poly):
        """Found twists are everywhere locally soluble and certified ones are
        locally insoluble: the sieve, the certifier and the local solver are
        independent routes."""
        x = 1000
        cov = quad_cover(poly)
        base = SuperellipticCurve(2, poly)
        found = census._found_twists(cov, 24, x, primes_up_to(x))
        certifies = census._absence_certifier(cov, x, primes_up_to(x))
        certified = [d for d in nfree_sieve(2, x) if certifies(d)]
        assert found and certified
        for d in found:
            assert everywhere_locally_soluble(base.twist(d))[0] == SOLUBLE, d
        for d in certified:
            assert everywhere_locally_soluble(base.twist(d))[0] == INSOLUBLE, d

    def test_local_global_odd_degree(self):
        cov = quad_cover(P("T^3 - 2"))
        g, l = local_global_ratio_series(cov, (30,), 40)
        # odd degree: every twist is everywhere locally soluble
        assert l.numerator[0] == l.denominator[0] and l.unknown[0] == 0
        assert g.numerator[0] <= l.numerator[0]
