import itertools
import math
import signal
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.numberfields.basis import round_two

from speclab import covers, fp, kernels, twists
from speclab import poly as poly_module
from speclab.covers import (
    ConsistencyError,
    CubicCover,
    chebotarev_unramified_sieve,
    cubic_field_disc,
    cubic_specialize,
    quad_cover,
    quad_specialize,
    s3_survey_predicates,
    splits_completely,
    verify_unramified,
)
from speclab.intutil import factorize, is_nth_power, nth_root, primes_up_to, quad_disc, squarefree_part
from speclab.poly import (
    INFINITY,
    HomogPolynomial,
    IntPolynomial,
    ProjectivePoint,
    _rational_roots,
    discriminant,
    factor_over_Q,
    parse_poly,
)
from speclab.ramify import consistency_check, exceptional_superset


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


def old_rootless_primes(R, primes):
    """The rootless primes by the product route kept as oracle. With
    X = max(primes), the integers 0..X-1 cover every residue mod each p, so
    R has a root mod p exactly when p divides R(0) * ... * R(X-1); the
    product of the primes is divided by its gcd with each chunk of values."""
    if any(R.content % p == 0 for p in primes):
        raise ValueError("R vanishes mod p")
    if not primes:
        return []
    left = math.prod(primes)
    vals = [R(t) for t in range(max(primes))]
    for i in range(0, len(vals), 32):
        left //= math.gcd(math.prod(vals[i : i + 32]), left)
    return [p for p in primes if left % p == 0]


def sympy_factors_mod_p(f, p):
    """The monic irreducible factors of f mod p with their multiplicities, by
    sympy's factorisation over GF(p), with coefficients in [0, p)."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(f.coeffs[::-1]), x, modulus=p).factor_list()
    return [(IntPolynomial([int(c) % p for c in g.all_coeffs()[::-1]]), int(m)) for g, m in factors]


def old_splits_completely(R, p):
    """The split test kept as oracle: a full factorisation mod p."""
    if R.lc % p == 0:
        return False
    facs = sympy_factors_mod_p(R, p)
    return all(f.degree == 1 and m == 1 for f, m in facs) and sum(
        f.degree * m for f, m in facs
    ) == R.degree


# primes on both sides of the numpy cutoff of fp.root_count
ROOT_TEST_PRIMES = [2, 3, 5, 7, 11, 101, 1009, 4093, 4099, 5003]


def primes_around_trace_limit(D):
    """The two primes below and the two above fp._trace_prime_limit(D)."""
    below = sympy.prevprime(fp._trace_prime_limit(D) + 1)
    above = sympy.nextprime(below)
    return [sympy.prevprime(below), below, above, sympy.nextprime(above)]


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

    def test_separability_past_the_factoring_cap(self, monkeypatch):
        # named for the degree cap factor_over_Q once had: separability and
        # specialisation never factor P, here of degree 26
        calls = []
        for module in (poly_module, covers):
            monkeypatch.setattr(module, "factor_over_Q", calls.append)
        cov = quad_cover(P("T^26 + T + 1"))
        rep = quad_specialize(cov, Fraction(3, 2))
        m = squarefree_part(3**26 + 3 * 2**25 + 2**26)
        assert (rep.m, rep.disc_field) == (m, quad_disc(m))
        for text in ("T^2 - 2*T + 1", "T^26 + 2*T^14 + 2*T^13 + T^2 + 2*T + 1"):
            with pytest.raises(ValueError, match="P must be separable"):
                quad_cover(P(text))  # the second is (T^13 + T + 1)^2
        assert calls == []

    def test_branch_orbits_and_infinity(self):
        odd = quad_cover(P("T^3 - 2"))
        assert odd.infinity_branched
        assert odd.branch_count == 4  # 3 roots plus infinity
        even = quad_cover(P("T^2 - 2"))
        assert not even.infinity_branched
        assert even.branch_count == 2

    def test_orbit_at_infinity_is_the_form_V(self):
        # the last orbit of an odd-degree cover is infinity, with the form V:
        # zero at (U : V) = (1 : 0), which is infinity, and not at 0
        form, e = quad_cover(P("T^3 - 2")).branch_orbits()[-1]
        assert (form, e) == (HomogPolynomial([1, 0], degree=1), 2)
        assert form.eval_proj((1, 0)) == 0
        assert form.eval_proj((0, 1)) != 0

    def test_specialize_values(self):
        rep = quad_specialize(quad_cover(P("T^3 - 2")), Fraction(1, 2))
        assert rep.m == -30  # sqf((1/8 - 2) * 4) classes
        rep2 = quad_specialize(quad_cover(P("3*T^2 - 2")), INFINITY)
        assert rep2.m == 3
        rep3 = quad_specialize(quad_cover(P("T^2 - 2")), 3)
        assert rep3.m == 7 and rep3.disc_field == 28
        assert rep3.ramified_primes == (2, 7)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=7).map(lambda cs: cs + [1]),
        st.lists(st.tuples(st.integers(-10**4, 10**4), st.integers(0, 10**4)), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_hom_value_is_the_census_model(self, cs, pairs):
        """hom_value is P_hom(u, v) * v^(deg P mod 2), for odd and even
        degree, and equals the census's values of the even-degree model."""
        R = IntPolynomial(cs)
        assume(R.degree >= 1)
        try:
            cov = quad_cover(R)
        except ValueError:
            assume(False)
        pairs = [(u, v) for u, v in pairs if math.gcd(u, v) == 1]
        assume(pairs)
        N = R.degree
        want = [
            sum(a * u**j * v ** (N - j) for j, a in enumerate(R.coeffs)) * v ** (N % 2)
            for u, v in pairs
        ]
        assert [cov.hom_value(ProjectivePoint(u, v)) for u, v in pairs] == want
        u, v = (np.array(col, dtype=np.int64) for col in zip(*pairs))
        model = list(cov._even_model.coeffs)
        assert len(model) == N + N % 2 + 1
        assert kernels.form_values(model, u, v).tolist() == want

    def test_field_disc_rule(self):
        assert quad_specialize(quad_cover(P("T^2 - 2")), 5).m == 23
        rep = quad_specialize(quad_cover(P("T^2 - 2")), 5)
        assert rep.disc_field == 4 * 23  # 23 = 3 mod 4
        rep13 = quad_specialize(quad_cover(P("T^2 + 4")), 3)
        assert rep13.m == 13 and rep13.disc_field == 13  # 1 mod 4


def old_discriminant_y(coeffs_y):
    """Discriminant in Y of a monic P(T, Y) = sum coeffs_y[j](T) Y^j by
    evaluation at T = 0, 1, ... and exact Newton interpolation, as CubicCover
    computed delta before the closed form; kept as oracle."""
    n = len(coeffs_y) - 1
    bound = (2 * n - 1) * max(max(c.degree for c in coeffs_y), 0)
    pts = list(range(bound + 1))
    coef = [Fraction(discriminant(IntPolynomial([c(t) for c in coeffs_y]))) for t in pts]
    for j in range(1, len(pts)):
        for i in range(len(pts) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (pts[i] - pts[i - j])
    out = IntPolynomial([])
    for i in range(len(pts) - 1, -1, -1):
        assert coef[i].denominator == 1
        out = out * IntPolynomial([-pts[i], 1]) + coef[i].numerator
    return out


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

    @given(st.lists(st.lists(st.integers(-6, 6), max_size=5), min_size=3, max_size=3))
    @example([[], [0, 1], [0, 1]])  # Y^3 + TY + T
    @example([[0, -1], [], [0, 0, 1]])  # (Y - T)(Y^2 + TY): delta = 0
    @settings(max_examples=300, deadline=None)
    def test_delta_matches_interpolation(self, cs):
        a2, a1, a0 = (IntPolynomial(c) for c in cs)
        want = old_discriminant_y([a0, a1, a2, IntPolynomial([1])])
        if want.degree < 0:
            with pytest.raises(ValueError):
                CubicCover(a2, a1, a0)
        else:
            assert CubicCover(a2, a1, a0).delta == want

    def test_cycle_types(self):
        cov = self.cover()
        assert cov.cycle_type_at(Fraction(0)) == [3]
        assert cov.cycle_type_at(Fraction(-27, 4)) == [1, 2]
        assert cov.cycle_type_at(INFINITY) == [1, 2]
        assert cov.cycle_type_at(Fraction(1)) == [1, 1, 1]

    def test_wrong_cycle_type_parity_raises(self, monkeypatch):
        # delta = -T^2 (4T + 27): [1, 2] has the wrong parity at T, m = 2
        cov = self.cover()
        monkeypatch.setattr(CubicCover, "cycle_type_at", lambda self, tau: [1, 2])
        with pytest.raises(ConsistencyError):
            cov.branch_orbits()

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

    def test_field_disc_is_resolvent_disc_times_a_square(self, monkeypatch):
        # for an S3 cubic field K, d_K = d_k f^2: each S3 specialisation of
        # Y^3 + TY + T on a box holds it, so p | d_k implies p | d_K, and a
        # d_K off by a prime raises
        cover, groups = self.cover(), set()
        for v in range(1, 16):
            for u in range(-15, 16):
                if math.gcd(u, v) == 1 and cover.delta(Fraction(u, v)):
                    rep = cubic_specialize(cover, Fraction(u, v))
                    groups.add(rep.group)
                    if rep.group == "S3":
                        assert rep.d_K % rep.d_k == 0 and is_nth_power(rep.d_K // rep.d_k, 2)
                        assert all(rep.d_K % p == 0 for p in factorize(abs(rep.d_k)))
        assert "S3" in groups
        field_disc = covers._field_disc
        monkeypatch.setattr(covers, "_field_disc", lambda *a: 5 * field_disc(*a))
        with pytest.raises(ConsistencyError, match="is not d_k"):
            cubic_specialize(cover, 1)

    def test_group_tags(self):
        # Y^3 - 1 factors: C1 after splitting; Y^3 - 2 at t is C3/S3 cases
        rep = cubic_specialize(CubicCover(P("0"), P("0"), P("-1*T")), 2)
        assert rep.group == "S3"  # x^3 - 2: disc -108, nonsquare
        rep2 = cubic_specialize(CubicCover(P("0"), P("-3"), P("-1*T")), 1)
        assert rep2.group == "C3"  # x^3 - 3x - 1: disc 81


# The Newton-Puiseux engine over the branch point's field, in Fraction
# arithmetic, kept as oracle for the closed form of cycle_type_at: OldNF and
# old_cycle_type_at.


class OldNF:
    """Q[x]/(m) with m monic over Q; elements are tuples of Fraction."""

    def __init__(self, minpoly):
        assert minpoly[-1] == 1
        self.m = [Fraction(c) for c in minpoly]
        self.deg = len(minpoly) - 1

    def elt(self, *coeffs):
        cs = [Fraction(c) for c in coeffs][: self.deg]
        return tuple(cs + [Fraction(0)] * (self.deg - len(cs)))

    @property
    def zero(self):
        return self.elt()

    @property
    def one(self):
        return self.elt(1)

    @property
    def gen(self):
        return self.elt(0, 1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def scal(self, c, a):
        return tuple(Fraction(c) * x for x in a)

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for k in range(len(out) - 1, self.deg - 1, -1):
            c = out[k]
            if c:
                out[k] = Fraction(0)
                for j in range(self.deg + 1):
                    out[k - self.deg + j] -= c * self.m[j]
        return tuple(out[: self.deg])

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def inv(self, a):
        # extended Euclid of a(x) against m(x) over Q
        if self.is_zero(a):
            raise ZeroDivisionError

        def trim(v):
            v = list(v)
            while v and v[-1] == 0:
                v.pop()
            return v

        def divmod_q(num, den):
            num = trim(num)
            q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
            while len(num) >= len(den):
                c = num[-1] / den[-1]
                k = len(num) - len(den)
                q[k] = c
                for j in range(len(den)):
                    num[k + j] -= c * den[j]
                num = trim(num)
            return q, num

        r0, r1 = trim(self.m), trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = divmod_q(r0, r1)
            snew = s0[:] + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        snew[i + j] -= qc * sc
            r0, s0 = r1, s1
            r1, s1 = (r if r else [Fraction(0)]), trim(snew) or [Fraction(0)]
        if not r1 or r1[0] == 0:
            raise ZeroDivisionError("element not invertible")
        out = [sc / r1[0] for sc in s1]
        out += [Fraction(0)] * (self.deg - len(out))
        return tuple(out[: self.deg])


def _old_kp_val(a):
    for i, c in enumerate(a):
        if any(x != 0 for x in c):
            return i
    return None


def _old_kp_trim(K, a):
    while a and K.is_zero(a[-1]):
        a.pop()
    return a


def _old_kp_mul(K, a, b):
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not K.is_zero(x):
            for j, y in enumerate(b):
                out[i + j] = K.add(out[i + j], K.mul(x, y))
    return _old_kp_trim(K, out)


def _old_kp_add(K, a, b):
    n = max(len(a), len(b))
    a = a + [K.zero] * (n - len(a))
    b = b + [K.zero] * (n - len(b))
    return _old_kp_trim(K, [K.add(x, y) for x, y in zip(a, b)])


def _old_lower_hull(points):
    hull = []
    for p in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _old_k_gcd(K, a, b):
    a, b = _old_kp_trim(K, a[:]), _old_kp_trim(K, b[:])
    while b:
        r = a[:]
        inv = K.inv(b[-1])
        while len(r) >= len(b):
            c = K.mul(r[-1], inv)
            k = len(r) - len(b)
            for j in range(len(b)):
                r[k + j] = K.sub(r[k + j], K.mul(c, b[j]))
            r = _old_kp_trim(K, r)
            if not r:
                break
        a, b = b, r
    if a:
        inv = K.inv(a[-1])
        a = [K.mul(c, inv) for c in a]
    return a if a else [K.zero]


def _old_root_multiplicity(K, phi, c):
    m = 0
    cur = phi[:]
    while cur:
        val = K.zero
        for co in reversed(cur):
            val = K.add(K.mul(val, c), co)
        if not K.is_zero(val):
            break
        q = [K.zero] * (len(cur) - 1)
        acc = cur[-1]
        for i in range(len(cur) - 2, -1, -1):
            q[i] = acc
            acc = K.add(cur[i], K.mul(acc, c))
        cur = _old_kp_trim(K, q)
        m += 1
    return m


def _old_k_poly_roots(K, phi):
    d = _old_kp_trim(K, [K.scal(i, c) for i, c in enumerate(phi)][1:])
    phi = _old_kp_trim(K, phi[:])
    g = _old_k_gcd(K, phi, d)
    if len(g) == 2:
        c = K.mul(K.sub(K.zero, g[0]), K.inv(g[1]))
        return [(c, _old_root_multiplicity(K, phi, c))]
    if len(g) == 3:
        c = K.mul(K.sub(K.zero, g[1]), K.inv(K.scal(2, g[2])))
        mult = _old_root_multiplicity(K, phi, c)
        assert mult >= 2
        return [(c, mult)]
    assert len(g) == 1
    return []


def _old_recenter(K, F, lam, c):
    n = len(F) - 1
    G = [[] for _ in range(n + 1)]
    cpows = [K.one]
    for _ in range(n):
        cpows.append(K.mul(cpows[-1], c))
    shift = min(lam * j for j in range(n + 1)) if lam < 0 else 0
    for j, Fj in enumerate(F):
        if not Fj:
            continue
        for m in range(j + 1):
            coef = K.scal(math.comb(j, m), cpows[j - m])
            if K.is_zero(coef):
                continue
            term = [K.mul(x, coef) for x in Fj]
            term = [K.zero] * (lam * j - shift) + term if term else []
            G[m] = _old_kp_add(K, G[m], term)
    return G


def _old_branch_indices(K, F, only_positive, depth=0):
    assert depth <= 64
    F = [f[:] for f in F]
    while F and not F[-1]:
        F.pop()
    out = []
    if F and (not F[0] or _old_kp_val(F[0]) is None):
        out.append(1)
        F = F[1:]
    pts = [(j, _old_kp_val(c)) for j, c in enumerate(F) if _old_kp_val(c) is not None]
    if len(pts) <= 1:
        return out
    hull = _old_lower_hull(pts)
    for (j1, v1), (j2, v2) in zip(hull, hull[1:]):
        lam = Fraction(v1 - v2, j2 - j1)
        if only_positive and lam <= 0:
            continue
        b = lam.denominator
        ell = j2 - j1
        if b > 1:
            assert ell // b == 1
            out.append(b)
            continue
        phi = [K.zero] * (ell + 1)
        for j, v in pts:
            if j1 <= j <= j2 and v == v1 - (j - j1) * lam:
                phi[j - j1] = F[j][v]
        phi = _old_kp_trim(K, phi)
        rep = _old_k_poly_roots(K, phi)
        out.extend([1] * (ell - sum(m for _, m in rep)))
        for c, mult in rep:
            G = _old_recenter(K, F, int(lam), c)
            sub = _old_branch_indices(K, G, only_positive=True, depth=depth + 1)
            assert sum(sub) == mult
            out.extend(sub)
    return out


def _old_compose_shift(K, a, tau):
    if a.degree < 0:
        return []
    out = []
    lin = [tau, K.one]
    for c in reversed(a.coeffs):
        out = _old_kp_mul(K, out, lin) if out else []
        out = _old_kp_add(K, out, [K.elt(Fraction(c))])
    return out


def old_cycle_type_at(cover, tau):
    """CubicCover.cycle_type_at in Fraction arithmetic, kept as oracle."""
    if tau is INFINITY:
        K = OldNF([Fraction(0), Fraction(1)])
        D = cover.coeff_degree
        F = []
        for a in (cover.a0, cover.a1, cover.a2):
            rev = a.reverse(D) if a.degree >= 0 else IntPolynomial([])
            F.append([K.elt(c) for c in rev.coeffs])
        F.append([K.zero] * D + [K.one])
        return sorted(_old_branch_indices(K, F, only_positive=False))
    if isinstance(tau, IntPolynomial):
        if tau.degree == 1:
            tau = Fraction(-tau.coeffs[0], tau.coeffs[1])
        else:
            K = OldNF([Fraction(c, tau.lc) for c in tau.coeffs])
            F = [_old_compose_shift(K, a, K.gen) for a in (cover.a0, cover.a1, cover.a2)]
            F.append([K.one])
            return sorted(_old_branch_indices(K, F, only_positive=False))
    K = OldNF([Fraction(0), Fraction(1)])
    tau = K.elt(Fraction(tau))
    F = [_old_compose_shift(K, a, tau) for a in (cover.a0, cover.a1, cover.a2)]
    F.append([K.one])
    return sorted(_old_branch_indices(K, F, only_positive=False))


@st.composite
def cubic_covers(draw):
    """Y^3 + a2 Y^2 + a1 Y + a0 with coefficients of degree <= 3 in [-4, 4]."""
    def small_poly():
        return IntPolynomial(draw(st.lists(st.integers(-4, 4), max_size=4)))

    try:
        return CubicCover(small_poly(), small_poly(), small_poly())
    except ValueError:
        assume(False)


def cover_of(a2, a1, a0):
    return CubicCover(P(a2), P(a1), P(a0))


def degenerate_cover(g, k):
    """Y^3 - 3 g^2 Y + 2 g^3 + g^k = (Y - g)^2 (Y + 2g) + g^k for k >= 4:
    p = -27 g^2 and q = 27 (2 g^3 + g^k) lie on the line 3 v_g(p) = 2 v_g(q)
    = 6, where the residual cubic has a double root, and v_g(delta) = k + 3."""
    g = P(g)
    return CubicCover(IntPolynomial([]), -3 * g * g, 2 * g * g * g + math.prod([g] * k))


class TestCycleTypes:
    # the cycle types at non-monic factors of delta of degree 2 and 4:
    # [3] with m = 2, [1, 2] with m = 3, a node [1, 1, 1] with m = 2, [1, 2]
    @given(cubic_covers(), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)))
    @example(cover_of("0", "T", "T"), Fraction(-27, 4))
    @example(cover_of("0", "0", "-2*T^2-T-2"), Fraction(0))
    @example(cover_of("0", "-2*T^2-2*T+1", "0"), Fraction(1, 2))
    @example(cover_of("-1*T^2-2*T+1", "-2*T^2-1", "0"), Fraction(0))
    @example(cover_of("0", "T+2", "T^2-2*T+2"), Fraction(-2))
    # on the line 3 v(p) = 2 v(q): [1, 2] with m = 7, and [1, 1, 1] with m = 8
    @example(degenerate_cover("T", 4), Fraction(0))
    @example(degenerate_cover("T", 5), Fraction(0))
    @example(degenerate_cover("T^2+1", 4), Fraction(0))
    @example(degenerate_cover("T^2+1", 5), Fraction(0))
    @example(degenerate_cover("2*T^3+T+1", 4), Fraction(0))
    @example(degenerate_cover("2*T^3+T+1", 5), Fraction(0))  # delta of degree 30
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_engine(self, cover, tau):
        for f, _ in cover._factors:
            assert cover.cycle_type_at(f) == old_cycle_type_at(cover, f)
            if f.degree == 1:
                root = Fraction(-f.coeffs[0], f.coeffs[1])
                assert cover.cycle_type_at(root) == old_cycle_type_at(cover, f)
        assert cover.cycle_type_at(INFINITY) == old_cycle_type_at(cover, INFINITY)
        assert cover.cycle_type_at(tau) == old_cycle_type_at(cover, tau)
        cover.branch_orbits()  # the parity cross-check holds

    def test_examples_reach_non_monic_fields(self):
        shapes = set()
        for a2, a1, a0 in [
            ("0", "0", "-2*T^2-T-2"),
            ("0", "-2*T^2-2*T+1", "0"),
            ("-1*T^2-2*T+1", "-2*T^2-1", "0"),
            ("0", "T+2", "T^2-2*T+2"),
        ]:
            cover = cover_of(a2, a1, a0)
            for f, m in cover._factors:
                if f.degree >= 2 and abs(f.lc) > 1:
                    shapes.add((f.degree, tuple(cover.cycle_type_at(f)), m))
        assert shapes == {(2, (3,), 2), (2, (1, 2), 3), (2, (1, 1, 1), 2), (4, (1, 2), 1)}

    def test_examples_reach_the_degenerate_line(self):
        # each cover of the line at g, where the residual cubic has a double root
        shapes = set()
        for g in ("T", "T^2+1", "2*T^3+T+1"):
            for k in (4, 5):
                cover, f = degenerate_cover(g, k), P(g)
                m, a, b = (covers._valuation_at(h, f) for h in (cover.delta, *cover._depressed))
                assert 3 * a == 2 * b > 0
                ct = cover.cycle_type_at(f)
                assert ct == old_cycle_type_at(cover, f)
                shapes.add((k, m, tuple(ct)))
        assert shapes == {(4, 7, (1, 2)), (5, 8, (1, 1, 1))}

    def test_delta_of_degree_30(self):
        """g = 2T^3 + T + 1, k = 5: delta = g^8 h with h of degree 6, past the
        degree cap factor_over_Q once had, from factoring to consistency."""
        cover, g = degenerate_cover("2*T^3+T+1", 5), P("2*T^3+T+1")
        assert cover.delta.degree == 30
        (f, m), (h, k) = cover._factors
        assert (f, m, h.degree, k) == (g, 8, 6, 1)
        assert cover.branch_orbits() == [(HomogPolynomial.from_poly(h), 2)]  # [1, 1, 1] at g
        assert cover.generic_group() == "S3" == old_generic_group(cover)
        assert {2, 3} <= exceptional_superset(cover)
        report = consistency_check(cover, n_samples=10, height=10)
        assert report.samples == 10 and report.checked_primes > 0 and report.mismatches == ()


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
def small_cubic_covers(draw, degree=2):
    """Y^3 + a2 Y^2 + a1 Y + a0 with small coefficients of degree <= degree,
    half of them (Y - r)(Y^2 + b Y + c), so reducible over Q(T)."""
    def small_poly():
        return IntPolynomial(draw(st.lists(st.integers(-3, 3), max_size=degree + 1)))

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
        assert cover.group_order == {"S3": 6, "C3": 3, "C2": 2, "C1": 1}[group]

    @given(small_cubic_covers())
    @settings(max_examples=150, deadline=None)
    def test_matches_bivariate_route(self, cover):
        assert cover.generic_group() == old_generic_group(cover)

    @given(small_cubic_covers(3))
    @example(cover_of("0", "-1*T^2", "0"))  # three roots in Z[T]
    @example(cover_of("-1*T^3", "1", "-1*T^3"))  # (Y - T^3)(Y^2 + 1): root of degree deg a2
    @example(cover_of("0", "-1*T^4+1", "-1*T^2"))  # (Y - T^2)(Y^2 + T^2 Y + 1): deg a1 / 2
    @example(cover_of("0", "0", "-1*T^6"))  # Y^3 - T^6: degree deg a0 / 3
    # irreducible, delta(0) = 0, roots 1, 2 at T = 1, 2: interpolated, then rejected
    @example(cover_of("0", "0", "T^3-6*T^2+4*T"))
    @example(cover_of("0", "-3*T^2", "0"))  # delta = 108 T^6: a square times a non-square
    @settings(max_examples=300, deadline=None)
    def test_integer_root_route_matches_bivariate_route(self, cover):
        """_reducible_over_QT by integer roots at a few points agrees with
        sympy's factorisation of P(T, Y), on every cover."""
        assert cover.generic_group() == old_generic_group(cover)

    @pytest.mark.parametrize(
        "a2, a1, a0",
        [
            ("5*T^2", "1", "5*T^2"),  # (Y + 5T^2)(Y^2 + 1)
            ("0", "-49*T^2 + 1", "-7*T"),  # (Y - 7T)(Y^2 + 7TY + 1)
        ],
        ids=["coefficient-at-B-1", "a1-sets-B"],
    )
    def test_kronecker_digit_bound(self, a2, a1, a0):
        """Covers whose root in Z[T] sits near the digit bound
        B = 1 + max(|a2|_1, |a1|_1, |a0|_1): the root -5T^2 has a coefficient
        B - 1 = 5, and the root 7T needs B = 51 from a1, where |a2|_1 alone
        gives 1. Each is read back from one root at t0 >= 2B + 1."""
        cover = cover_of(a2, a1, a0)
        assert cover.generic_group() == "C2" == old_generic_group(cover)

    @pytest.mark.parametrize("k", range(4, 15))
    def test_split_family_decided_by_one_root_call(self, monkeypatch, k):
        """Y (Y - P_k)(Y + P_k), P_k = prod_{i<k} (2T - 2i - 1): the three
        roots in Z[T] change order between integer points t, and one root
        computation at a single t0 decides the cover reducible."""
        pk = math.prod((IntPolynomial([-2 * i - 1, 2]) for i in range(k)), start=IntPolynomial([1]))
        cover = CubicCover(IntPolynomial([]), -(pk * pk), IntPolynomial([]))
        calls = []
        real = covers._cubic_roots

        def spy(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(covers, "_cubic_roots", spy)
        assert cover._reducible_over_QT()
        assert len(calls) == 1
        assert cover.generic_group() == "C1"


def old_reducible_class(f):
    """Group and field discriminant of a reducible monic cubic from its sympy
    factorisation over Q, kept as oracle."""
    _, factors = factor_over_Q(f)
    quad = [g for g, _ in factors if g.degree == 2]
    if not quad:
        return "C1", 1
    return "C2", quad_disc(squarefree_part(discriminant(quad[0])))


def old_monic_cubic_root(f):
    """An integer root of a monic integer cubic, or None, from the divisors
    of f(0); the divisor route kept as oracle."""
    c0 = f.coeffs[0]
    if c0 == 0:
        return 0
    divisors = [1]
    for p, e in factorize(c0).items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return next((r for d in divisors for r in (d, -d) if f(r) == 0), None)


def old_cubic_integer_roots(f):
    """Every integer root of a monic integer cubic: one from
    old_monic_cubic_root, the others from the quadratic cofactor."""
    r = old_monic_cubic_root(f)
    if r is None:
        return set()
    _, a1, a2, _ = f.coeffs
    b = a2 + r  # f = (x - r)(x^2 + b x + c), c = a1 + r b
    s = nth_root(b * b - 4 * (a1 + r * b), 2)
    if s is None:
        return {r}
    return {r, (-b + s) // 2, (-b - s) // 2}


@st.composite
def monic_cubics(draw):
    """Monic integer cubics: half of them (x - r)(x^2 + b x + c), whose
    cofactor may have integer roots, some equal to r, or f(0) = 0."""
    if draw(st.booleans()):
        r = draw(st.one_of(st.integers(-50, 50), st.sampled_from([720720, -151351200])))
        b, c = draw(st.integers(-60, 60)), draw(st.integers(-900, 900))
        return IntPolynomial([-r, 1]) * IntPolynomial([c, b, 1])
    return IntPolynomial(draw(st.lists(st.integers(-10**4, 10**4), min_size=3, max_size=3)) + [1])


class TestMonicCubicRoots:
    @given(monic_cubics())
    @example(P("T^3 - 8"))
    @example(P("T^3 + T^2"))  # a double root at 0
    @example(P("T^3 - 3*T + 2"))  # (x - 1)^2 (x + 2)
    @example(IntPolynomial([-720720, 1]) * P("T^2 + 1"))  # f(0) with 240 divisors
    @settings(max_examples=500, deadline=None)
    def test_match_divisor_route(self, f):
        roots = _rational_roots(f)
        assert all(r.denominator == 1 for r in roots)
        assert {int(r) for r in roots} == old_cubic_integer_roots(f)
        assert bool(roots) == (old_monic_cubic_root(f) is not None)

    def test_root_tables_match_brute_force(self):
        for q, table in covers._ROOT_TABLES:
            for a2, a1, a0 in itertools.product(range(q), repeat=3):
                has_root = any((r**3 + a2 * r * r + a1 * r + a0) % q == 0 for r in range(q))
                assert table[(a2 * q + a1) * q + a0] == has_root, (q, a2, a1, a0)

    @given(monic_cubics())
    @example(P("T^3 + 2*T^2 + 2*T + 1"))  # (x + 1)(x^2 + x + 1): its one root mod 2 is 1
    @example(P("T^3 - 2"))
    @example(P("T^3 - 3*T + 2"))  # (x - 1)^2 (x + 2)
    @example(P("T^3 + T^2"))  # a double root at 0
    @settings(max_examples=500, deadline=None)
    def test_prefiltered_route_matches(self, f):
        assert covers._cubic_roots(f) == _rational_roots(f)

    @given(
        st.integers(-(10**12), 10**12),
        st.integers(-(10**6), 10**6),
        st.integers(-(10**12), 10**12),
    )
    @example(-1, 1, 1)  # (x + 1)(x^2 + x + 1)
    @example(10**12, 0, 3)
    @example(-(10**12), 1, 1)
    @example(7, -14, 49)  # (x - 7)^3
    @settings(max_examples=500, deadline=None)
    def test_a_rational_root_is_never_filtered_out(self, r, b, c):
        f = IntPolynomial([-r, 1]) * IntPolynomial([c, b, 1])
        assert Fraction(r) in covers._cubic_roots(f)


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


def old_dedekind_p_maximal(f, p):
    """Dedekind's criterion from the full factorisation of f mod p, kept as
    oracle."""
    factors = sympy_factors_mod_p(f, p)
    one = IntPolynomial([1])
    g = math.prod((fac for fac, _ in factors), start=one)
    h = math.prod((fac for fac, m in factors for _ in range(m - 1)), start=one)
    T = g * h - f
    d = fp.gcd(fp.reduce([c // p for c in T.coeffs], p), fp.reduce(g.coeffs, p), p)
    return len(fp.gcd(d, fp.reduce(h.coeffs, p), p)) == 1


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

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_dedekind_matches_factorisation_exhaustive(self, p):
        # every monic cubic mod p^2, which decides the criterion; x^3 - a too
        r = range(p * p)
        for a0, a1, a2 in itertools.product(r, r, r):
            f = IntPolynomial([a0, a1, a2, 1])
            assert covers._dedekind_p_maximal(f, p) == old_dedekind_p_maximal(f, p)

    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.lists(st.integers(-400, 400), min_size=3, max_size=3),
    )
    @example(2, [-2, 0, 0])
    @example(3, [-10, 0, 0])  # x^3 - 10 = (x - 1)^3 mod 3
    @example(5, [24, 3, -3])  # (x - 1)^3 + 25: a triple root, 5 | a^2 - 3b
    @example(5, [4, 3, -3])  # (x - 1)^3 + 5
    @example(7, [41, 12, -6])  # (x - 2)^3 + 49
    @settings(max_examples=500, deadline=None)
    def test_dedekind_matches_factorisation(self, p, cs):
        f = IntPolynomial(cs + [1])
        assert covers._dedekind_p_maximal(f, p) == old_dedekind_p_maximal(f, p)

    def test_dedekind_calls_nothing_in_fp(self, monkeypatch):
        # the cross-check must not find its multiple root the way
        # _cubic_index_exponent does (fp.double_root), or it checks nothing
        cases = [
            (IntPolynomial([a0, a1, a2, 1]), p)
            for p in (2, 3)
            for a0, a1, a2 in itertools.product(range(p * p), repeat=3)
        ] + [
            (IntPolynomial([-r, 1]) * IntPolynomial([-r, 1]) * IntPolynomial([-s, 1]) + p * t, p)
            for p in (5, 7)
            for r, s, t in itertools.product(range(p), repeat=3)
        ]
        want = [old_dedekind_p_maximal(f, p) for f, p in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("fp was called")

        for name, value in vars(fp).items():
            if callable(value) and getattr(value, "__module__", None) == fp.__name__:
                monkeypatch.setattr(fp, name, refuse)
        with pytest.raises(AssertionError):
            fp.double_root([0, 0, 1], 5)
        assert [covers._dedekind_p_maximal(f, p) for f, p in cases] == want
        assert False in want and True in want

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
        assume(not _rational_roots(f))
        x = sympy.Symbol("x")
        _, want = round_two(sympy.Poly([1, a2, a1, a0], x, domain=sympy.ZZ))
        assert cubic_field_disc(f) == int(want)


class TestSurvey:
    def test_survey_cover_passes(self):
        t = P("T")
        pred = s3_survey_predicates(P("0"), t, t)
        assert pred.separable and pred.galois_S3 and pred.regular

    def test_inseparable_fails(self):
        pred = s3_survey_predicates(P("0"), P("0"), P("0"))
        assert not pred.separable and not pred.all_conditions

    @given(small_cubic_covers())
    @example(cover_of("0", "T", "T"))
    @example(cover_of("0", "0", "T^3-6*T^2+4*T"))
    @settings(max_examples=150, deadline=None)
    def test_flags_are_the_covers_answers(self, cover):
        """Each flag is what the cover itself answers, and what sympy and the
        Fraction-arithmetic cycle type give independently."""
        pred = s3_survey_predicates(cover.a2, cover.a1, cover.a0)
        group = cover.generic_group()
        assert pred.separable
        assert pred.galois_S3 == (group == "S3") == (old_generic_group(cover) == "S3")
        dfac = cover._factors
        assert pred.delta_irreducible == (len(dfac) == 1 and dfac[0][1] == 1)
        T, x = sympy.symbols("T x")
        _, sym = sympy.factor_list(sum(int(c) * T**i for i, c in enumerate(cover.delta.coeffs)))
        assert pred.delta_irreducible == (len(sym) == 1 and sym[0][1] == 1)
        D = cover.coeff_degree
        l0, l1, l2 = (a.coeffs[D] if a.degree == D else 0 for a in (cover.a0, cover.a1, cover.a2))
        form = sympy.Poly(l2 * x**2 + l1 * x + l0, x)
        assert pred.leading_form_ok == (form.degree() == 2 and form.is_irreducible)
        ct = cover.cycle_type_at(INFINITY)
        assert pred.infinity_unbranched == (ct == [1, 1, 1]) == (old_cycle_type_at(cover, INFINITY) == [1, 1, 1])
        assert pred.branch_conjugate == (pred.delta_irreducible and pred.infinity_unbranched)
        assert pred.regular == (group == "S3" and any(m % 2 for _, m in dfac))
        assert pred.all_conditions == (
            pred.galois_S3 and pred.delta_irreducible and pred.leading_form_ok
        )


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
        primes, density = chebotarev_unramified_sieve(P("T^2 + 1"), 10**4)
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

    # x = 2999 is prime: the largest prime needs t = 0 and t = 2998 = X - 1
    @given(
        st.lists(st.integers(-60, 60), min_size=2, max_size=9).filter(lambda c: c[-1] != 0),
        st.integers(0, 5000).map(primes_up_to),
    )
    @example([1, 1], primes_up_to(2999))  # T + 1: root X - 1 mod the largest prime
    @example([2999, 0, 1], primes_up_to(2999))  # T^2 + 2999: only root 0 mod 2999
    @example([1, 0, 1, 2999], primes_up_to(2999))  # 2999T^3 + T^2 + 1: mod 2999 the degree drops
    @example([3, 0, 7], primes_up_to(100))  # 7T^2 + 3: constant mod 7
    @example([-1234, 1, -1234, 1], primes_up_to(5000))  # (T - 1234)(T^2 + 1): an integer root in [0, x)
    @example([3, 2**70, 0, 0, 1], primes_up_to(3000))  # a coefficient beyond int64
    @example([-(2**62) - 7, 0, 2**64 + 1], primes_up_to(3000))  # big lc, reduced per prime
    @example([5, 1], [])  # no primes
    @example([7], primes_up_to(100))  # degree 0
    @example([1, -2, 2, -2, 1], primes_up_to(3000))  # (T - 1)^2 (T^2 + 1): a repeated root mod every p
    @example([0, -1, 0, 1], [3, 2, 5, 7])  # T^3 - T: 3 roots mod 3, trace 3 = 0
    @example([0, -1, 0, 0, 0, 1], primes_up_to(50))  # T^5 - T: 5 roots mod 5
    @example([-5, 3, 0, 0, 0, 0, 6], primes_up_to(3000))  # 6T^6 + 3T - 5: lc inverted mod p
    @example([1, 1] + [0] * 8 + [1], primes_up_to(10**4))  # T^10 + T + 1
    # primes on both sides of the float64 bound, rootless except the last
    @example([-3, 0, 1], primes_around_trace_limit(2))
    @example([-9, 1, 0, 0, 0, 0, 1], primes_around_trace_limit(6))
    @settings(max_examples=100, deadline=None)
    def test_rootless_primes_match_root_test(self, coeffs, primes):
        R = IntPolynomial(coeffs)
        primes = [p for p in primes if R.content % p]
        want = [p for p in primes if covers._rootless_mod_p(R, p)]
        assert fp._rootless_primes(R, primes) == want
        if max(primes, default=0) <= 10**4:
            assert old_rootless_primes(R, primes) == want

    @given(
        st.lists(st.integers(-60, 60), min_size=2, max_size=9).filter(lambda c: c[-1] != 0),
        # the last prime is just below the float64 bound for degree 8
        st.sampled_from([11, 101, 1009, 4099, 5003, sympy.prevprime(fp._trace_prime_limit(8) + 1)]),
    )
    @example([0, -1, 0, 0, 0, 1], 7)  # T^5 - T: roots 0, 1, -1
    @example([1, -2, 2, -2, 1], 13)  # (T - 1)^2 (T^2 + 1): roots 1, 5, 8
    @settings(max_examples=100, deadline=None)
    def test_frobenius_trace_counts_roots(self, coeffs, p):
        R = IntPolynomial(coeffs)
        assume(R.lc % p)
        c = [a % p for a in coeffs]
        lc_inv = pow(c[-1], -1, p)
        r = np.array([[a * lc_inv % p] for a in c[:-1]], dtype=np.int64)
        trace = fp._frobenius_traces(r, np.array([p], dtype=np.int64))
        assert trace.tolist() == [fp.root_count(R, p)]

    def test_rootless_primes_order_and_vanishing(self):
        assert fp._rootless_primes(P("T^2 + 1"), [13, 3, 5, 7]) == [3, 7]
        with pytest.raises(ValueError):
            fp._rootless_primes(P("6*T^2 + 6"), [2, 5])

    def test_chebotarev_sieve_unchanged(self):
        R = P("T^6 - T - 1")
        primes, density = chebotarev_unramified_sieve(R, 5000)
        # pinned from the gcd-only root test
        assert (len(primes), sum(primes), primes[:6]) == (240, 563469, [2, 3, 7, 11, 23, 41])
        assert density == 240 / 669
        want = [p for p in sympy.primerange(2, 5001) if old_rootless_mod_p(R, p)]
        assert primes == want

    @pytest.mark.parametrize(
        "cover, calls",
        [
            # T^2 - 1 at height 3: (+-1, 1) are branch points and are skipped
            (
                quad_cover(P("T^2 - 1")),
                [(-1, 1, "raised"), (-3, 1), (-3, 2), (1, 1, "raised"), (1, 1, "raised"),
                 (-3, 1), (-3, 1), (0, 1)],
            ),
            (
                CubicCover(IntPolynomial([0]), P("T"), P("T")),
                [(-1, 1), (-3, 1), (-3, 2), (1, 1), (1, 1)],
            ),
        ],
        ids=["T^2-1", "Y^3+TY+T"],
    )
    def test_samplers_draw_pinned_points(self, monkeypatch, cover, calls):
        """The first five points that verify_unramified and consistency_check
        draw for seed 7 at height 3, pinned from the two samplers they had
        before sharing one. The specialisers are looked up where they are
        called, so a wrapper bound in covers sees every call."""
        seen = []
        for name in ("quad_specialize", "cubic_specialize"):
            orig = getattr(covers, name)

            def record(c, pt, orig=orig):
                try:
                    rep = orig(c, pt)
                except ValueError:
                    seen.append((pt.u, pt.v, "raised"))
                    raise
                seen.append((pt.u, pt.v))
                return rep

            monkeypatch.setattr(covers, name, record)
        verify_unramified(cover, [3, 5], {2}, n_samples=5, height=3, seed=7)
        assert seen == calls
        seen.clear()
        assert consistency_check(cover, n_samples=5, height=3, seed=7).samples == 5
        assert seen == calls

    @pytest.mark.parametrize(
        "cover",
        [quad_cover(P("T^3 - T")), CubicCover(P("0"), P("T^3 - T"), P("0"))],
        ids=["T^3-T", "Y^3+(T^3-T)Y"],
    )
    def test_samplers_raise_on_a_box_of_branch_points(self, cover):
        """At height 1 the coprime points are -1, 0 and 1, all roots of the
        branch polynomial (P, and delta = -4 (T^3 - T)^3): both samplers
        raise, naming the height, instead of drawing forever. At height 2
        there is a point to draw."""

        def hung(signum, frame):
            raise AssertionError("the sampler did not return")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match=r"<= 1 "):
                consistency_check(cover, n_samples=1, height=1)
            with pytest.raises(ValueError, match=r"<= 1 "):
                verify_unramified(cover, [3, 5], set(), n_samples=1, height=1)
            assert consistency_check(cover, n_samples=1, height=2).samples == 1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_verify_unramified(self):
        cov = quad_cover(P("T^2 - 2"))
        primes, _ = chebotarev_unramified_sieve(P("T^2 - 2"), 200)
        bad = verify_unramified(cov, primes, {2}, n_samples=60, height=40, seed=5)
        assert bad == []
