import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import fp
from speclab.poly import IntPolynomial

# primes on both sides of the numpy cutoff of root_count
ROOT_TEST_PRIMES = [2, 3, 5, 7, 11, 101, 1009, 4093, 4099, 5003]


@given(
    st.lists(st.integers(-60, 60), min_size=1, max_size=9),
    st.sampled_from(ROOT_TEST_PRIMES),
)
@settings(max_examples=200, deadline=None)
def test_root_count_matches_brute_force(coeffs, p):
    R = IntPolynomial(coeffs)
    if all(c % p == 0 for c in coeffs):
        with pytest.raises(ValueError):
            fp.root_count(R, p)
        return
    assert fp.root_count(R, p) == len({t for t in range(p) if R(t) % p == 0})


@pytest.mark.parametrize("p", [3, 4093, 4099])
def test_root_count_of_products(p):
    # distinct roots counted once; roots that meet mod p merge
    R = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) * IntPolynomial([-(2 + p), 1])
    assert fp.root_count(R, p) == 2
    assert fp.root_count(R * IntPolynomial([-(1 + 2 * p), 1]), p) == 2
    x_p = IntPolynomial([0, -1] + [0] * (p - 2) + [1])  # x^p - x: every residue
    assert fp.root_count(x_p, p) == p


def multiplicity_at(coeffs, r, p):
    """Largest k <= 3 with (x - r)^k dividing the polynomial mod p."""
    shifted = IntPolynomial(coeffs).shift(r).coeffs  # f(x + r)
    return next((k for k in range(3) if shifted[k] % p), 3)


@given(
    st.sampled_from([2, 3, 5, 7, 101]),
    st.integers(-100, 100),
    st.integers(-100, 100),
    st.integers(1, 100),
    st.booleans(),
    st.lists(st.integers(-50, 50), min_size=4, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_double_root_matches_brute_force(p, r, s, unit, quadratic, noise):
    """unit * (x - r)^2 * (x - s), or unit * (x - r)^2 + p x^3 (degree 2 mod
    p), each plus p times noise: a multiple root r, double or triple."""
    unit = unit % p or 1
    square = IntPolynomial([r * r, -2 * r, 1]) * unit
    f = square + IntPolynomial([0, 0, 0, p]) if quadratic else square * IntPolynomial([-s, 1])
    coeffs = [c + p * e for c, e in zip(f.coeffs, noise)]
    assert [t for t in range(p) if multiplicity_at(coeffs, t, p) >= 2] == [r % p]
    assert fp.double_root(coeffs, p) == r % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_power_class_is_one_on_nth_powers(p, n):
    powers = {pow(x, n, p) for x in range(1, p)}
    assert fp.power_class(0, p, n) == fp.power_class(p, p, n) == 0
    for a in range(1, p):
        assert (fp.power_class(a, p, n) == 1) == (a in powers)
        assert fp.power_class(a - 5 * p, p, n) == fp.power_class(a, p, n)


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=13).filter(lambda c: c[-1]),
    st.sampled_from([3, 5, 7, 101]),
    st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_hensel_lift_reassembles(coeffs, p, k):
    f = IntPolynomial(coeffs)
    a = fp.reduce(coeffs, p)
    if len(a) != len(coeffs) or fp.gcd(a, fp._deriv(a, p), p) != [1]:
        return  # p divides lc(f), or f mod p is not squarefree
    factors = [list(g.coeffs) for g, _ in fp.factor_mod_p(f, p)[1]]
    pk = p**k
    lifted = fp.hensel_lift(coeffs, factors, p, pk)
    prod = [f.lc % pk]
    for u, g in zip(lifted, factors):
        assert u[-1] == 1 and fp.reduce(u, p) == g
        prod = fp._mul(prod, u, pk)
    assert prod == fp.reduce(coeffs, pk)


# Run in a fresh interpreter in which importing sympy fails: every core
# module, a cubic and a quadratic consistency check, an S3 survey that reaches
# the route without a specialisation witness, a Hasse-failure scan and each
# README command-line example (at reduced sizes).
NO_SYMPY_RUN = """
import os, sys
sys.modules["sympy"] = None
import speclab.fp, speclab.poly, speclab.covers, speclab.twists
import speclab.census, speclab.ramify, speclab.bounds, speclab.cli
from speclab.census import s3_survey
from speclab.covers import CubicCover, quad_cover
from speclab.poly import parse_poly
from speclab.ramify import consistency_check
from speclab.twists import hasse_failure_candidates

T = parse_poly
cubic = CubicCover(T("0"), T("T"), T("T"))
assert consistency_check(cubic, n_samples=10, height=30, seed=1).samples == 10
assert consistency_check(quad_cover(T("T^6-T-1")), n_samples=10, height=30, seed=1).samples == 10

without_witness = []
route = CubicCover._group_over_QT
CubicCover._group_over_QT = lambda self: without_witness.append(self) or route(self)
s3_survey(1, 1, sample_size=10**3, seed=0)
assert without_witness

hasse_failure_candidates(quad_cover(T("T^8+3*T^6+4*T^4+6*T^2+4")), 30, 50)

out = os.path.join(sys.argv[1], "out")
for argv in (
    ["specialize", "--cover", "T^2 - 2", "--t0", "7"],
    ["twist-scan", "--cover", "T^8+3*T^6+4*T^4+6*T^2+4", "--t0", "1", "--bound", "300"],
    ["density", "--cover", "T^6-T-1", "--grid", "100,200,300,1000", "--fit", "--csv", out + ".csv"],
):
    assert speclab.cli.run(argv + ["--out", out + ".json"]) in (0, 2), argv
assert [m for m in sys.modules if m.split(".")[0] == "sympy"] == ["sympy"]
assert sys.modules["sympy"] is None
"""


def test_core_modules_do_not_import_sympy(tmp_path):
    """sympy is a test-only dependency: nothing in speclab imports it, and the
    CLI's start-up stays cheap."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_RUN, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
