import os
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speclab import fp
from speclab.intutil import primes_up_to
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


def split_mod_p(coeffs, p, seed=0):
    """The irreducible factors mod an odd prime p of a polynomial that is
    squarefree mod p, by distinct-degree then equal-degree splitting of its
    monic reduction; None when p divides the leading coefficient or the
    reduction is not squarefree."""
    a = fp.reduce(coeffs, p)
    if len(a) != len(coeffs) or fp.gcd(a, fp._deriv(a, p), p) != [1]:
        return None
    inv = pow(a[-1], -1, p)
    a = [c * inv % p for c in a]
    rng = random.Random(seed)
    return [g for part, d in fp._ddf(a, p) for g in fp._edf(part, d, p, rng)]


@given(
    st.lists(st.integers(-30, 30), min_size=2, max_size=9).filter(lambda c: c[-1]),
    st.sampled_from(primes_up_to(60)[1:]),
    st.integers(0, 3),
)
@example([-1, 0, 0, 0, 0, 0, 1], 7, 0)  # T^6 - 1: six linear factors mod 7
@example([1, 0, 0, 0, 1], 17, 0)  # T^4 + 1: four linear factors mod 17
@example([2, 0, 3, 0, 1], 3, 0)  # (T^2 + 1)(T^2 + 2) mod 3: two quadratics
@settings(max_examples=200, deadline=None)
def test_ddf_edf_split_reassembles(coeffs, p, seed):
    """Monic irreducible factors whose product is the monic reduction of f,
    and which are the factors of sympy's factorisation mod p."""
    factors = split_mod_p(coeffs, p, seed)
    if factors is None:
        return
    prod = [1]
    for g in factors:
        assert g[-1] == 1
        prod = fp._mul(prod, g, p)
    inv = pow(coeffs[-1], -1, p)
    assert prod == fp.reduce([c * inv for c in coeffs], p)
    x = sympy.Symbol("x")
    _, want = sympy.Poly(coeffs[::-1], x, modulus=p).factor_list()
    assert all(m == 1 for _, m in want)
    want = [[int(c) % p for c in g.all_coeffs()[::-1]] for g, _ in want]
    assert sorted(factors) == sorted(want)


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=13).filter(lambda c: c[-1]),
    st.sampled_from([3, 5, 7, 101]),
    st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_hensel_lift_reassembles(coeffs, p, k):
    f = IntPolynomial(coeffs)
    factors = split_mod_p(coeffs, p, seed=f"0,{p}")
    if factors is None:
        return  # p divides lc(f), or f mod p is not squarefree
    pk = p**k
    lifted = fp.hensel_lift(coeffs, factors, p, pk)
    prod = [f.lc % pk]
    for u, g in zip(lifted, factors):
        assert u[-1] == 1 and fp.reduce(u, p) == g
        prod = fp._mul(prod, u, pk)
    assert prod == fp.reduce(coeffs, pk)


# Run in a fresh interpreter in which importing sympy fails: every core
# module, a cubic and a quadratic consistency check, an S3 survey, a
# Hasse-failure scan and each README command-line example (at reduced sizes).
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

s3_survey(1, 1, sample_size=10**3, seed=0)

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


# Run in a fresh interpreter: fp is the bottom F_p layer, so importing it
# loads no other speclab module; poly imports fp at module level and none of
# its functions imports a module; covers leaves the vectorised F_p ladder,
# and numpy with it, to fp.
LAYERING_RUN = """
import ast, inspect, sys
import speclab.fp
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "speclab")
assert loaded == ["speclab", "speclab.fp"], loaded
import speclab.covers, speclab.poly

def imports(node):
    return [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]

tree = ast.parse(inspect.getsource(speclab.poly))
functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
assert [n.lineno for f in functions for n in imports(f)] == []
names = {a.name for n in imports(ast.parse(inspect.getsource(speclab.covers))) for a in n.names}
assert "numpy" not in names, names
"""


def test_fp_is_the_bottom_layer():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAYERING_RUN], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# Run in a fresh interpreter: the valuation argument has one home. Outside
# fp, only twists._certifying_primes and covers.chebotarev_unramified_sieve
# name fp._rootless_primes, only twists._certifying_primes names
# covers._rootless_mod_p, and census imports no part of fp.
VALUATION_RUN = """
import ast, importlib, inspect, pkgutil
import speclab

watched = ("_rootless_primes", "_rootless_mod_p")
users = {name: set() for name in watched}

def visit(node, module, scope):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        name = child.attr if isinstance(child, ast.Attribute) else getattr(child, "id", None)
        if isinstance(child, (ast.Name, ast.Attribute)) and name in users:
            users[name].add(".".join((module,) + inner))
        visit(child, module, inner)

trees = {}
for info in pkgutil.walk_packages(speclab.__path__, "speclab."):
    tree = ast.parse(inspect.getsource(importlib.import_module(info.name)))
    trees[info.name] = tree
    if info.name != "speclab.fp":
        visit(tree, info.name.removeprefix("speclab."), ())
assert users == {
    "_rootless_primes": {"twists._certifying_primes", "covers.chebotarev_unramified_sieve"},
    "_rootless_mod_p": {"twists._certifying_primes"},
}, users

imported = set()
for n in ast.walk(trees["speclab.census"]):
    if isinstance(n, ast.ImportFrom):
        imported.update((n.module or "").split("."))
    if isinstance(n, (ast.Import, ast.ImportFrom)):
        imported.update(part for a in n.names for part in a.name.split("."))
assert "fp" not in imported, imported
assert not hasattr(importlib.import_module("speclab.census"), "fp")
"""


def test_valuation_argument_has_one_home():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", VALUATION_RUN], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
