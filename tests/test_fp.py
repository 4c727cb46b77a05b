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


def test_core_modules_do_not_import_sympy():
    """sympy is loaded only when an exact-algebra routine first needs it; the
    F_p arithmetic never does, and the CLI's start-up stays cheap."""
    modules = ["fp", "poly", "covers", "twists", "census", "ramify", "bounds", "cli"]
    code = "import sys\n" + "".join(f"import speclab.{m}\n" for m in modules)
    code += "assert 'sympy' not in sys.modules\n"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
