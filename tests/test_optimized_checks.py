"""The library's internal checks raise exceptions, so they still run under
``python -O``, which strips ``assert`` statements.

Each case runs in a ``python -O`` subprocess, seeds the fault that its
check guards against (by patching the route the check compares with), and
expects a ConsistencyError.
"""

import ast
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import sys
from fractions import Fraction
if not sys.flags.optimize:
    sys.exit("not running under -O")
try:
    assert False
except AssertionError:
    sys.exit("assert statements still run")
from speclab.poly import ConsistencyError, parse_poly
"""

CASES = {
    "bounds.condition_eq1": """
        from speclab.bounds import RamificationType, condition_eq1
        rt = RamificationType((2,) * 5)
        object.__setattr__(rt, "q0", 1)  # r >= 5 fires case 1, but r * 0 > 2 fails
        condition_eq1(rt)
    """,
    "bounds.condition_eq2.case": """
        from speclab.bounds import GroupDescriptor, RamificationType, condition_eq2
        rt = RamificationType((2,) * 4)
        object.__setattr__(rt, "q0", 101)  # case d fires, the inequality fails
        condition_eq2(rt, GroupDescriptor(2))
    """,
    "bounds.condition_eq2.exponent": """
        from speclab import bounds
        bounds.malle_alpha = lambda G: Fraction(0)
        bounds.condition_eq2(bounds.RamificationType((2,) * 7), bounds.GroupDescriptor(2))
    """,
    "bounds.beta_exponent": """
        from speclab import bounds
        bounds.malle_alpha = lambda order: Fraction(0)
        bounds.beta_exponent(2, 6)
    """,
    "poly.resultant": """
        from speclab import poly
        remainders = poly._remainders
        # each term with its content plus 1: 2 no longer divides the numerator
        poly._remainders = lambda a, b: ((r, c + 1) for r, c in remainders(a, b))
        poly.resultant(parse_poly("T^3+T+1"), parse_poly("2*T^2+1"))
    """,
    "poly.discriminant": """
        from speclab import poly
        poly.resultant = lambda a, b: 3  # not divisible by lc = 2
        poly.discriminant(parse_poly("2*T^2+1"))
    """,
    "covers.CubicCover.cycle_type_at": """
        from speclab import covers
        t = parse_poly("T")
        cov = covers.CubicCover(parse_poly("0"), t, t)  # delta = -T^2 (4T + 27)
        # one more factor T: v(delta) = 3, where v(p) = v(q) = 1 force 2; the
        # parity would then give [1, 2] where the type is [3]
        object.__setattr__(cov, "delta", cov.delta * t)
        cov.cycle_type_at(Fraction(0))
    """,
    "covers._dedekind_p_maximal": """
        from speclab import covers
        # T^3 - 2 = (T - 2)^3 mod 3, and 0 is not its multiple root
        covers._multiple_root = lambda a, b, c, p: 0
        covers._dedekind_p_maximal(parse_poly("T^3-2"), 3)
    """,
    "covers.CubicCover.branch_orbits": """
        from speclab import covers
        t = parse_poly("T")
        cov = covers.CubicCover(parse_poly("0"), t, t)  # delta = -T^2 (4T + 27)
        # unramified at the simple root -27/4, where the parity asks for [1, 2]
        covers.CubicCover.cycle_type_at = lambda self, tau: [1, 1, 1]
        cov.branch_orbits()
    """,
    "covers._field_disc.index_dropped": """
        from speclab import covers
        # Dedekind's x^3 + x^2 - 2x + 8 has index 2: v_2 drops from 2 to 0
        covers._dedekind_p_maximal = lambda f, p: True
        covers.cubic_field_disc(parse_poly("T^3+T^2-2*T+8"))
    """,
    "covers._field_disc.index_kept": """
        from speclab import covers
        # x^3 - 2 is Eisenstein at 2, so 2-maximal although 4 | disc = -108
        covers._dedekind_p_maximal = lambda f, p: False
        covers.cubic_field_disc(parse_poly("T^3-2"))
    """,
    "poly._check_product": """
        from speclab import poly
        poly._zassenhaus = lambda f, good: [f, f]  # one factor too many
        poly.factor_over_Q(parse_poly("T^2+1"))
    """,
    "twists.admissible_prime_scan": """
        from speclab import twists
        from speclab.covers import quad_cover
        twists.everywhere_locally_soluble = lambda curve: (twists.INSOLUBLE, {})
        # the first admissible prime of this cover at t0 = 1 is 193
        twists.admissible_prime_scan(quad_cover(parse_poly("T^8+3*T^6+4*T^4+6*T^2+4")), 1, 200)
    """,
    "ramify._factor_over": """
        from speclab import covers, ramify
        carrying = covers._carrying
        # the specialiser leaves no primes, so every orbit value keeps a cofactor
        covers._carrying = lambda rep, nfac: carrying(rep, {})
        cov = covers.quad_cover(parse_poly("T^2-2"))
        ramify.predict(cov, 3, None, covers.quad_specialize(cov, 3)._primes)
    """,
    "twists.SuperellipticCurve.genus": """
        from speclab import twists
        curve = twists.SuperellipticCurve(2, parse_poly("T-1"))
        twists.gcd = lambda a, b: 0  # Riemann-Hurwitz then gives 2g = 1
        curve.genus
    """,
}


def test_every_check_has_a_case():
    """Each function of speclab with k `raise ConsistencyError` statements
    has at least k CASES keys named for it: "module.qualname", alone or with
    a ".suffix" naming the fault."""
    raises = Counter()
    for path in sorted((SRC / "speclab").rglob("*.py")):
        module = path.relative_to(SRC / "speclab").with_suffix("").as_posix().replace("/", ".")
        module = module.removesuffix(".__init__")

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Raise) and child.exc is not None:
                    exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                    if isinstance(exc, ast.Name) and exc.id == "ConsistencyError":
                        raises[".".join([module] + scope)] += 1
                visit(child, scope)

        visit(ast.parse(path.read_text()), [])
    assert raises["poly.resultant"] == 1  # the walk finds the checks
    short = {
        name: (k, n)
        for name, k in raises.items()
        if (n := sum(key == name or key.startswith(name + ".") for key in CASES)) < k
    }
    assert short == {}, "checks without a python -O case: {name: (raises, cases)}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_raises_under_O(case):
    script = PRELUDE + textwrap.dedent(
        """
        try:
        {body}
        except ConsistencyError:
            sys.exit(0)
        sys.exit("the check did not raise")
        """
    ).format(body=textwrap.indent(textwrap.dedent(CASES[case]).strip(), "    "))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
