"""The library's internal checks raise exceptions, so they still run under
``python -O``, which strips ``assert`` statements.

Each case runs in a ``python -O`` subprocess, seeds the fault that its
check guards against (by patching the route the check compares with), and
expects a ConsistencyError.
"""

import os
import subprocess
import sys
import textwrap
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
    "intutil.bm_decomposition": """
        from speclab import intutil
        intutil.factorize = lambda n: {2: 1, 3: 1, 5: 1}  # radical 30 of n = 4
        intutil.bm_decomposition(4)
    """,
    "poly.discriminant": """
        from speclab import poly
        poly.resultant = lambda a, b: 3  # not divisible by lc = 2
        poly.discriminant(parse_poly("2*T^2+1"))
    """,
    "covers._dedekind_p_maximal": """
        from speclab import covers, fp
        fp._sqf = lambda a, p: [([1, 1], 1)]  # T + 1 is not T^2 + 1 mod 3
        covers._dedekind_p_maximal(parse_poly("T^2+1"), 3)
    """,
    "twists.SuperellipticCurve.genus": """
        from speclab import twists
        curve = twists.SuperellipticCurve(2, parse_poly("T-1"))
        twists.gcd = lambda a, b: 0  # Riemann-Hurwitz then gives 2g = 1
        curve.genus
    """,
}


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
