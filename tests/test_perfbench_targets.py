"""Every speclab function that perfbench/tracer.py wraps still exists.

The tracer skips a target it cannot resolve, so a rename in the package
would silently blank that layer of the benchmark; this test fails instead.
It only reads perfbench/.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# The compiled sieve was removed; the tracer may still list it.
ABSENT = {("speclab.kernels._fastcore", "survivors")}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_speclab_targets_resolve():
    tracer = _tracer()
    targets = [(owner, attr) for _, owner, attr in tracer.TARGETS if owner.startswith("speclab")]
    assert targets
    missing = []
    for owner_path, attr in targets:
        if (owner_path, attr) in ABSENT:
            continue
        owner = tracer._resolve(owner_path)
        # the tracer reads a method from the class's own namespace
        if owner is None or not (attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []
