"""Every speclab name that perfbench/ wraps, imports or reads still exists.

The tracer skips a target it cannot resolve, so a rename in the package
would silently blank that layer of the benchmark; the workloads, the runner
and the self-check would fail only when the benchmark runs. These tests fail
instead. They only read perfbench/.
"""

import ast
import importlib
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


def _is_module(dotted: str) -> bool:
    try:
        return importlib.util.find_spec(dotted) is not None
    except ModuleNotFoundError:  # a parent is a module, not a package
        return False


def _speclab_names(tree: ast.AST) -> set[str]:
    """Dotted speclab names a module imports or reads: every name of a
    ``from speclab... import x``, and every attribute read on a name bound to
    a speclab module (``twists.x`` after ``from speclab import twists``)."""
    modules: dict[str, str] = {}
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "speclab":
                    # import speclab.x binds speclab; import speclab.x as y binds y
                    modules[alias.asname or "speclab"] = alias.name if alias.asname else "speclab"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "speclab":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                names.add(full)
                if _is_module(full):
                    modules[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def _resolves(dotted: str) -> bool:
    module, attr = dotted.rsplit(".", 1)
    return _is_module(dotted) or hasattr(importlib.import_module(module), attr)


def test_speclab_names_read_by_perfbench_resolve():
    names = set()
    for path in sorted(TRACER.parent.glob("*.py")):
        names |= _speclab_names(ast.parse(path.read_text(), str(path)))
    # names only the benchmark reads
    assert {
        "speclab.kernels.backend_name",
        "speclab.kernels.available_backends",
        "speclab.poly.is_irreducible_over_Q",
        "speclab.twists._solver_cache",
    } <= names
    assert sorted(n for n in names if not _resolves(n)) == []


def test_tracer_counts_one_search(monkeypatch):
    # the tracer reads H from search_pairs' keyword or its fifth positional
    # argument, and counts the survivors as what the sieve returns
    from speclab import twists
    from speclab.kernels import _purepy
    from speclab.poly import parse_poly

    lengths = []
    sieve = _purepy.survivors

    def spy(rows, H):
        out = sieve(rows, H)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(_purepy, "survivors", spy)
    curve = twists.SuperellipticCurve(2, parse_poly("T^4 + 1")).twist(2)
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        points = twists.search_points(curve, 30)
    finally:
        tracer.uninstall()
    assert points and not any(pt.z_zero for pt in points)
    assert tracer.counts["kernels.pairs"] == 30 * 61
    assert tracer.counts["kernels.points"] == len(points)
    assert len(lengths) == 1 and tracer.counts["kernels.survivors"] == lengths[0]
