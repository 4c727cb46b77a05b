"""Spans around the calls into each speclab layer, recorded from outside it.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent span, task id) and ``uninstall`` puts the
originals back. A module-level function is rebound in every ``speclab.*``
namespace that holds the same function object, because ``from .intutil
import factorize`` copies the binding into the importing module. Methods are
patched on their class. sympy is traced only at the boundary where speclab
calls it: a sympy call made while a sympy span is open records nothing.

Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children; spans nest strictly because
everything runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (metric prefix, owner, attribute). The owner is a module path or a class
# given as "module.Class".
TARGETS = [
    ("kernels.search_pairs", "speclab.kernels", "search_pairs"),
    ("kernels.tables._select_primes", "speclab.kernels", "_select_primes"),
    ("kernels.tables._residue_tables", "speclab.kernels", "_residue_tables"),
    ("kernels.sieve", "speclab.kernels._purepy", "survivors"),
    ("kernels.sieve", "speclab.kernels._fastcore", "survivors"),
    ("twists.LocalSolver.__init__", "speclab.twists.LocalSolver", "__init__"),
    ("twists.at_infinity", "speclab.twists.LocalSolver", "at_infinity"),
    ("twists.at_prime", "speclab.twists.LocalSolver", "at_prime"),
    ("twists._decide", "speclab.twists.LocalSolver", "_decide"),
    ("twists.everywhere_locally_soluble", "speclab.twists", "everywhere_locally_soluble"),
    ("twists.search_points", "speclab.twists", "search_points"),
    ("twists.obstruction_certificate", "speclab.twists", "obstruction_certificate"),
    ("poly.factor_over_Q", "speclab.poly", "factor_over_Q"),
    ("poly.real_roots_sign_analysis", "speclab.poly", "real_roots_sign_analysis"),
    ("poly.discriminant", "speclab.poly", "discriminant"),
    ("intutil.factorize", "speclab.intutil", "factorize"),
    ("intutil.squarefree_part", "speclab.intutil", "squarefree_part"),
    ("intutil.nth_root", "speclab.intutil", "nth_root"),
    ("intutil.nfree_sieve", "speclab.intutil", "nfree_sieve"),
    ("covers.quad_specialize", "speclab.covers", "quad_specialize"),
    ("covers.cubic_specialize", "speclab.covers", "cubic_specialize"),
    ("covers.cubic_field_disc", "speclab.covers", "cubic_field_disc"),
    ("covers.branch_orbits", "speclab.covers.QuadraticCover", "branch_orbits"),
    ("covers.branch_orbits", "speclab.covers.CubicCover", "branch_orbits"),
    ("covers._rootless_mod_p", "speclab.covers", "_rootless_mod_p"),
    ("covers.splits_completely", "speclab.covers", "splits_completely"),
    ("ramify.predict", "speclab.ramify", "predict"),
    ("ramify.exceptional_superset", "speclab.ramify", "exceptional_superset"),
    ("census.twist_density_series", "speclab.census", "twist_density_series"),
    ("census._found_twists", "speclab.census", "_found_twists"),
    ("sympy.factor_list", "sympy.Poly", "factor_list"),
    ("sympy.round_two", "sympy.polys.numberfields.basis", "round_two"),
]

# Layers whose functions are also summed into one layer metric.
GROUPS = {"kernels.tables": ("kernels.tables._select_primes", "kernels.tables._residue_tables")}

# Functions whose rejected samples (a raised ValueError at a branch point) are counted.
RAISED = ("covers.quad_specialize", "covers.cubic_specialize", "ramify.predict")


def _resolve(path: str):
    """The module or class named by a dotted path, or None if it is absent."""
    try:
        return importlib.import_module(path)
    except ImportError:
        pass
    mod, _, name = path.rpartition(".")
    try:
        return getattr(importlib.import_module(mod), name)
    except (ImportError, AttributeError):
        return None


def names() -> list[str]:
    """Every traced function's metric prefix, once, in TARGETS order."""
    return list(dict.fromkeys(name for name, _, _ in TARGETS))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name in names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for g in GROUPS:
        units[f"{g}.calls"] = "count"
        units[f"{g}.self_s"] = "s"
    units.update({
        "kernels.pairs": "count",
        "kernels.survivors": "count",
        "kernels.points": "count",
        "kernels.survivor_rate": "ratio",
        "kernels.point_rate": "ratio",
        "twists.cache_hit_rate": "ratio",
    })
    for name in RAISED:
        units[f"{name}.raised"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1, task id]
        self.stack: list[int] = []
        self.task_id = -1
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()  # kernels.pairs / survivors / points
        self._undo: list[tuple] = []

    # -- recording

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, sympy_call = self.spans, self.stack, name.startswith("sympy.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sympy_call and stack and spans[stack[-1]][0].startswith("sympy."):
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.task_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one task."""
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.task_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _hook_search(self, args, kwargs, out):
        H = kwargs["H"] if "H" in kwargs else args[4]
        if H >= 1:
            self.counts["kernels.pairs"] += H * (2 * H + 1)
        self.counts["kernels.points"] += len(out)

    def _hook_sieve(self, args, kwargs, out):
        self.counts["kernels.survivors"] += len(out)

    # -- patching

    def install(self) -> None:
        hooks = {"kernels.search_pairs": self._hook_search, "kernels.sieve": self._hook_sieve}
        for name, owner_path, attr in TARGETS:
            owner = _resolve(owner_path)
            if owner is None:
                continue  # optional backend not built
            orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrap(name, orig, hooks.get(name))
            if isinstance(owner, type) or not owner_path.startswith("speclab"):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] != "speclab" or mod is None:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reporting

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced repetition of the task list."""
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for name in names():
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.self_s"] = self_s[name] / rounds
        for g, members in GROUPS.items():
            out[f"{g}.calls"] = sum(calls[m] for m in members) / rounds
            out[f"{g}.self_s"] = sum(self_s[m] for m in members) / rounds
        pairs, surv, pts = (self.counts[k] for k in ("kernels.pairs", "kernels.survivors", "kernels.points"))
        out["kernels.pairs"] = pairs / rounds
        out["kernels.survivors"] = surv / rounds
        out["kernels.points"] = pts / rounds
        out["kernels.survivor_rate"] = surv / pairs if pairs else 0.0
        out["kernels.point_rate"] = pts / surv if surv else 0.0
        at_prime = calls["twists.at_prime"]
        out["twists.cache_hit_rate"] = 1 - calls["twists._decide"] / at_prime if at_prime else 0.0
        for name in RAISED:
            out[f"{name}.raised"] = self.raised[name] / rounds
        return out

    def write_spans(self, path, labels: list[str]) -> None:
        """Spans as compact JSON: times in seconds from tracer creation. The
        task id of a span is repetition * len(labels) + index into labels."""
        names_ = list(dict.fromkeys(s[0] for s in self.spans))
        index = {n: i for i, n in enumerate(names_)}
        rows = [
            [index[n], round(a - self.t0, 7), round(b - self.t0, 7), p, t]
            for n, a, b, p, t in self.spans
        ]
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "task"],
            "names": names_,
            "tasks": labels,
            "spans": rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
