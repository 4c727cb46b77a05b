"""Fast self-check of the benchmark itself, at tiny input sizes.

    python3 perfbench/selfcheck.py

For every workload it confirms that
- an untraced run emits every end-to-end metric of BENCHMARK.json, and a
  traced run every per-layer metric, each with its unit;
- tracing changes no result: the traced run, which compares its traced
  repetitions with its untraced ones, reports no failure;
- a deliberately corrupted result is counted as a failed task, in every
  repetition that returns it.
It also confirms that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

REPETITIONS = 2


def bench_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def corrupt(task, res):
    """A wrong result of the same type that the workload's checks must reject."""
    from speclab.poly import ProjectivePoint
    from speclab.twists import CurvePoint

    if task.kind == "hasse":  # y^2 = -P8 has no real point
        return dataclasses.replace(res, candidates=res.candidates + (-1,))
    if task.kind == "certify":  # (0, 1) is not on y^2 = 3(t^4 + 1)
        cert, pts, local = res
        return cert, pts + [CurvePoint(1, 0, 1)], local
    if task.kind == "density":  # valid series, wrong order
        rev = tuple(reversed(res.denominator))
        return dataclasses.replace(res, numerator=tuple(reversed(res.numerator)),
                                   denominator=rev, unknown=tuple(reversed(res.unknown)))
    if task.kind == "beckmann":
        return dataclasses.replace(res, mismatches=((ProjectivePoint(1, 1), 3, 2, 1),))
    raise ValueError(task.kind)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}" + (f": {detail}" if detail else ""))

    run.import_program()
    import workloads

    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            out = bench_run(name, trace)
            if out.returncode:
                report(f"{name} trace {trace} runs", False, out.stderr[-500:])
                continue
            last = json.loads(out.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted}
            report(f"{name} trace {trace} emits every metric with its unit", got == want,
                   f"missing {sorted(want.keys() - got.keys())}, "
                   f"extra {sorted(got.keys() - want.keys())}" if got != want else "")
            report(f"{name} trace {trace} results pass every check", last["correct"]
                   and last["failed"] == 0, "" if last["correct"] else out.stdout[-800:])

        tasks = workloads.make_tasks(name, 1, "tiny")
        bad = tasks[0]

        def run_task(task, bad=bad):
            res = workloads.run_task(task)
            return corrupt(task, res) if task is bad else res

        r = run.Run(tasks, None, run_task=run_task)
        for _ in range(REPETITIONS):
            r.repetition(traced=False)
        want = REPETITIONS / (REPETITIONS * len(tasks))
        got = r.end_to_end()["failed_frac"]
        report(f"{name} corrupted result counted in failed_frac", got == want,
               f"failed_frac {got}, want {want}")

    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = bench_run("hasse", 0, cwd=bare)
    shutil.rmtree(bare)
    report("refuses to run without the program's sources",
           out.returncode != 0 and '"metrics"' not in out.stdout, f"exit {out.returncode}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
