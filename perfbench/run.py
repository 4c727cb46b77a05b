"""speclab benchmark: four seeded experiment workloads, end to end and per layer.

Run from the repository root, with the sources under src/ (nothing to build):

    python3 perfbench/run.py --workload hasse --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --seconds 10            # all four, one fresh process each

A run draws the workload's task list from --seed, imports speclab and warms
up (set-up), then repeats the task list a fixed number of times derived from
--seconds, one task at a time in this process: a closed loop with one caller.
Before each repetition the local-solver cache is emptied, so every repetition
does the same work. Every result is checked; at the default seed 0 it must
also match the digest pinned in perfbench/digests.json.

Before and after each task a fixed host-speed probe runs (hostspeed.py).
The timings reported under their plain names (wall_s, cpu_s, task_p50_s,
task_tail_s, setup_s) are scaled to the reference host speed by the probes
around each task; the *_raw_s ones are as measured.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions, reports the per-layer metrics of the traced ones and the
tracing overhead, and requires both kinds to give identical results.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A fuller result file, with run metadata, and
the span file of a traced run go to perfbench/results/.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 4  # extra fresh processes that only set up, for the setup_s median
SETUP_HOST_PROBES = 5  # host-speed probes after each set-up
DEFAULT_SEED = 0
WORKLOADS = ("hasse", "certify", "density", "beckmann")

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "setup_s": "s",
    "wall_raw_s": "s",
    "cpu_raw_s": "s",
    "task_p50_raw_s": "s",
    "task_tail_raw_s": "s",
    "setup_raw_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "unknown_frac": "ratio",
}


def import_program():
    """Import speclab from this checkout's src/ (never an installed copy)."""
    if not (SRC / "speclab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no speclab sources at {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import speclab

    if Path(speclab.__file__).resolve().parent != SRC / "speclab":
        sys.exit(f"perfbench: imported speclab from {speclab.__file__}, not {SRC}")


def clear_caches() -> None:
    """Drop what one repetition caches for the next: speclab's local solvers
    and sympy's expression cache."""
    from sympy.core.cache import clear_cache
    from speclab import twists

    twists._solver_cache.clear()
    clear_cache()


def set_up(workload: str, seed: int, size: str):
    """Import speclab, draw the inputs, warm up. Returns (tasks, setup_s)."""
    import_program()
    import workloads

    tasks = workloads.make_tasks(workload, seed, size)
    workloads.warm_up(workload)
    clear_caches()
    return tasks, perf_counter() - T_START


def probe_setup(workload: str, seed: int, size: str) -> tuple[float, float]:
    """set_up() in a fresh process; returns its setup_s and host probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--size", size, "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return res["setup_s"], res["probe_s"]


def setup_host_probe() -> float:
    """Host speed right after a set-up, as the median of a few probes."""
    return statistics.median(hostspeed.probe() for _ in range(SETUP_HOST_PROBES))


def cpu_now() -> float:
    """CPU seconds of this process and its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest latency percentile that still has at
    least ten tasks beyond it; the maximum when there are ten tasks or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Round(NamedTuple):
    """One repetition of the task list: each task's wall and CPU time, and
    the host-speed probes taken before the first task and after each one."""

    latencies: list[float]
    cpus: list[float]
    probes: list[float]

    def times(self, which: str, ref: bool) -> list[float]:
        """The tasks' wall or CPU times; with ref, each scaled to the
        reference host speed by REF_S over the mean of the probes just
        before and just after it."""
        xs = self.latencies if which == "wall" else self.cpus
        if not ref:
            return list(xs)
        pairs = zip(self.probes, self.probes[1:])
        return [x * 2 * hostspeed.REF_S / (a + b) for x, (a, b) in zip(xs, pairs)]


class Run:
    """Repetitions of one task list, with every result checked."""

    def __init__(self, tasks, pinned: list[str] | None, tracer=None, run_task=None):
        import workloads

        self.w = workloads
        self.tasks = tasks
        self.pinned = pinned
        self.tracer = tracer
        self.run_task = run_task or workloads.run_task
        self.reference: list[tuple | None] = [None] * len(tasks)  # (digest, failures)
        self.rounds: dict[bool, list[Round]] = {False: [], True: []}  # keyed by traced
        self.attempted = 0
        self.failures: list[str] = []
        self.unknown = 0
        self.verdicts = 0
        self.digests: list[str | None] = [None] * len(tasks)

    def repetition(self, traced: bool) -> None:
        clear_caches()
        tr = self.tracer if traced else None
        if tr:
            tr.install()
        results, cpus = [], []
        probes = [hostspeed.probe()]  # calls no speclab code, so it is never traced
        try:
            for i, task in enumerate(self.tasks):
                t, c = perf_counter(), cpu_now()
                try:
                    if tr:
                        tr.task_id = sum(map(len, self.rounds.values())) * len(self.tasks) + i
                        with tr.span(f"task.{task.kind}"):
                            res = self.run_task(task)
                    else:
                        res = self.run_task(task)
                    err = None
                except Exception as exc:  # a failed task is counted, the run goes on
                    res, err = None, f"{type(exc).__name__}: {exc}"
                results.append((res, err, perf_counter() - t))
                cpus.append(cpu_now() - c)
                probes.append(hostspeed.probe())
        finally:
            if tr:
                tr.uninstall()
        self.rounds[traced].append(Round([lat for _, _, lat in results], cpus, probes))
        for i, (res, err, _) in enumerate(results):
            self.attempted += 1
            problems = [err] if err else self.check(i, res)
            if problems:
                rep = sum(map(len, self.rounds.values()))
                self.failures.append(f"repetition {rep} task {i} ({self.tasks[i].label}): "
                                     + "; ".join(problems))
            if not traced and res is not None:
                unk, tot = self.w.verdicts(self.tasks[i], res)
                self.unknown += unk
                self.verdicts += tot
        clear_caches()

    def check(self, i: int, res) -> list[str]:
        """Failures of one result. A result equal to the task's first result
        in this run shares its verdict; any other result is a failure."""
        d = self.w.digest(res)
        self.digests[i] = d
        if self.reference[i] is not None:
            first, problems = self.reference[i]
            if d == first:
                return list(problems)
            return [f"digest {d} differs from this run's first result {first}"]
        try:
            problems = self.w.check(self.tasks[i], res)
        except Exception as exc:  # a result the checks cannot even read is wrong
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if self.pinned is not None and d != self.pinned[i]:
            problems.append(f"digest {d} differs from the pinned {self.pinned[i]}")
        self.reference[i] = (d, problems)
        return list(problems)

    def end_to_end(self) -> dict[str, float]:
        """Timings at the reference host speed, each task scaled by its own
        factor, and the same as measured (the *_raw_s ones)."""
        reps = self.rounds[False]
        out = {}
        for suffix, ref in (("_raw_s", False), ("_s", True)):
            lats = [x for r in reps for x in r.times("wall", ref)]
            tail_s, pct = tail(lats)
            out["wall" + suffix] = statistics.median(sum(r.times("wall", ref)) for r in reps)
            out["cpu" + suffix] = statistics.median(sum(r.times("cpu", ref)) for r in reps)
            out["task_p50" + suffix] = statistics.median(lats)
            out["task_tail" + suffix] = tail_s
        self.tail_info = {"percentile": pct, "tasks": len(lats)}
        out["failed_frac"] = len(self.failures) / self.attempted
        out["unknown_frac"] = self.unknown / self.verdicts if self.verdicts else 0.0
        return out


def metadata() -> dict:
    import numpy
    import sympy
    from speclab import kernels

    return {
        "backend": kernels.backend_name(),
        "available_backends": kernels.available_backends(),
        "SPECLAB_FORCE_PURE": bool(os.environ.get("SPECLAB_FORCE_PURE")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_pinned(workload: str, seed: int, size: str) -> list[str] | None:
    if seed != DEFAULT_SEED or size != "full" or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def run_workload(args) -> int:
    tasks, own_setup = set_up(args.workload, args.seed, args.size)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup, "probe_s": setup_host_probe()}))
        return 0
    import workloads
    from tracer import Tracer, metric_units

    setups = [(own_setup, setup_host_probe())] + [probe_setup(args.workload, args.seed, args.size)
                                                  for _ in range(SETUP_PROBES)]
    pinned = None if args.pin else load_pinned(args.workload, args.seed, args.size)
    tracer = Tracer() if args.trace else None
    run = Run(tasks, pinned, tracer)
    reps = workloads.repetitions(args.workload, args.seconds, args.size)
    if tracer:  # half untraced, half traced, interleaved: the run keeps its length
        reps = max(1, reps // 2)
    for _ in range(reps):
        run.repetition(traced=False)
        if tracer:
            run.repetition(traced=True)

    e2e = run.end_to_end()
    e2e["setup_s"] = statistics.median(t * hostspeed.REF_S / p for t, p in setups)
    e2e["setup_raw_s"] = statistics.median(t for t, _ in setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "repetitions": reps, "tasks": [t.label for t in tasks],
        "metadata": metadata(),
        "end_to_end": {k: {"value": e2e[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS},
        "task_tail": run.tail_info,
        "setup_samples_raw_s": [t for t, _ in setups],
        "setup_samples_probe_s": [p for _, p in setups],
        "repetition_wall_s": {("traced" if k else "untraced"): [sum(r.times("wall", ref=True))
                                                                for r in v]
                              for k, v in run.rounds.items() if v},
        "repetition_wall_raw_s": {("traced" if k else "untraced"): [sum(r.latencies) for r in v]
                                  for k, v in run.rounds.items() if v},
        "task_latency_raw_s": [r.latencies for r in run.rounds[False]],
        "probe_s": [r.probes for r in run.rounds[False]],
        "failures": run.failures,
        "digests": run.digests,
    }
    if tracer:
        units = metric_units()
        layer = tracer.metrics(reps)
        layer["trace.overhead_s"] = (statistics.median(sum(r.times("wall", True))
                                                       for r in run.rounds[True])
                                     - e2e["wall_s"])
        doc["per_layer"] = {k: {"value": layer[k], "unit": units[k]} for k in units}
        tracer.write_spans(RESULTS / f"{stem}-spans.json", [t.label for t in tasks])
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.pin and not run.failures:
        pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        pins[args.workload] = run.digests
        DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    meta = doc["metadata"]
    print(f"{args.workload} seed {args.seed}: {reps} repetitions of {len(tasks)} tasks; "
          f"backend {meta['backend']} of {meta['available_backends']}, "
          f"nproc {meta['nproc']}, commit {meta['git_commit']}")
    for k, unit in E2E_UNITS.items():
        if tracer and k not in ("failed_frac", "unknown_frac"):
            continue  # timings of a traced run come from too few repetitions
        extra = ""
        if k == "task_tail_s":
            extra = f"  (p{run.tail_info['percentile']:.1f} of {run.tail_info['tasks']} tasks)"
        print(f"  {k:14} {e2e[k]:.6g} {unit}{extra}")
    for f in run.failures:
        print(f"  FAILED {f}")
    if tracer:
        shown = {k: v for k, v in doc["per_layer"].items() if k.endswith(".self_s") and v["value"]}
        for k, v in sorted(shown.items(), key=lambda kv: -kv[1]["value"])[:8]:
            print(f"  {k:40} {v['value']:.6g} s")
        print(f"  trace.overhead_s {layer['trace.overhead_s']:.6g} s")
        metrics = doc["per_layer"]
    else:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: doc["end_to_end"][m["name"]] for m in bench["end_to_end"]}
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another, then a table."""
    rows = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode:
            return out.returncode
        stem = f"{w}-seed{args.seed}-trace{args.trace}"
        rows[w] = json.loads((RESULTS / f"{stem}.json").read_text())["end_to_end"]
    print(f"\n{'metric':14} {'unit':6}" + "".join(f"{w:>12}" for w in rows))
    for k, unit in E2E_UNITS.items():
        print(f"{k:14} {unit:6}" + "".join(f"{rows[w][k]['value']:>12.5g}" for w in rows))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the self-check's input sizes")
    ap.add_argument("--pin", action="store_true",
                    help="store this run's result digests as the pinned ones for its workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
