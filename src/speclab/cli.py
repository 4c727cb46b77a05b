"""Command-line front end: reproducible experiment runs with manifests.

Every run can write a manifest (parameters + seed + version + timestamp);
result files themselves carry no timestamps, so replaying a manifest
reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import __version__
from .bounds import (
    GroupDescriptor,
    RamificationType,
    abc_exponent,
    beta_exponent,
    condition_eq1,
    condition_eq2,
    malle_alpha,
    rh_genus,
)
from .census import (
    DensitySeries,
    count_poly_sets,
    fit_log_exponent,
    local_global_ratio_series,
    quad_field_census,
    s3_survey,
    twist_density_series,
)
from .covers import (
    CubicCover,
    cubic_specialize,
    quad_cover,
    quad_specialize,
)
from .poly import INFINITY, ProjectivePoint, parse_poly
from .ramify import predict
from .twists import (
    SuperellipticCurve,
    admissible_prime_scan,
    everywhere_locally_soluble,
    hasse_failure_candidates,
    local_solubility,
    obstruction_certificate,
)

__all__ = ["main", "run", "run_manifest"]


def _parse_t0(text: str):
    if text in ("oo", "inf", "infinity"):
        return INFINITY
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"t0 = {text} has denominator 0; write oo for infinity") from None


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else obj.numerator
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in sorted(obj)] if isinstance(obj, (set, frozenset)) else [
            _jsonable(v) for v in obj
        ]
    return obj


def _dump(payload: dict, path: str | None) -> str:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _series_csv(path: str, series: DensitySeries):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "ratio_lower", "ratio_upper", "unknowns"])
        for row in series.csv_rows():
            w.writerow(row)


def _cubic_from_arg(text: str) -> CubicCover:
    parts = text.split(";")
    if len(parts) != 3:
        raise SystemExit("--cubic needs 'a2;a1;a0'")
    a2, a1, a0 = (parse_poly(p) for p in parts)
    return CubicCover(a2, a1, a0)


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="speclab",
        description="Specialization experiments for covers of the line: "
        "JSON results (stable key order, no timestamps) via --out, series "
        "CSV (x, lower, upper, unknowns) via --csv.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="default: $SPECLAB_SEED or 0")
    common.add_argument("--out", help="write JSON results here")
    common.add_argument("--csv", help="write series CSV here")
    common.add_argument("--manifest", help="write a replayable run manifest here")
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=argparse.ArgumentParser)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("specialize", help="residue field of a cover at t0")
    p.add_argument("--cover", help="quadratic: squarefree P(T)")
    p.add_argument("--cubic", help="monic cubic in Y: 'a2;a1;a0'")
    p.add_argument("--t0", required=True)

    p = add("beckmann", help="predicted ramification at t0")
    p.add_argument("--cover")
    p.add_argument("--cubic")
    p.add_argument("--t0", required=True)

    p = add("twist-scan", help="admissible primes and their twists")
    p.add_argument("--cover", required=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--bound", type=int, required=True)

    p = add("local", help="local solubility of y^n = d P(t)")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--place", help="prime or 'infinity' ('oo'); default: all relevant")

    p = add("certify", help="no-point certificate for a twist")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("hasse-scan", help="Hasse-failure candidate twists")
    p.add_argument("--cover", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--height", type=int, required=True)

    p = add("density", help="twist-density series for a cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--grid", required=True, help="comma list of x values")
    p.add_argument("--schedule", help="comma list of search heights")
    p.add_argument("--fit", action="store_true", help="log-exponent fit")

    p = add("s3-survey", help="survey-condition proportions")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--samples", type=int, default=10**4)

    p = add("exponent", help="exponent table for a ramification type")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--indices", required=True, help="comma list e_1..e_r")
    p.add_argument("--q", type=int, help="central prime for beta")

    p = add("census", help="polynomial or field counts")
    p.add_argument("--n", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--H", type=int)
    p.add_argument("--x", type=int, help="field census bound instead")

    p = add("lgratio", help="global vs local twist series")
    p.add_argument("--cover", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--height", type=int, required=True)
    return ap


def _execute(ns) -> tuple[dict, bool, DensitySeries | None]:
    """Returns (results payload, unknowns present, series for CSV)."""
    unknowns = False
    series = None
    if ns.cmd == "specialize" or ns.cmd == "beckmann":
        t0 = _parse_t0(ns.t0)
        if ns.cubic:
            cov = _cubic_from_arg(ns.cubic)
        elif ns.cover:
            cov = quad_cover(parse_poly(ns.cover))
        else:
            raise SystemExit("need --cover or --cubic")
        if ns.cmd == "specialize":
            rep = cubic_specialize(cov, t0) if ns.cubic else quad_specialize(cov, t0)
            out = {"report": rep}
        else:
            rep = predict(cov, ProjectivePoint.from_rational(t0))
            out = {
                "t0": rep.t0,
                "entries": [
                    {"p": p, "orbit": oi, "intersection": ip, "inertia_order": eo}
                    for p, oi, ip, eo in rep.entries
                ],
            }
    elif ns.cmd == "twist-scan":
        cov = quad_cover(parse_poly(ns.cover))
        rows = admissible_prime_scan(cov, _parse_t0(ns.t0), ns.bound)
        out = {"admissible": [{"p": p, "d": d, "local": st} for p, d, st in rows]}
    elif ns.cmd == "local":
        tw = SuperellipticCurve(ns.n, parse_poly(ns.poly)).twist(ns.d)
        if ns.place:
            out = {"place": ns.place, "status": local_solubility(tw, ns.place)}
        else:
            st, detail = everywhere_locally_soluble(tw)
            out = {"status": st, "places": detail}
    elif ns.cmd == "certify":
        tw = SuperellipticCurve(ns.n, parse_poly(ns.poly)).twist(ns.d)
        cert = obstruction_certificate(tw)
        out = {"certificate": cert, "explanation": cert.explain() if cert else None}
    elif ns.cmd == "hasse-scan":
        cov = quad_cover(parse_poly(ns.cover))
        out = {"result": hasse_failure_candidates(cov, ns.x, ns.height)}
    elif ns.cmd == "density":
        grid = _ints(ns.grid)
        if ns.fit and len(grid) < 4:  # fit_log_exponent's minimum; fail before the search
            raise ValueError("need at least 4 grid points")
        cov = quad_cover(parse_poly(ns.cover))
        schedule = _ints(ns.schedule) if ns.schedule else None
        series = twist_density_series(cov, grid, schedule)
        unknowns = any(series.unknown)
        out = {"series": series}
        if ns.fit:
            fit = fit_log_exponent(series)
            out["fit"] = fit
    elif ns.cmd == "s3-survey":
        res = s3_survey(ns.D, ns.H, ns.samples, ns.seed)
        out = {"survey": res}
    elif ns.cmd == "exponent":
        rt = RamificationType(tuple(_ints(ns.indices)), GroupDescriptor(ns.order))
        eq1, c1 = condition_eq1(rt)
        eq2, c2 = condition_eq2(rt)
        out = {
            "r": rt.r,
            "e0": rt.e0,
            "q0": rt.q0,
            "alpha": malle_alpha(ns.order),
            "eq1": {"holds": eq1, "case": c1},
            "eq2": {"holds": eq2, "case": c2},
        }
        if eq1:
            out["e"] = abc_exponent(rt, ns.order)
        try:
            out["genus"] = rh_genus(ns.order, rt)
        except ValueError:
            out["genus"] = None
        if ns.q:
            out["beta"] = beta_exponent(ns.q, ns.order)
    elif ns.cmd == "census":
        if ns.x is not None:
            discs = quad_field_census(ns.x)
            out = {"x": ns.x, "count": len(discs), "discriminants": discs}
        else:
            if ns.n is None or ns.N is None or ns.H is None:
                raise SystemExit("census needs --x or all of --n/--N/--H")
            out = {"counts": count_poly_sets(ns.n, ns.N, ns.H)}
    elif ns.cmd == "lgratio":
        cov = quad_cover(parse_poly(ns.cover))
        g, l = local_global_ratio_series(cov, _ints(ns.grid), ns.height)
        unknowns = any(g.unknown) or any(l.unknown)
        out = {"global": g, "local": l}
        series = l
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown subcommand {ns.cmd}")
    return out, unknowns, series


def run(argv: list[str]) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    if ns.seed is None:
        ns.seed = int(os.environ.get("SPECLAB_SEED", "0"))
    try:
        out, unknowns, series = _execute(ns)
    except (ValueError, SystemExit) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    payload = {"command": ns.cmd, "version": __version__, "results": out}
    text = _dump(payload, ns.out)
    if ns.csv and series is not None:
        _series_csv(ns.csv, series)
    if ns.manifest:
        manifest = {
            "subcommand": ns.cmd,
            "parameters": {
                k: v
                for k, v in vars(ns).items()
                if k not in ("cmd", "manifest") and v is not None
            },
            "seed": ns.seed,
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        with open(ns.manifest, "w") as fh:
            json.dump(_jsonable(manifest), fh, sort_keys=True, indent=2)
            fh.write("\n")
    summary = f"{ns.cmd}: ok" + (" (unknowns present)" if unknowns else "")
    print(summary)
    if not ns.out:
        sys.stdout.write(text)
    return 2 if unknowns else 0


def run_manifest(path: str) -> int:
    """Re-execute a recorded run; outputs are byte-identical to the original
    because result files carry no timestamps."""
    with open(path) as fh:
        manifest = json.load(fh)
    argv = [manifest["subcommand"]]
    for k, v in sorted(manifest["parameters"].items()):
        if isinstance(v, bool):
            if v:
                argv.append(f"--{k}")
        else:
            argv.extend([f"--{k}", str(v)])
    return run(argv)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
