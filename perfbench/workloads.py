"""The four benchmark workloads: seeded inputs, the timed calls, result checks.

Each workload is a list of tasks drawn from its seed. A task is one
top-level speclab experiment call. Inputs come from a fixed family per
workload and every list has the same composition for every seed, so that
different seeds give comparable work (see make_tasks). The paper's fixed
curves are in every list.

Speclab functions are always reached through their module (``twists.x``,
not ``from ... import x``), so that the tracer's patched bindings are the
ones called.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import gcd

from speclab import census, covers, ramify, twists
from speclab.poly import IntPolynomial, format_poly, is_irreducible_over_Q, parse_poly

P8 = parse_poly("T^2+1") * parse_poly("T^2+2") * parse_poly("T^4+2")
P6 = parse_poly("T^2+1") * parse_poly("T^4+2")
T6 = parse_poly("T^6-T-1")
README_TWIST = (2, parse_poly("T^4+1"), 3)  # y^2 = 3(t^4 + 1), certified at p = 3
PINNED_CUBIC = (IntPolynomial([]), parse_poly("T"), parse_poly("T"))  # Y^3 + T*Y + T
# Warm-up inputs, kept out of every family.
WARM_POLY = parse_poly("T^4+3")
WARM_CUBIC = (IntPolynomial([]), parse_poly("2*T"), parse_poly("3*T"))

# Input sizes. "full" is the benchmark; "tiny" is for the self-check.
# round_s is about the time one repetition of the task list takes on a 2-core
# host at commit 6206d09; a run of S seconds repeats the list
# max(1, round(S / round_s)) times, the same count on every commit.
SIZES = {
    "full": {
        "hasse": dict(x=20, H=200, family_covers=28, scan_bound=3000, round_s=13),
        # certify: H for n = 2 and for n = 3, whose sieve has fewer primes
        "certify": dict(H={2: 2000, 3: 1000}, per_shape=5, round_s=2.4),
        "density": dict(grid=(100, 1000, 3000), schedule=(16, 40), seeded_covers=6,
                        round_s=3.3),
        # beckmann: each cubic cover is checked in cubic_chunks tasks of
        # cubic_samples points, each quadratic one in quad_chunks of quad_samples
        "beckmann": dict(cubic_samples=5, cubic_chunks=12, surveyed_cubics=5,
                         quad_degrees=(2, 3, 4, 5, 6, 7, 8), quad_samples=20, quad_chunks=4,
                         height=50, round_s=14),
    },
    "tiny": {
        "hasse": dict(x=6, H=20, family_covers=1, scan_bound=200, round_s=10),
        "certify": dict(H={2: 40, 3: 20}, per_shape=1, round_s=10),
        "density": dict(grid=(10, 100), schedule=(4,), seeded_covers=1, round_s=10),
        "beckmann": dict(cubic_samples=2, surveyed_cubics=1, quad_degrees=(4,),
                         quad_samples=3, cubic_chunks=1, quad_chunks=1, height=20, round_s=10),
    },
}

# certify: (n, deg P) shapes drawn in every list, per_shape twists each.
CERTIFY_SHAPES = ((2, 4), (2, 6), (2, 8), (3, 3), (3, 6))


@dataclass(frozen=True)
class Task:
    kind: str  # hasse | scan | certify | density | beckmann
    label: str
    args: tuple


def _hasse_family(rng: random.Random, n: int) -> list[IntPolynomial]:
    """(T^2 + a)(T^2 + b)(T^4 + c), the shape of P8: positive definite, so no
    rational root, and separable for a != b."""
    out: list[IntPolynomial] = []
    while len(out) < n:
        a, b = sorted(rng.sample(range(1, 7), 2))
        P = parse_poly(f"T^2+{a}") * parse_poly(f"T^2+{b}") * parse_poly(f"T^4+{rng.randint(1, 6)}")
        if P == P8 or P in out:
            continue
        try:
            covers.quad_cover(P)
        except ValueError:
            continue
        out.append(P)
    return out


def _random_poly(rng: random.Random, deg: int, box: int, monic: bool) -> IntPolynomial:
    lead = 1 if monic else rng.choice([c for c in range(-box, box + 1) if c])
    return IntPolynomial([rng.randint(-box, box) for _ in range(deg)] + [lead])


def _certified_twist(rng: random.Random, n: int, N: int) -> tuple:
    """(n, P, d) with deg P = N whose twist has an obstruction certificate."""
    while True:
        P = _random_poly(rng, N, 20, monic=False)
        d = rng.randint(-50, 50)
        if abs(d) < 2 or P == WARM_POLY:
            continue
        try:
            if twists.obstruction_certificate(twists.SuperellipticCurve(n, P).twist(d)):
                return n, P, d
        except ValueError:
            continue


def _irreducible_sextic(rng: random.Random, exclude: list) -> IntPolynomial:
    """Monic and irreducible, like T^6 - T - 1: no rational root, so the
    census's absence certifier applies."""
    while True:
        P = _random_poly(rng, 6, 3, monic=True)
        if P not in exclude and is_irreducible_over_Q(P):
            return P


def _quadratic_cover(rng: random.Random, degree: int) -> IntPolynomial:
    while True:
        P = _random_poly(rng, degree, 10, monic=False)
        if P == WARM_POLY:
            continue
        try:
            covers.quad_cover(P)
        except ValueError:
            continue
        return P


def _surveyed_cubic(rng: random.Random) -> tuple:
    while True:
        a = tuple(IntPolynomial([rng.randint(-10, 10), rng.randint(-10, 10)]) for _ in range(3))
        if a in (PINNED_CUBIC, WARM_CUBIC):
            continue
        if covers.s3_survey_predicates(*a).all_conditions:
            return a


SHIFTS = (-3, -2, -1, 1, 2, 3)


def _flip(P: IntPolynomial, sign: int) -> IntPolynomial:
    """P(sign * t)."""
    return IntPolynomial([c * sign**i for i, c in enumerate(P.coeffs)])


def _flip_label(sign: int) -> str:
    return " at -T" if sign < 0 else ""


def _cubic_label(a: tuple, sign: int = 1) -> str:
    a2, a1, a0 = (format_poly(c) for c in a)
    return f"cubic Y^3 + ({a2})Y^2 + ({a1})Y + ({a0})" + _flip_label(sign)


def make_tasks(workload: str, seed: int, size: str = "full") -> list[Task]:
    """The workload's task list for this seed.

    hasse, certify and beckmann draw their base inputs once, from a fixed
    generator. For hasse and certify the seed moves each base input to
    t -> t + k, k in SHIFTS; for beckmann to t -> -t or leaves it, and it
    draws the sample points of each consistency check. The substitutions are
    isomorphisms of covers and of twists: local solubility, certificates and
    ramification are unchanged, so every seed does comparable work on
    different numbers. beckmann does not shift, because a shift by k grows
    the coefficients of a degree-8 cover by up to (1 + |k|)^8 and with them
    the cost of factoring its values. density draws its seeded covers
    directly: their cost varies little.
    """
    s = SIZES[size][workload]
    base = random.Random(f"{workload}:base")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hasse":
        tasks = [Task("hasse", f"P={format_poly(P8)}", (P8, s["x"], s["H"]))]
        for P in [P8] + _hasse_family(base, s["family_covers"]):
            k = rng.choice(SHIFTS)
            tasks.append(Task("hasse", f"P=({format_poly(P)})(T{k:+d})", (P.shift(k), s["x"], s["H"])))
        tasks.append(Task("scan", f"P={format_poly(P8)} t0=1", (P8, 1, s["scan_bound"])))
        return tasks
    if workload == "certify":
        n, P, d = README_TWIST
        tasks = [Task("certify", f"n={n} d={d} P={format_poly(P)}", (twists.SuperellipticCurve(n, P).twist(d), s["H"][n]))]
        for shape in CERTIFY_SHAPES:
            for _ in range(s["per_shape"]):
                n, P, d = _certified_twist(base, *shape)
                k = rng.choice(SHIFTS)
                tw = twists.SuperellipticCurve(n, P.shift(k)).twist(d)
                tasks.append(Task("certify", f"n={n} d={d} P=({format_poly(P)})(T{k:+d})", (tw, s["H"][n])))
        return tasks
    if workload == "density":
        curves = [T6, P6]
        for _ in range(s["seeded_covers"]):
            curves.append(_irreducible_sextic(rng, curves))
        return [Task("density", f"P={format_poly(c)}", (c, s["grid"], s["schedule"])) for c in curves]
    if workload == "beckmann":
        covers_ = [(PINNED_CUBIC, 1)]
        covers_ += [(_surveyed_cubic(base), rng.choice((-1, 1))) for _ in range(s["surveyed_cubics"])]
        covers_ += [(_quadratic_cover(base, deg), rng.choice((-1, 1))) for deg in s["quad_degrees"]]
        tasks = []
        for cov, sign in covers_:
            if isinstance(cov, tuple):
                cov, label = tuple(_flip(c, sign) for c in cov), _cubic_label(cov, sign)
                samples, chunks = s["cubic_samples"], s["cubic_chunks"]
            else:
                cov, label = _flip(cov, sign), f"quadratic P={format_poly(cov)}" + _flip_label(sign)
                samples, chunks = s["quad_samples"], s["quad_chunks"]
            for chunk in range(chunks):
                tasks.append(Task("beckmann", f"{label} chunk {chunk}",
                                  (cov, samples, s["height"], rng.randint(0, 10**6))))
        return tasks
    raise ValueError(f"unknown workload {workload!r}")


def repetitions(workload: str, seconds: float, size: str = "full") -> int:
    return max(1, round(seconds / SIZES[size][workload]["round_s"]))


def run_task(task: Task):
    """The timed call: one top-level experiment."""
    k, a = task.kind, task.args
    if k == "hasse":
        P, x, H = a
        return twists.hasse_failure_candidates(covers.quad_cover(P), x, H)
    if k == "scan":
        P, t0, bound = a
        return twists.admissible_prime_scan(covers.quad_cover(P), t0, bound)
    if k == "certify":
        tw, H = a
        cert = twists.obstruction_certificate(tw)
        pts = twists.search_points(tw, H)
        return cert, pts, twists.local_solubility(tw, cert.p)
    if k == "density":
        P, grid, schedule = a
        return census.twist_density_series(covers.quad_cover(P), list(grid), list(schedule))
    if k == "beckmann":
        cov, samples, height, seed = a
        cover = covers.CubicCover(*cov) if isinstance(cov, tuple) else covers.quad_cover(cov)
        return ramify.consistency_check(cover, n_samples=samples, height=height, seed=seed)
    raise ValueError(f"unknown task kind {k!r}")


def digest(result) -> str:
    """Digest of an exact result: its repr is built from ints, tuples and
    frozen dataclasses only."""
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def _point_ok(tw, pt) -> bool:
    n, d = tw.n, tw.d
    if pt.z_zero:
        return pt.y**n == d * tw.P.lc
    M = tw.base.model_degree
    cs = tw.base.model_coeffs
    val = d * sum(cs[j] * pt.u**j * pt.v ** (M - j) for j in range(M + 1))
    return gcd(pt.u, pt.v) == 1 and pt.y**n == val


def check(task: Task, result) -> list[str]:
    """Seed-independent checks of one result; returns the failures.

    Runs speclab again for the hasse candidates, from an empty solver cache,
    so the caller clears the cache before the next timed task."""
    k = task.kind
    bad: list[str] = []
    if k == "hasse":
        base = twists.SuperellipticCurve(2, task.args[0])
        twists._solver_cache.clear()
        for d in result.candidates:
            status, _ = twists.everywhere_locally_soluble(base.twist(d))
            if status != twists.SOLUBLE:
                bad.append(f"candidate d={d} is {status}, not soluble")
    elif k == "scan":
        bad += [f"twist {d} is {st}" for _, d, st in result if st == twists.INSOLUBLE]
    elif k == "certify":
        tw = task.args[0]
        cert, pts, local = result
        if cert is None:
            bad.append("certificate vanished")
        wrong = [p for p in pts if not _point_ok(tw, p)]
        if wrong:
            bad.append(f"{len(wrong)} points fail the equation, the first {wrong[0]}")
        if pts:
            bad.append(f"certified twist has {len(pts)} points up to H")
        if local != twists.INSOLUBLE:
            bad.append(f"local verdict at the certifying prime is {local}")
    elif k == "density":
        den = result.denominator
        if any(n + u > dd for n, u, dd in zip(result.numerator, result.unknown, den)):
            bad.append("numerator + unknown exceeds denominator")
        if any(a > b for a, b in zip(den, den[1:])):
            bad.append("denominators decrease")
    elif k == "beckmann":
        if result.mismatches:
            bad.append(f"{len(result.mismatches)} prediction mismatches")
    return bad


def verdicts(task: Task, result) -> tuple[int, int]:
    """(unknown verdicts, verdicts produced) by one result."""
    k = task.kind
    if k == "hasse":
        n = (len(result.candidates) + result.soluble_with_points
             + result.locally_obstructed + len(result.unknown))
        return len(result.unknown), n
    if k == "scan":
        return sum(st == twists.UNKNOWN for _, _, st in result), len(result)
    if k == "certify":
        return int(result[2] == twists.UNKNOWN), 1
    if k == "density":
        return result.unknown[-1], result.denominator[-1]
    return 0, 0


def warm_up(workload: str) -> None:
    """Run the workload's entry points once on inputs outside its families,
    so that lazy imports and one-off tables land in set-up, not in a task."""
    W = WARM_POLY
    if workload == "hasse":
        twists.hasse_failure_candidates(covers.quad_cover(W), 5, 20)
        twists.admissible_prime_scan(covers.quad_cover(W), 2, 200)
    elif workload == "certify":
        tw = twists.SuperellipticCurve(2, W).twist(-5)
        cert = twists.obstruction_certificate(tw)
        twists.search_points(tw, 20)
        twists.local_solubility(tw, cert.p)
    elif workload == "density":
        census.twist_density_series(covers.quad_cover(W), [10, 100], [4])
    elif workload == "beckmann":
        ramify.consistency_check(covers.quad_cover(W), n_samples=3, height=10, seed=1)
        cubic = covers.CubicCover(*WARM_CUBIC)
        ramify.consistency_check(cubic, n_samples=2, height=10, seed=1)
    twists._solver_cache.clear()
