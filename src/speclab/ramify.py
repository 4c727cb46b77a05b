"""Prediction of ramification in specializations from branch intersection data.

For a cover with branch orbits t_1, ..., t_s and a rational point t0, the
intersection number I_p(t0, t_i) is the p-valuation of the orbit's minimal
binary form evaluated at t0. Outside a finite exceptional set of primes,
p ramifies in the specialization exactly when some (then unique) orbit has
I_p > 0, with inertia of order e_i / gcd(e_i, I_p). The consistency check
compares these predictions against exact specialization discriminants and
must see zero mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .covers import CubicCover, QuadraticCover, _specializations
from .intutil import ConsistencyError, factorize, valuation
from .poly import HomogPolynomial, IntPolynomial, ProjectivePoint, discriminant

__all__ = [
    "RamificationReport",
    "ConsistencyReport",
    "exceptional_superset",
    "predict",
    "consistency_check",
]


def exceptional_superset(cover) -> set[int]:
    """A finite, guaranteed superset of the exceptional primes: primes
    dividing the group order, the content and the leading and trailing
    coefficients of the branch polynomial (for a cubic, also the contents and
    leading coefficients of a2, a1 and a0), and the discriminant of its
    squarefree part.

    The orbit forms add no prime. disc(fg) = disc(f) disc(g) Res(f, g)^2, so
    the discriminant of each finite orbit and the resultant of two finite
    orbits divide the discriminant of the squarefree part. The resultant of a
    finite orbit f with the orbit V at infinity is +-lc(f). An orbit's leading
    coefficients in U and in V divide the branch polynomial's leading and
    trailing coefficients."""
    nums: set[int] = set()

    def absorb(n: int):
        if n:
            nums.update(factorize(n))

    absorb(cover.group_order)
    if isinstance(cover, QuadraticCover):
        base = cover.P
    elif isinstance(cover, CubicCover):
        base = cover.delta
        for a in (cover.a0, cover.a1, cover.a2):
            if a.degree >= 0:
                absorb(a.content)
                absorb(a.lc)
    else:
        raise TypeError("unsupported cover")
    absorb(base.content)
    absorb(base.lc)
    absorb(base.trailing)
    sqf = prod((f for f, _ in cover._factors), start=IntPolynomial([1]))
    if sqf.degree >= 1:
        absorb(discriminant(sqf))
    return nums


@dataclass(frozen=True)
class RamificationReport:
    """Predicted ramification of the specialization at t0."""

    t0: ProjectivePoint
    entries: tuple  # of (p, orbit_index | None, I_p, predicted_order)


def predict(
    cover,
    t0,
    orbits: list[tuple[HomogPolynomial, int]] | None = None,
    primes: tuple[int, ...] | None = None,
) -> RamificationReport:
    """Beckmann-style prediction at every prime meeting some branch orbit.

    For each prime dividing an orbit value, the orbit with positive
    intersection is recorded with the predicted inertia order
    e / gcd(e, I_p). A prime meeting several orbits is recorded with
    orbit_index None and order 0 (undetermined; such primes are exceptional).
    orbits, when given, must be cover.branch_orbits(): (form, e) pairs, the
    orbit's minimal binary form and the order e of the distinguished inertia
    generator above it. I_p is the p-valuation of the form at t0.

    primes, when given, must contain every prime of every orbit value; then
    no orbit value is factorised. The specialisers factor a number every
    orbit value divides and leave its primes on their report (see
    consistency_check). For a quadratic cover that number is hom_value(t0) =
    P_hom(u, v) v^(deg P mod 2), and P = content * f_1 * ... * f_k, whose
    factors' forms are the finite orbits; the orbit V, present for odd
    deg P, has the value v. For a cubic cover it is the discriminant of
    specialized_cubic(t0), which is delta_hom(u, v) v^(6D - deg delta), and
    the finite orbits are forms of factors of delta; V is an orbit only when
    infinity is branched, which needs 6D - deg delta >= 1. Each orbit value
    is divided by the given primes it has, and a cofactor other than +-1
    raises ConsistencyError, so a prime set that misses a prime never
    passes silently.
    """
    pt = t0 if isinstance(t0, ProjectivePoint) else ProjectivePoint.from_rational(t0)
    if orbits is None:
        orbits = cover.branch_orbits()
    vals = []
    for form, _ in orbits:
        v = form.eval_proj(pt)
        if v == 0:
            raise ValueError(f"t0 = {pt} is a branch point")
        vals.append(v)
    if primes is None:
        facs = [factorize(v) for v in vals]
    else:
        facs = [_factor_over(v, primes) for v in vals]
    entries = []
    for p in sorted(set().union(*facs)):
        hits = [(i, fac[p]) for i, fac in enumerate(facs) if p in fac]
        if len(hits) == 1:
            i, ip = hits[0]
            e = orbits[i][1]
            entries.append((p, i, ip, e // gcd(e, ip)))
        else:
            entries.append((p, None, sum(ip for _, ip in hits), 0))
    return RamificationReport(pt, tuple(entries))


def _factor_over(n: int, primes: tuple[int, ...]) -> dict[int, int]:
    """factorize(n) for a nonzero n whose primes are all in primes; raises
    ConsistencyError when they are not."""
    out = {}
    for p in primes:
        if n % p == 0:
            out[p] = k = valuation(n, p)
            n //= p**k
    if abs(n) != 1:
        raise ConsistencyError(f"the given primes leave the cofactor {n} of an orbit value")
    return out


@dataclass(frozen=True)
class ConsistencyReport:
    samples: int
    checked_primes: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


def consistency_check(
    cover,
    n_samples: int = 200,
    height: int = 50,
    seed: int = 0,
) -> ConsistencyReport:
    """Predictions vs exact specializations over random t0 of bounded height.

    At every prime outside the exceptional superset the predicted inertia
    order must equal the exact one, in both directions (predicted ramified
    primes must carry ramification, actual ramified primes must be
    predicted). Also asserts the discriminant lower bound: the product of odd
    non-exceptional primes with intersection number exactly 1 divides the
    specialization discriminant, hence bounds it from below. The branch
    orbits are computed once and shared by every prediction.

    Each sample point is factorised once. Every orbit value at t0 divides
    the number its specialiser factors: hom_value(t0) for a quadratic cover,
    disc(specialized_cubic(t0)) = delta_hom(u, v) v^(6D - deg delta) for a
    cubic one (see predict). The report carries that number's primes, and
    predict reads the orbit values' primes from them. A cubic report with a
    rational root carries none, for only the discriminant of its quadratic
    factor was factorised; its orbit values are factorised one by one.
    """
    orbits = cover.branch_orbits()
    exc = exceptional_superset(cover)
    mismatches = []
    checked = 0
    done = 0
    points = _specializations(cover, height, seed)
    while done < n_samples:
        pt, rep = next(points)
        try:
            pred = predict(cover, pt, orbits, rep._primes)
        except ValueError:
            continue
        done += 1
        predicted = {p: (ip, order) for p, _, ip, order in pred.entries}
        bound = 1
        for p in sorted(predicted.keys() | set(rep.ramified_primes)):
            if p in exc:
                continue
            checked += 1
            ip, want = predicted.get(p, (0, 1))
            got = rep.inertia_order(p)
            if want != got:
                mismatches.append((pt, p, want, got))
            if p != 2 and ip == 1:
                bound *= p
        if abs(rep.disc_field) < bound:
            mismatches.append((pt, 0, bound, rep.disc_field))
    return ConsistencyReport(done, checked, tuple(mismatches))
