"""Exponent calculus for specialization counts: the Malle exponent alpha(G),
the abc-conditional exponent e of a ramification type, the central exponent
beta, Riemann-Hurwitz genus, branch-cycle necessary conditions for cyclic
groups, and the explicit corollary case analysis.

All exponent arithmetic is exact rational; no floats on any contract path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, log

from .intutil import ConsistencyError, factorize, is_probable_prime, valuation

__all__ = [
    "GroupDescriptor",
    "RamificationType",
    "malle_alpha",
    "abc_exponent",
    "best_abc_exponent",
    "condition_eq1",
    "condition_eq2",
    "beta_exponent",
    "rh_genus",
    "bcl_cyclic_check",
    "corollary_case_classifier",
    "uniformity_constant",
]


@lru_cache(maxsize=1024)
def _least_prime_factor(e: int) -> int:
    return min(factorize(e))


@dataclass(frozen=True)
class GroupDescriptor:
    """Order arithmetic and user-asserted structure of a finite group.

    Only data the case analysis consumes; nothing here is a group object.
    center_q: least prime with a central element of that order lying in some
    inertia group (user-supplied, cannot be derived from the order).
    """

    order: int
    rank_lower: int | None = None
    cyclic_quotient_orders: tuple[int, ...] = ()
    nilpotent: bool | None = None
    center_q: int | None = None

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("group must be nontrivial")
        for n in self.cyclic_quotient_orders:
            if n < 1 or self.order % n:
                raise ValueError("cyclic quotient orders must divide the order")
        if self.center_q is not None and self.order % self.center_q:
            raise ValueError("center_q must divide the order")

    @property
    def least_prime(self) -> int:
        return _least_prime_factor(self.order)


@dataclass(frozen=True)
class RamificationType:
    """Branch indices e_1..e_r (each >= 2) with an optional attached group."""

    indices: tuple[int, ...]
    group: GroupDescriptor | None = None
    # least prime dividing some index, computed once; no part of repr,
    # equality or hash
    q0: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.indices:
            raise ValueError("need at least one branch point")
        if any(e < 2 for e in self.indices):
            raise ValueError("branch indices must be >= 2")
        if self.group is not None and any(self.group.order % e for e in self.indices):
            raise ValueError("branch indices must divide the group order")
        object.__setattr__(self, "q0", min(map(_least_prime_factor, set(self.indices))))

    @property
    def r(self) -> int:
        return len(self.indices)

    @property
    def e0(self) -> int:
        return min(self.indices)


def malle_alpha(G: GroupDescriptor | int) -> Fraction:
    """alpha(G) = p / ((p - 1) |G|), p the least prime factor of |G|."""
    order = G.order if isinstance(G, GroupDescriptor) else int(G)
    if order < 2:
        raise ValueError("group must be nontrivial")
    p = _least_prime_factor(order)
    return Fraction(p, (p - 1) * order)


def abc_exponent(rt: RamificationType, order: int | None = None) -> Fraction:
    """e = 2 / (|G| (1 - 1/e_0) (r - 2 - 2/(q_0 - 1))), defined only when the
    branch-point condition r > 2 + 2/(q_0 - 1) holds."""
    if order is None:
        if rt.group is None:
            raise ValueError("no group order available")
        order = rt.group.order
    ok, _ = condition_eq1(rt)
    if not ok:
        raise ValueError("branch-point condition fails: r <= 2 + 2/(q0 - 1)")
    r, e0, q0 = rt.r, rt.e0, rt.q0
    # numerator and denominator times e0 (q0 - 1), so one Fraction
    return Fraction(2 * e0 * (q0 - 1), order * (e0 - 1) * ((r - 2) * (q0 - 1) - 2))


def best_abc_exponent(
    rt: RamificationType, subsets: list[tuple[int, ...]], order: int | None = None
) -> tuple[Fraction, tuple[int, ...]]:
    """Smallest exponent over user-enumerated sub-multisets of the branch
    indices (each a selection, as a tuple), including the full type."""
    best = abc_exponent(rt, order)
    pick = rt.indices
    for sub in subsets:
        srt = RamificationType(tuple(sub), rt.group)
        if any_not_sub(sub, rt.indices):
            raise ValueError("subset is not a sub-multiset of the branch indices")
        try:
            e = abc_exponent(srt, order)
        except ValueError:
            continue
        if e < best:
            best, pick = e, tuple(sub)
    return best, pick


def any_not_sub(sub, full) -> bool:
    pool = list(full)
    for x in sub:
        if x in pool:
            pool.remove(x)
        else:
            return True
    return False


def condition_eq1(rt: RamificationType) -> tuple[bool, int | None]:
    """r > 2 + 2/(q_0 - 1), with the sufficient case that fired:
    (1) r >= 5; (2) r >= 4 and q_0 >= 3; (3) r >= 3 and q_0 >= 5."""
    r, q0 = rt.r, rt.q0
    holds = r * (q0 - 1) > 2 * q0  # the inequality times q0 - 1 > 0
    case = None
    if r >= 5:
        case = 1
    elif r >= 4 and q0 >= 3:
        case = 2
    elif r >= 3 and q0 >= 5:
        case = 3
    if holds != (case is not None):
        raise ConsistencyError(f"eq1 is {holds} but its case is {case} at r = {r}, q0 = {q0}")
    return holds, case


def condition_eq2(rt: RamificationType, G: GroupDescriptor | None = None) -> tuple[bool, str | None]:
    """r > 2 (q_0/(q_0 - 1) + (p - 1) e_0 / (p (e_0 - 1))), p the least prime
    of the group order. Case tags (sufficient conditions): (a) r >= 7;
    (b) r = 6, e_0 >= 3; (c) r = 5, q_0 >= 3, (e_0, q_0, p) != (3, 3, 3);
    (d) r = 4, q_0 > 2p. Equivalent to e < alpha(G) whenever e is defined."""
    if G is None:
        G = rt.group
    if G is None:
        raise ValueError("no group attached")
    r, e0, q0 = rt.r, rt.e0, rt.q0
    p = G.least_prime
    # the inequality times (q0 - 1) p (e0 - 1) > 0
    holds = r * (q0 - 1) * p * (e0 - 1) > 2 * (q0 * p * (e0 - 1) + (p - 1) * e0 * (q0 - 1))
    case = None
    if r >= 7:
        case = "a"
    elif r == 6 and e0 >= 3:
        case = "b"
    elif r == 5 and q0 >= 3 and (e0, q0, p) != (3, 3, 3):
        case = "c"
    elif r == 4 and q0 > 2 * p:
        case = "d"
    if case is not None and not holds:
        raise ConsistencyError(f"eq2 case {case} fired but eq2 fails at {rt.indices}")
    if holds:
        # agreement with the exponent comparison, when the exponent exists
        ok1, _ = condition_eq1(rt)
        if ok1 and abc_exponent(rt, G.order) >= malle_alpha(G):
            raise ConsistencyError(f"eq2 holds but e >= alpha(G) at {rt.indices}")
    return holds, case


def beta_exponent(q: int, order: int) -> Fraction:
    """beta = q / ((q - 1) |G|) for a prime q dividing |G| (least order of a
    central inertia element). Checks alpha(G) >= beta > 1/|G| >= alpha(G)/2."""
    if order < 2 or not is_probable_prime(q) or order % q:
        raise ValueError("q must be a prime dividing the group order")
    beta = Fraction(q, (q - 1) * order)
    alpha = malle_alpha(order)
    if not alpha >= beta > Fraction(1, order) >= alpha / 2:
        raise ConsistencyError(f"alpha >= beta > 1/|G| >= alpha/2 fails at q = {q}, |G| = {order}")
    return beta


def rh_genus(order: int, rt: RamificationType) -> int:
    """Genus from 2g - 2 = |G| (-2 + sum_i (1 - 1/e_i)); the indices must
    divide |G| and the result must be a nonnegative integer."""
    if any(order % e for e in rt.indices):
        raise ValueError("indices must divide the group order")
    val = order * (-2 + sum(1 - Fraction(1, e) for e in rt.indices))
    if val.denominator != 1 or val < -2 or (val + 2) % 2:
        raise ValueError("inconsistent ramification type")
    return int(val + 2) // 2


def bcl_cyclic_check(n: int, rt: RamificationType) -> list[str]:
    """Necessary conditions on the ramification type of a regular Z/n-cover
    of the line over Q; returns the violated ones (empty list = consistent).

    Branch points with full p0^m-part of the inertia come in conjugate packs
    of size phi(p0^m); inertia subgroups must generate, i.e. lcm of the
    indices is n; an index-n point forces r >= phi(n); n = 2 forces r even.
    """
    out = []
    es = rt.indices
    lcm = 1
    for e in es:
        lcm = lcm * e // gcd(lcm, e)
    if lcm != n:
        out.append(f"inertia generates a proper subgroup (lcm {lcm} != {n})")
    for p0 in sorted(factorize(n)):
        m = valuation(n, p0)
        q = p0**m
        have = sum(1 for e in es if e % q == 0)
        need = q - q // p0  # phi(p0^m)
        if 0 < have < need:
            out.append(
                f"only {have} branch points with index divisible by {q}, need {need}"
            )
    phi_n = 1
    for p0 in sorted(factorize(n)):
        m = valuation(n, p0)
        phi_n *= p0**m - p0 ** (m - 1)
    if n in es and rt.r < phi_n:
        out.append(f"an index-{n} point needs r >= phi({n}) = {phi_n}")
    if n == 2 and rt.r % 2:
        out.append("a quadratic cover of the line has an even number of branch points")
    return out


def corollary_case_classifier(G: GroupDescriptor, require: str | None = None) -> list[str]:
    """Which clauses of the two explicit density-zero corollaries apply.

    abc-side: (abc-a) rank >= 6 (with the Malle lower bound); (abc-b) a
    cyclic quotient of order outside {1,2,3,4,5,6,8,10,12} (with the Malle
    lower bound); (abc-c) nilpotent of order divisible by a prime >= 7.
    uniformity-side: (uni-a) even order not of the form 2^a 3^b with b <= 1;
    (uni-b) odd order with at least two prime factors.

    With require set to one of the tags, missing descriptor data for that
    clause raises instead of silently skipping."""
    out = []
    order = G.order
    primes = sorted(factorize(order))
    small = {1, 2, 3, 4, 5, 6, 8, 10, 12}
    if G.rank_lower is not None and G.rank_lower >= 6:
        out.append("abc-a")
    if any(q not in small for q in G.cyclic_quotient_orders):
        out.append("abc-b")
    if G.nilpotent and primes[-1] >= 7:
        out.append("abc-c")
    if order % 2 == 0:
        odd = order
        while odd % 2 == 0:
            odd //= 2
        if odd not in (1, 3):
            out.append("uni-a")
    elif len(primes) >= 2:
        out.append("uni-b")
    if require is not None and require not in out:
        if require == "abc-a" and G.rank_lower is None:
            raise ValueError("insufficient descriptor: rank_lower missing")
        if require == "abc-b" and not G.cyclic_quotient_orders:
            raise ValueError("insufficient descriptor: cyclic quotient orders missing")
        if require == "abc-c" and G.nilpotent is None:
            raise ValueError("insufficient descriptor: nilpotent flag missing")
    return out


def uniformity_constant(order: int) -> float:
    """a(G) = (|G| - 1) / (|G| * 3 |G|^4 log |G|): convenience echo of the
    uniformity-conditional constant; drives no contract."""
    if order < 2:
        raise ValueError("group must be nontrivial")
    return (order - 1) / (order * 3 * order**4 * log(order))
