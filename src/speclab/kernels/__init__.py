"""Height-bounded search for y^n = d * F(u, v) over coprime integer pairs.

The search space at height H is every pair (u, v) with |u| <= H, 1 <= v <= H.
A per-prime residue sieve (allowed residues: n-th power residues of d*F and 0)
prunes almost everything; the few survivors get an exact bigint n-th power
check. The sieve (_purepy.survivors) is bit-packed numpy, as in ratpoints:
each prime's allowed u for one v mod p is a row of uint64 words, and a block
of v rows is the AND of one such row per prime.

The exact check evaluates F at the survivors with form_values, the one array
evaluator of a binary form (the census uses it too), and takes n-th roots of
the nonzero values in (v, u) order until max_points points are found.

The sieve tables are split by what they depend on. Per prime, shared by
every curve in the process: the allowed mask of each class -- which values
are allowed depends on d only through its class in F_p^*/(F_p^*)^n (or
d = 0 mod p). Per curve: the table of F(u, v) mod p, one integer matrix
product of the powers r^k mod p with the coefficients; for each class the
mask indexed by that value table, which is a twist's sieve table; and for
each class and height H the sieve table's packed rows, when they take at
most _KEPT_ROWS_BYTES. A caller that searches many twists of one curve
passes one dict as `cache` to keep the per-curve tables between calls.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from ..fp import power_class
from ..intutil import is_probable_prime, nth_root
from . import _purepy

__all__ = ["search_pairs", "form_values", "backend_name", "available_backends"]

_MAX_SIEVE_PRIMES = 14
_CANDIDATE_PRIMES = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
]
# Primes p = 1 (mod n) taken when no candidate prime sieves for n (n = 17,
# 19, 31, ...). Each passes about 1/n of the pairs, so a few suffice.
_FALLBACK_PRIMES = 4
# The packed rows of a sieve table are kept in the curve's cache only up to
# this size: p rows of ceil((2H + 1) / 64) words. At H = 200 every candidate
# prime's rows fit (61 rows of 7 words take 3416 bytes), so a scan over many
# twists of one curve packs each (p, class, H) once. From H = 5440 on not even
# p = 3 fits, so a large search keeps no rows.
_KEPT_ROWS_BYTES = 4096
# Key of the sub-dict of packed rows in a curve's cache: {(p, class, H): rows}.
_ROWS = "rows"


# Per-prime masks shared by every curve, read-only. It stays small: keys are
# the sieve primes (17 candidates plus 4 fallbacks per n) times the classes
# of d.
_masks: dict[tuple[int, int, int], np.ndarray] = {}  # (p, n, class) -> mask


def _allowed_residues(p: int, n: int, d: int) -> np.ndarray:
    """Boolean table over F_p: residues r with d*r an n-th power residue or 0.
    One read-only array per (p, n, class of d)."""
    key = (p, n, power_class(d, p, n))
    mask = _masks.get(key)
    if mask is None:
        mask = _masks[key] = np.array([power_class(d * r, p, n) in (0, 1) for r in range(p)])
        mask.flags.writeable = False
    return mask


def _sieve_fraction(p: int, n: int, d: int) -> float:
    """Share of F_p that _allowed_residues(p, n, d) allows."""
    if d % p == 0:
        return 1.0
    return (1 + (p - 1) // gcd(n, p - 1)) / p


def _select_primes(n: int, d: int) -> list[int]:
    scored = []
    for p in _CANDIDATE_PRIMES:
        frac = _sieve_fraction(p, n, d)
        if frac < 0.99:
            scored.append((frac, p))
    if scored:
        scored.sort()
        return [p for _, p in scored[:_MAX_SIEVE_PRIMES]]
    primes: list[int] = []
    p = 1
    while len(primes) < _FALLBACK_PRIMES:
        p += n
        if is_probable_prime(p) and d % p:
            primes.append(p)
    return primes


def _value_table(coeffs: list[int], M: int, p: int) -> np.ndarray:
    """F(u, v) mod p, shape (p, p), indexed [v % p][u % p]:
    sum_j (v^(M-j) c_j mod p) * u^j as one int64 matrix product."""
    r = np.arange(p, dtype=np.int64)
    pw = np.ones((p, M + 1), dtype=np.int64)
    for k in range(1, M + 1):
        pw[:, k] = pw[:, k - 1] * r % p
    c = np.array([cj % p for cj in coeffs[: M + 1]], dtype=np.int64)
    # Both factors are reduced below p, so each entry of the product is a sum
    # of M + 1 terms below p^2: under (M + 1) p^2, far below 2^63.
    val = ((pw[:, ::-1] * c) % p) @ pw.T % p
    return val.astype(np.min_scalar_type(p - 1))


def _residue_tables(
    coeffs: list[int],
    M: int,
    n: int,
    d: int,
    primes: list[int],
    cache: dict | None = None,
):
    """ok[p] has shape (p, p): ok[p][v % p][u % p] == sieve passes.

    cache, when given, must only ever see one (coeffs, M, n): it keeps the
    curve's value table under p and, under (p, class of d), the sieve table
    of that class: the shared per-prime mask (see _allowed_residues) indexed
    by the value table. The masks themselves are kept per prime, not here.
    search_pairs keeps the packed rows of these tables in the same cache,
    in the sub-dict under _ROWS."""
    if cache is None:
        cache = {}
    tables = {}
    for p in primes:
        key = (p, power_class(d, p, n))
        ok = cache.get(key)
        if ok is None:
            val = cache.get(p)
            if val is None:
                val = cache[p] = _value_table(coeffs, M, p)
            ok = cache[key] = _allowed_residues(p, n, d)[val]
            ok.flags.writeable = False  # shared by every twist in the class
        tables[p] = ok
    return tables


def backend_name() -> str:
    """The sieve's name, kept for result metadata: there is one sieve."""
    return "purepy"


def available_backends() -> list[str]:
    return ["purepy"]


def form_values(cs: list[int], u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact values sum_j cs[j] u^j v^(N-j) by homogeneous Horner: int64 when
    sum |cs[j]| * max(|u|, v)^N < 2^62 bounds every partial sum, else Python
    ints in an object array (the same arithmetic, without wrap-around)."""
    N = len(cs) - 1
    H = max(int(np.abs(u).max(initial=0)), int(v.max(initial=0)))
    dtype = np.int64 if sum(abs(c) for c in cs) * H**N < 2**62 else object
    u = u.astype(dtype)
    v = v.astype(dtype)
    acc = np.full(u.shape, cs[N], dtype=dtype)
    vk = np.ones(u.shape, dtype=dtype)
    for j in range(N - 1, -1, -1):
        vk = vk * v
        acc *= u
        if cs[j]:
            acc += cs[j] * vk
    return acc


def search_pairs(
    coeffs: list[int],
    M: int,
    n: int,
    d: int,
    H: int,
    max_points: int | None = None,
    cache: dict | None = None,
) -> list[tuple[int, int, int]]:
    """All (y, u, v) with gcd(u, v)=1, |u| <= H, 1 <= v <= H, y != 0 integer and
    y^n = d * sum_j coeffs[j] u^j v^(M-j). Sorted by (v, u, y). For even n both
    signs of y solve; only y > 0 is reported.

    max_points, when given, keeps the first max_points of that list (none for
    0): the whole box is sieved, and the exact check stops at the last one.
    cache: the curve's table cache. It holds the value and sieve tables (see
    _residue_tables) and, in its sub-dict under _ROWS, each sieve table's
    packed rows under (p, class of d, H) when they take at most
    _KEPT_ROWS_BYTES."""
    if n < 2:
        raise ValueError("n must be >= 2")
    out: list[tuple[int, int, int]] = []
    if H < 1 or (max_points is not None and max_points < 1):
        return out
    primes = _select_primes(n, d)
    tables = _residue_tables(coeffs, M, n, d, primes, cache)
    kept = {} if cache is None else cache.setdefault(_ROWS, {})
    keys = {p: (p, power_class(d, p, n), H) for p in primes}
    packed = {p: kept[k] for p, k in keys.items() if k in kept}
    pairs = _purepy.survivors(tables, H, packed)
    for p, k in keys.items():
        if k not in kept and packed[p].nbytes <= _KEPT_ROWS_BYTES:
            packed[p].flags.writeable = False  # shared by every twist in the class
            kept[k] = packed[p]
    pairs = pairs[np.gcd(pairs[:, 0], pairs[:, 1]) == 1]
    vals = form_values(coeffs[: M + 1], pairs[:, 0], pairs[:, 1])
    for (u, v), val in zip(pairs.tolist(), vals.tolist()):
        y = nth_root(d * val, n) if val else None
        if y:
            out.append((y, u, v))
            if len(out) == max_points:
                break
    return out
