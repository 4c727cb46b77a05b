"""Height-bounded search for y^n = d * F(u, v) over coprime integer pairs.

The search space at height H is every pair (u, v) with |u| <= H, 1 <= v <= H.
A per-prime residue sieve (allowed residues: n-th power residues of d*F and 0)
prunes almost everything; the few survivors get an exact bigint n-th power
check. The sieve (_purepy.survivors) is bit-packed numpy, as in ratpoints:
each prime's allowed u for one v mod p is a row of uint64 words, and a block
of v rows is the AND of one such row per prime. A 2-adic row joins them, like
ratpoints' tables of squares mod 16 (Bruin and Stoll): a packed word spans
exactly 64 consecutive u, so the u where d*F(u, v) is no n-th power mod 64,
or where u and v are both even, are one word per v mod 64, a (64, 1) table
that the sieve ANDs into every word of the row by broadcasting. The sieve
visits only the v whose 2-adic word is nonzero: a zero word empties its row.

The survivors are checked in (v, u) order, in chunks, until max_points
points are found. In each chunk the pairs with gcd(u, v) > 1 go first. A
chunk of more than a few dozen pairs then goes through a second residue
stage (_residue_stage): the same test as the sieve's, at up to 8 more primes
from 67 up that sieve for n, with F(u, v) mod p from one vectorised Horner
pass instead of a table. Like the sieve it tests only mod p. It keeps a few
pairs in a thousand when there is no point, and stops running once a pass
keeps more than half of a chunk, where the pairs are mostly points. What is
left gets the exact check: form_values, the one array evaluator of a binary
form (the census uses it too), then an n-th root of each nonzero value.

The sieve's inputs are split by what they depend on. Per prime, shared by
every curve in the process: the allowed mask of each class -- which values
are allowed depends on d only through its class in F_p^*/(F_p^*)^n (or
d = 0 mod p) -- and, for the candidate primes, the index u * v^-1 mod p
into a value row. Per curve: the value row f(t) = F(t, 1) mod p, from one
Horner pass over all the primes a search is missing, read through that index
since F(u, v) = v^M f(u / v); a fallback prime's index; F(u, v) mod 64 as
uint8; and for each class and height H the packed rows of the sieve table
(the mask read through the value row), when they take at most
_KEPT_ROWS_BYTES, and the 2-adic row.
_residue_tables and _two_adic_row build those rows; the sieve only ANDs them.
A caller that searches many twists of one curve passes one dict as `cache`
to keep the per-curve tables between calls. The shared masks and index
outlive every such cache: they last as long as the process.

A prime that divides d or the content of F passes every pair, so it is
neither a sieve nor a stage prime. Nor is a fallback prime whose p x p
sieve table would cost more than checking the box: with no sieve prime left,
the whole box goes to the 2-adic row, the residue stage and the exact check.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from ..fp import power_class
from ..intutil import is_probable_prime, nth_root, primes_up_to
from . import _purepy

__all__ = ["search_pairs", "form_values", "backend_name", "available_backends"]

_MAX_SIEVE_PRIMES = 14
_CANDIDATE_PRIMES = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
]
# Primes p = 1 (mod n) taken when no candidate prime sieves for n (n = 17,
# 19, 31, ...). Each passes about 1/n of the pairs, so a few suffice; only
# those with p^2 <= (2H + 1) H, whose sieve table costs no more than the box.
_FALLBACK_PRIMES = 4
# The packed rows of a sieve table are kept in the curve's cache only up to
# this size: p rows of ceil((2H + 1) / 64) words. At H = 200 every candidate
# prime's rows fit (61 rows of 7 words take 3416 bytes), so a scan over many
# twists of one curve packs each (p, class, H) once. From H = 5440 on not even
# p = 3 fits, so a large search keeps no rows.
_KEPT_ROWS_BYTES = 4096
# The second residue stage, on the sieve's survivors: up to _STAGE_PRIMES
# primes from 67 to 1021 that sieve for n and are not sieve primes.
_STAGE_PRIMES = 8
_STAGE_CANDIDATES = [p for p in primes_up_to(1021) if p >= 67]
# The exact check takes the survivors in (v, u) order: a first chunk of
# _FIRST_CHUNK, small so that a search whose first point lies in its first
# rows stops early, then chunks of _CHUNK; it stops at max_points. A chunk of
# more than _STAGE_MIN coprime pairs goes through the stage first. On a
# 2-core host a pass over 8 primes costs about 50 us + 0.35-0.6 us per pair
# (form degree 4 to 8), and the exact check about 30 us + 0.35 us per pair on
# int64 values and 1.2-1.7 us per pair on larger ones: the stage pays from a
# few dozen pairs on, most where the values leave int64.
_FIRST_CHUNK = 256
_CHUNK = 4096
_STAGE_MIN = 32


# Per-prime masks shared by every curve, read-only. It stays small: keys are
# the sieve primes (17 candidates plus 4 fallbacks per n) and the stage
# primes (at most the 154 primes from 67 to 1021) times the classes of d.
_masks: dict[tuple[int, int, int], np.ndarray] = {}  # (p, n, class) -> mask
# The value-row index of each candidate prime, shared by every curve and
# read-only: 17 tables of p x p bytes, about 25 KB. A fallback prime's index
# (up to p^2 <= (2H + 1) H entries) is kept in the curve's cache instead:
# kept here, n = 101 at H = 10^4 would hold about 5 M entries for the life of
# the process.
_index: dict[int, np.ndarray] = {}  # p -> see _value_index
_R64 = np.arange(64, dtype=np.uint8)


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


def _select_primes(n: int, d: int, H: int) -> list[int]:
    """Sieve primes for n at height H, none dividing d (the caller passes d
    times the content of F): candidates best first, else fallback primes."""
    scored = []
    for p in _CANDIDATE_PRIMES:
        frac = _sieve_fraction(p, n, d)
        if frac < 0.99:
            scored.append((frac, p))
    if scored:
        scored.sort()
        return [p for _, p in scored[:_MAX_SIEVE_PRIMES]]
    primes: list[int] = []
    p = 1 + n
    while len(primes) < _FALLBACK_PRIMES and p * p <= (2 * H + 1) * H:
        if is_probable_prime(p) and d % p:
            primes.append(p)
        p += n
    return primes


def _powmod(r: np.ndarray, e: int, p: int) -> np.ndarray:
    """r^e mod p elementwise, for int64 r in [0, p) and p < 2^31 (every
    product stays below p^2 < 2^62)."""
    out = np.ones_like(r)
    while e:
        if e & 1:
            out = out * r % p
        r = r * r % p
        e >>= 1
    return out


def _value_index(p: int, cache: dict) -> np.ndarray:
    """(p, p) index into a value row (see _value_rows), [v % p][u % p]:
    u * v^-1 mod p where v != 0, p (the point at infinity) where v = 0 and
    u != 0, p + 1 at u = v = 0. Read-only, shared by every curve for the
    candidate primes; a fallback prime's is kept in the curve's cache under
    ("index", p)."""
    store, key = (_index, p) if p in _CANDIDATE_PRIMES else (cache, ("index", p))
    idx = store.get(key)
    if idx is None:
        r = np.arange(p, dtype=np.int64)
        inv = _powmod(r, p - 2, p)
        idx = np.empty((p, p), dtype=np.min_scalar_type(p + 1))
        step = max(1, _purepy._BLOCK_BYTES // (8 * p))
        for v0 in range(1, p, step):  # int64 temporaries of one block of rows
            idx[v0 : v0 + step] = np.outer(inv[v0 : v0 + step], r) % p
        idx[0] = p
        idx[0, 0] = p + 1
        idx.flags.writeable = False
        store[key] = idx
    return idx


def _value_rows(coeffs: list[int], primes: list[int]) -> dict[int, np.ndarray]:
    """rows[p]: F at the points of P^1(F_p) read by _value_index -- f(t) =
    F(t, 1) mod p at t = 0 .. p - 1, then F(1, 0) (the leading coefficient),
    then F(0, 0) (0 unless F is a constant). One Horner pass over all the
    primes at once, with a per-element modulus: every factor is below p, so
    each step stays below p^2 + p."""
    sizes = np.array(primes, dtype=np.int64) + 2
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(primes)), sizes)
    q = sizes[owner] - 2
    t = np.arange(ends[-1], dtype=np.int64) - (ends - sizes)[owner]
    c = np.array([[cj % p for p in primes] for cj in coeffs], dtype=np.int64)[:, owner]
    acc = c[-1]
    for cj in c[-2::-1]:
        acc = (acc * t + cj) % q
    acc[ends - 2] = c[-1, ends - 2]
    acc[ends - 1] = c[0, ends - 1] if len(coeffs) == 1 else 0
    acc = acc.astype(np.min_scalar_type(max(primes) - 1))
    return {p: acc[e - p - 2 : e] for p, e in zip(primes, ends.tolist())}


def _residue_tables(
    coeffs: list[int],
    n: int,
    d: int,
    primes: list[int],
    H: int,
    cache: dict,
) -> dict[int, np.ndarray]:
    """rows[p]: the sieve table of p at height H, packed by
    _purepy._packed_rows. The sieve table ok[v % p][u % p] is True where
    d * F(u, v) mod p is an n-th power residue or 0: the shared per-prime
    mask (see _allowed_residues) read through the curve's value row at the
    shared index u * v^-1 (see _value_index), for F(u, v) = v^M f(u / v).
    When gcd(n, p - 1) divides the degree M, v^M (and u^M at v = 0) is an
    n-th power residue and leaves the class unchanged; otherwise the values
    are scaled by it first.

    cache must only ever see one (coeffs, n): it keeps the value row under
    p, a fallback prime's index, and the rows under (p, class of d, H) when
    they take at most _KEPT_ROWS_BYTES. The masks themselves are kept per
    prime, not here."""
    M = len(coeffs) - 1
    keys = {p: (p, power_class(d, p, n), H) for p in primes}
    missing = [p for p in primes if keys[p] not in cache and p not in cache]
    if missing:
        cache.update(_value_rows(coeffs, missing))
    out = {}
    for p in primes:
        rows = cache.get(keys[p])
        if rows is None:
            allowed, val, idx = _allowed_residues(p, n, d), cache[p], _value_index(p, cache)
            if M % gcd(n, p - 1):
                scale = _powmod(np.arange(p, dtype=np.int64), M, p)
                vals = val[idx].astype(np.int64)
                vals[1:] *= scale[1:, None]
                vals[0] *= scale
                ok = allowed[vals % p]
            else:
                ok = np.take(allowed[val], idx)  # faster than [idx] on a uint8 index
            rows = _purepy._packed_rows(ok, H)
            if rows.nbytes <= _KEPT_ROWS_BYTES:
                rows.flags.writeable = False  # shared by every twist in the class
                cache[keys[p]] = rows
        out[p] = rows
    return out


def _two_adic_row(coeffs: list[int], n: int, d: int, H: int, cache: dict) -> np.ndarray:
    """The sieve's 2-adic table at height H, shape (64, 1): word v % 64 has
    bit b clear where u = -H + b (mod 64) has d * F(u, v) no n-th power mod
    64, or u and v both even. A packed word spans exactly 64 consecutive u,
    so the one word serves every word of row v, by broadcasting.

    cache keeps F(u, v) mod 64 under 64, as uint8 indexed [v % 64][u % 64],
    and the table under (64, allowed residues of d mod 64, H)."""
    powers = np.zeros(64, dtype=bool)
    powers[[pow(y, n, 64) for y in range(64)]] = True
    allowed = powers[d % 64 * _R64 % 64]
    key = (64, allowed.tobytes(), H)
    words = cache.get(key)
    if words is None:
        val = cache.get(64)
        if val is None:
            # uint8 arithmetic wraps mod 256, which 64 divides
            acc = np.full((64, 64), coeffs[-1] % 64, dtype=np.uint8)
            vk = np.ones((64, 1), dtype=np.uint8)
            for c in coeffs[-2::-1]:
                vk = vk * _R64[:, None]
                acc = acc * _R64 + c % 64 * vk
            val = cache[64] = acc % 64
        ok = np.take(allowed, val)  # faster than allowed[val] on a uint8 index
        ok[::2, ::2] = False  # gcd(u, v) even
        # bit b is u = -H + b: column (b - H) % 64 of ok
        words = cache[key] = np.packbits(np.roll(ok, H, axis=1), axis=1, bitorder="little").view("<u8")
        words.flags.writeable = False
    return words


def _stage_primes(n: int, d: int, sieved: list[int]) -> list[int]:
    """The first _STAGE_PRIMES primes of _STAGE_CANDIDATES that sieve for
    (n, d) and are not among the sieve's primes; fewer, or none, when the
    candidates run out (for n = 59 the only ones, 709 and 827, are fallback
    sieve primes)."""
    out = []
    for p in _STAGE_CANDIDATES:
        if p not in sieved and _sieve_fraction(p, n, d) < 0.99:
            out.append(p)
            if len(out) == _STAGE_PRIMES:
                break
    return out


def _residue_stage(cs: list[int], n: int, d: int, primes: list[int]):
    """keep(u, v) -> boolean array: which pairs pass every stage prime p (see
    _stage_primes), that is d * F(u, v) mod p is an n-th power residue or 0
    (the shared masks of _allowed_residues). F(u, v) mod p comes from one
    homogeneous Horner pass over a (primes x pairs) int32 array: every factor
    is reduced below p < 2^10, so every product and sum stays below
    2 p^2 < 2^21."""
    if not primes:
        return lambda u, v: np.ones(len(u), dtype=bool)
    p = np.array(primes, dtype=np.int32)[:, None]
    c = np.array([[cj % q for q in primes] for cj in cs], dtype=np.int32)[:, :, None]
    masks = np.concatenate([_allowed_residues(q, n, d) for q in primes])
    offsets = np.cumsum([0] + primes[:-1], dtype=np.int32)[:, None]

    def keep(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        um = (u % p).astype(np.int32)
        vm = (v % p).astype(np.int32)
        acc = np.repeat(c[-1], len(u), axis=1)
        vk = np.ones_like(vm)
        for cj in c[-2::-1]:
            acc *= um
            vk *= vm
            vk %= p
            acc += cj * vk
            acc %= p
        return masks[acc + offsets].all(axis=0)

    return keep


def backend_name() -> str:
    """The sieve's name, kept for result metadata: there is one sieve."""
    return "purepy"


def available_backends() -> list[str]:
    return ["purepy"]


def form_values(cs: list[int], u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact values sum_j cs[j] u^j v^(N-j) by homogeneous Horner: int64 when
    sum |cs[j]| * max(|u|, v)^N < 2^62 bounds every partial sum, else Python
    ints in an object array (the same arithmetic, without wrap-around). The
    bound takes max(|u|, v) as at least 1, so that the coefficients fit too."""
    N = len(cs) - 1
    H = max(1, int(np.abs(u).max(initial=0)), int(v.max(initial=0)))
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
    n: int,
    d: int,
    H: int,
    max_points: int | None = None,
    cache: dict | None = None,
) -> list[tuple[int, int, int]]:
    """All (y, u, v) with gcd(u, v)=1, |u| <= H, 1 <= v <= H, y != 0 integer and
    y^n = d * sum_j coeffs[j] u^j v^(M-j), M = len(coeffs) - 1. Sorted by
    (v, u, y). For even n both signs of y solve; only y > 0 is reported.

    max_points, when given, keeps the first max_points of that list (none for
    0): the whole box is sieved, and the survivors are checked in (v, u)
    order, a chunk at a time, up to the last one.
    cache: the curve's table cache, which keeps its value rows and each twist
    class's packed rows at each height (see _residue_tables and
    _two_adic_row)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    out: list[tuple[int, int, int]] = []
    if H < 1 or (max_points is not None and max_points < 1):
        return out
    # a prime dividing d or the content of F passes every pair
    passes_all = d * gcd(*coeffs)
    primes = _select_primes(n, passes_all, H)
    if cache is None:
        cache = {}
    rows = _residue_tables(coeffs, n, d, primes, H, cache)
    rows[64] = _two_adic_row(coeffs, n, d, H, cache)
    pairs = _purepy.survivors(rows, H)
    stage = None  # built at the first chunk that needs it
    staging = True
    edges = [0, *range(_FIRST_CHUNK, len(pairs), _CHUNK), len(pairs)]
    for lo, hi in zip(edges, edges[1:]):
        chunk = pairs[lo:hi]
        chunk = chunk[np.gcd(chunk[:, 0], chunk[:, 1]) == 1]
        if staging and len(chunk) > _STAGE_MIN:
            if stage is None:
                stage = _residue_stage(coeffs, n, d, _stage_primes(n, passes_all, primes))
            keep = stage(chunk[:, 0], chunk[:, 1])
            # Once a pass keeps most of its input the survivors are mostly
            # points, and the stage costs more than it saves.
            staging = 2 * np.count_nonzero(keep) <= len(chunk)
            chunk = chunk[keep]
        if not len(chunk):
            continue
        vals = form_values(coeffs, chunk[:, 0], chunk[:, 1])
        for (u, v), val in zip(chunk.tolist(), vals.tolist()):
            y = nth_root(d * val, n) if val else None
            if y:
                out.append((y, u, v))
                if len(out) == max_points:
                    return out
    return out
