"""Census experiments: polynomial counting, quadratic-field enumeration,
twist-density series, S3 survey proportions, local-global ratios.

Counts are exact integers throughout; ratios are published as exact
[lower, upper] envelope pairs with height-bounded unknowns tracked
separately, never folded into either side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, log, sqrt

import numpy as np

from . import kernels
from .covers import QuadraticCover, s3_survey_predicates
from .intutil import (
    _nfree_array,
    is_nfree,
    nfree_table,
    primes_up_to,
    quad_disc,
)
from .poly import IntPolynomial, _squarefree_parts
from .twists import (
    INSOLUBLE,
    SOLUBLE,
    UNKNOWN,
    SuperellipticCurve,
    _certifying_primes,
    everywhere_locally_soluble,
)

__all__ = [
    "DensitySeries",
    "count_poly_sets",
    "quad_field_census",
    "twist_density_series",
    "fit_log_exponent",
    "LogFit",
    "s3_survey",
    "SurveyResult",
    "local_global_ratio_series",
]


def _check_grid(grid) -> None:
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")


@dataclass(frozen=True)
class DensitySeries:
    """Counts over an increasing grid: numerator, denominator, and unknowns
    from height-bounded searches (kept apart from both sides)."""

    grid: tuple[int, ...]
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    unknown: tuple[int, ...]

    def __post_init__(self):
        k = len(self.grid)
        if not (len(self.numerator) == len(self.denominator) == len(self.unknown) == k):
            raise ValueError("field lengths differ")
        _check_grid(self.grid)
        for n, d, u in zip(self.numerator, self.denominator, self.unknown):
            if n < 0 or u < 0 or n + u > d:
                raise ValueError("need 0 <= numerator + unknown <= denominator")

    def lower(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(n, d) if d else Fraction(0)
            for n, d in zip(self.numerator, self.denominator)
        )

    def upper(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(n + u, d) if d else Fraction(0)
            for n, u, d in zip(self.numerator, self.unknown, self.denominator)
        )

    def csv_rows(self) -> list[tuple]:
        return [
            (x, float(lo), float(hi), u)
            for x, lo, hi, u in zip(self.grid, self.lower(), self.upper(), self.unknown)
        ]


# ---------------------------------------------------------------------------
# Polynomial counting


def _mult_lt(P: IntPolynomial, n: int) -> bool:
    """Every root of P has multiplicity < n: the multiplicities of the
    squarefree parts are those of the irreducible factors."""
    return all(m < n for _, m in _squarefree_parts(P)[1])


def _count_quadratics_fast(H: int, forms: bool = False) -> tuple[int, int]:
    """Vectorized counts over |a|, |b|, |c| <= H of a T^2 + b T + c with
    b^2 - 4ac != 0, and the squarefree-content subset. With forms, a = 0 is
    allowed: the same discriminant condition decides squarefreeness of the
    binary form a T^2 + b T Z + c Z^2 (a = b = 0 gives c Z^2, disc 0)."""
    r = np.arange(-H, H + 1, dtype=np.int64)
    a = (r if forms else r[r != 0])[:, None, None]
    b = r[None, :, None]
    c = r[None, None, :]
    sep = b * b - 4 * a * c != 0
    total = int(sep.sum())
    g = np.gcd(np.gcd(np.abs(a), np.abs(b)), np.abs(c))
    total2 = int((sep & nfree_table(H, 2)[g]).sum())
    return total, total2


def _count_P_P2(n: int, N: int, H: int) -> tuple[int, int]:
    """(|P|, |P2|) of count_poly_sets for one degree N >= 1."""
    if n == 2 and N == 2:
        return _count_quadratics_fast(H)
    if N == 1:
        # linear polynomials are separable; count the n-free-content pairs
        r = np.arange(-H, H + 1, dtype=np.int64)
        c1 = r[r != 0][:, None]
        c0 = r[None, :]
        g = np.gcd(np.abs(c1), np.abs(c0))
        return g.size, int(nfree_table(H, n)[g].sum())
    cP = cP2 = 0
    for coeffs in product(range(-H, H + 1), repeat=N + 1):
        if coeffs[-1] == 0:
            continue
        if not _mult_lt(IntPolynomial(coeffs), n):
            continue
        cP += 1
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        if is_nfree(g, n):
            cP2 += 1
    return cP, cP2


def count_poly_sets(n: int, N: int, H: int) -> dict:
    """Exact exhaustive counts over coefficient boxes |a_i| <= H.

    P: degree exactly N, every irreducible factor of multiplicity < n.
    P2: the subset with n-free content.
    E_forms (n = 2 only): separable binary degree-N forms with squarefree
    content, counted directly; equals P2(2,N,H) + P2(2,N-1,H) since a form is
    either prime to Z or has Z exactly once.
    """
    if n < 2 or N < 1 or H < 1:
        raise ValueError("need n >= 2, N >= 1, H >= 1")
    cP, cP2 = _count_P_P2(n, N, H)
    out = {"P": cP, "P2": cP2}
    if n == 2:
        out["P2_lower"] = _count_P_P2(2, N - 1, H)[1] if N >= 2 else 0
        out["E_forms"] = _count_forms(N, H)
    return out


def _count_forms(N: int, H: int) -> int:
    """Binary degree-N forms, |coeffs| <= H, squarefree as forms (no repeated
    factor, Z at most once) with squarefree content."""
    if N == 2:
        return _count_quadratics_fast(H, forms=True)[1]
    c = 0
    for coeffs in product(range(-H, H + 1), repeat=N + 1):
        if all(x == 0 for x in coeffs):
            continue
        # strip Z powers: coeffs[j] multiplies T^j Z^(N-j), low T first
        hi = max(j for j, x in enumerate(coeffs) if x != 0)
        if hi < N - 1:
            continue  # Z^2 divides the form
        P = IntPolynomial(coeffs[: hi + 1])
        if P.degree >= 1 and not _mult_lt(P, 2):
            continue
        g = 0
        for x in coeffs:
            g = gcd(g, x)
        if is_nfree(g, 2):
            c += 1
    return c


# ---------------------------------------------------------------------------
# Quadratic fields


def _fields(x: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (|dF|, d) over every squarefree d != 1 whose field Q(sqrt d) has
    a discriminant dF with |dF| <= x, ascending by |dF| (negative d first on
    ties)."""
    d = _nfree_array(2, x)
    adF = np.abs(quad_disc(d))
    d, adF = d[adF <= x], adF[adF <= x]
    order = np.lexsort((d, adF))
    return adF[order], d[order]


def quad_field_census(x: int) -> list[int]:
    """Fundamental discriminants with absolute value <= x, ascending by
    absolute value (negative first on ties)."""
    adF, d = _fields(x)
    return (np.sign(d) * adF).tolist()


# ---------------------------------------------------------------------------
# Twist-density series


# Pairs per block of v rows in the census sieve: bounds the arrays at a few MB.
_BLOCK_PAIRS = 1 << 18
# (prime, value) cells per divisibility pass of _small_cores: 256 KB of int64
# remainders. Passes of 1 MB measured faster on 80k values that never retire,
# but raised the peak memory of a census by about 1 MB.
_SIEVE_CELLS = 1 << 15
# Values a row must hold before _block_hits tests it by division, not remainder.
_LONG_ROW = 1 << 12


def _is_square(c: np.ndarray) -> np.ndarray:
    """Elementwise: c (>= 0) is a perfect square."""
    if c.dtype == object:
        return np.array([isqrt(k) ** 2 == k for k in c.tolist()], dtype=bool)
    # c = k^2 < 2^62 rounds to a float within half an ulp of k after the
    # (correctly rounded) root, so the root is exactly k
    r = np.sqrt(c.astype(np.float64)).astype(np.int64)
    return r * r == c


def _settle(c: np.ndarray, core: np.ndarray, p: int, x: int) -> np.ndarray:
    """Squarefree parts core * sqf(c) of retired values, where every prime
    factor of the cofactor c is >= p: core for a square c, core * c for a
    prime c <= x (c < p^2 and not 1 means c is prime). Every other c has a
    squarefree part >= p, which the caller retired because it puts |m| above x.
    Floats like core, exact up to x."""
    square = _is_square(c)
    prime = ~square & (c < p * p) & (c <= x)
    return np.concatenate([core[square], core[prime] * c[prime].astype(np.float64)])


def _block_hits(c: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, ...]:
    """(k, j, c[j] // block[k]) over the cells where block[k] divides c[j],
    ordered by k, then j. Along a row of _LONG_ROW or more int64 values,
    numpy divides by the row's prime without a hardware division, so
    q * p == c tests a cell in about 2 ns against 4 ns for a remainder; on
    shorter rows a division costs as much as a remainder, and the remainder
    test is 5 ns a cell against 7 (numpy 2.4, one Xeon core). Big-integer
    values take one remainder a cell."""
    b = block[:, None]
    if c.dtype == object or c.size < _LONG_ROW:
        rows, cols = np.divmod(np.flatnonzero(c % b == 0), c.size)
        return rows, cols, c[cols] // block[rows]
    q = c // b
    flat = np.flatnonzero(q * b == c)
    return *np.divmod(flat, c.size), q.ravel()[flat]


def _small_cores(vals: np.ndarray, primes: list[int], x: int) -> np.ndarray:
    """Squarefree parts m of the nonzero values, those with |m| <= x, found
    without factorising. The primes up to x (primes lists them) are divided
    out a block at a time, keeping the parity of each exponent in core. One
    divisibility pass (_block_hits) finds a block's (prime, value) hits, and
    each value takes all its divisors from the block in one step. Blocks
    start at one prime and double, capped at _SIEVE_CELLS cells over the
    active values, so values that retire early cost few passes. A value
    retires at the start of a block, with p its first prime, when its
    cofactor is below p^2 (so 1 or a prime) or |core| * p > x."""
    nz = vals != 0
    c = np.abs(vals[nz])
    # a float core is exact up to 2^53 > x and never wraps past x
    core = np.where(vals[nz] < 0, -1.0, 1.0)
    ps = np.array(primes, dtype=c.dtype)  # Python ints against big-integer values
    out = []
    i = 0
    width = 1
    while i < len(primes) and c.size:
        p = primes[i]
        # every prime factor of c is >= p; if c is not a square, |m| >= |core| * p
        done = (c < p * p) | (np.abs(core) * p > x)
        if done.any():
            out.append(_settle(c[done], core[done], p, x))
            c, core = c[~done], core[~done]
        w = max(1, min(width, _SIEVE_CELLS // max(c.size, 1)))
        block = ps[i : i + w]
        i += w
        width = 2 * w
        rows, cols, ch = _block_hits(c, block)
        if not cols.size:
            continue
        pr = block[rows]
        # ch is a hit's value over its prime p, pk the power of p taken out of it
        odd = np.ones(cols.size, dtype=bool)
        pk = pr.copy()
        sub = np.flatnonzero(ch % pr == 0)
        while sub.size:
            ch[sub] //= pr[sub]
            pk[sub] *= pr[sub]
            odd[sub] ^= True
            sub = sub[ch[sub] % pr[sub] == 0]
        # a value hit by several primes of the block takes every divisor
        np.floor_divide.at(c, cols, pk)
        np.multiply.at(core, cols[odd], pr[odd].astype(np.float64))
    # every prime factor left is > x: only a square cofactor keeps |m| <= x
    out.append(_settle(c, core, x + 1, x))
    m = np.concatenate(out)
    return m[np.abs(m) <= x].astype(np.int64)


def _found_twists(cover: QuadraticCover, H: int, x: int, primes: list[int]) -> set[int]:
    """Squarefree parts m != 1 of the cover's values F(u, v) over coprime pairs
    with |u| <= H and 0 <= v <= H (v = 0 is the fiber above infinity, which
    has a nonzero value only for even degree), clipped to twists whose field
    discriminant has absolute value <= x; primes lists the primes up to x.

    F is the cover's even-degree model (QuadraticCover._even_model). No value
    is factorised: a sieve over the primes up to x, in blocks of primes,
    decides every m with |m| <= x exactly (see _small_cores)."""
    if H < 1:
        raise ValueError("need H >= 1")
    cs = list(cover._even_model.coeffs)
    width = 2 * H + 1
    rows = max(1, _BLOCK_PAIRS // width)
    found: set[int] = set()
    for v0 in range(0, H + 1, rows):
        v, u = np.meshgrid(
            np.arange(v0, min(v0 + rows, H + 1), dtype=np.int64),
            np.arange(-H, H + 1, dtype=np.int64),
            indexing="ij",
        )
        coprime = np.gcd(u, v) == 1
        m = _small_cores(kernels.form_values(cs, u[coprime], v[coprime]), primes, x)
        found.update(m[(m != 1) & (np.abs(quad_disc(m)) <= x)].tolist())
    return found


def _absence_certifier(cover: QuadraticCover, x: int, primes: list[int]):
    """Cheap certificate of emptiness for twists by 0 < |d| <= x: some odd
    p | d among the certifying primes of the valuation argument
    (twists._certifying_primes over primes, the primes up to x; none for odd
    degree). Their multiples up to x are marked in one table. A rational
    root a/b of P has b | lc, so it is a root mod every p prime to lc and
    the table stays empty. p = 2 is sound but left out, which keeps the
    pinned density digests: it would certify more twists. Returns
    certifies(d), which reads the table at |d| for an int d or elementwise
    for an array of them."""
    cert = np.zeros(x + 1, dtype=bool)
    for p in _certifying_primes(cover.P, 2, primes):
        if p != 2:
            cert[p::p] = True

    def certifies(d):
        k = np.abs(d)
        if not np.all((0 < k) & (k <= x)):
            raise ValueError(f"need 0 < |d| <= {x}")
        return cert[k]

    return certifies


def _census(cover: QuadraticCover, H: int, x: int, local: bool):
    """The census over the fields of _fields(x), as arrays (|dF|, global,
    local). global is SOLUBLE where d is found at height H (_found_twists),
    INSOLUBLE where certified absent, else UNKNOWN. With local, the local
    column is the everywhere_locally_soluble verdict of the twist by each d,
    and a locally insoluble d is globally insoluble too; without, it is
    None."""
    adF, d = _fields(x)
    primes = primes_up_to(x)
    found = np.isin(d, np.fromiter(_found_twists(cover, H, x, primes), dtype=np.int64))
    insoluble = _absence_certifier(cover, x, primes)(d)
    loc = None
    if local:
        base = SuperellipticCurve(2, cover.P)
        loc = np.array([everywhere_locally_soluble(base.twist(k))[0] for k in d.tolist()])
        insoluble |= loc == INSOLUBLE
    glob = np.where(found, SOLUBLE, np.where(insoluble, INSOLUBLE, UNKNOWN))
    return adF, glob, loc


_NO_SERIES = DensitySeries((), (), (), ())


def _series(grid: list[int], adF: np.ndarray, status: np.ndarray) -> DensitySeries:
    """The census column status (its fields ascending by |dF|) counted up to
    each x in grid: fields, SOLUBLE and UNKNOWN entries."""
    den = np.searchsorted(adF, grid, side="right")

    def upto(mask):
        return tuple(np.concatenate([[0], np.cumsum(mask)])[den].tolist())

    return DensitySeries(
        tuple(grid), upto(status == SOLUBLE), tuple(den.tolist()), upto(status == UNKNOWN)
    )


def twist_density_series(
    cover: QuadraticCover,
    grid: list[int],
    schedule: list[int] | None = None,
) -> DensitySeries:
    """Proportion of quadratic fields of discriminant up to x arising as
    specializations of the cover. A field Q(sqrt m) is found when m is the
    squarefree part of a value F(u, v) at a coprime pair of height
    max(schedule) (default 256; the smaller heights are not used), decided by
    the small-prime sieve of _found_twists; certified absent by the
    rootless-prime valuation argument; unknown otherwise."""
    _check_grid(grid)
    if schedule is not None and not schedule:
        raise ValueError("schedule must name at least one height")
    if not grid:
        return _NO_SERIES
    H = 256 if schedule is None else max(schedule)
    adF, glob, _ = _census(cover, H, max(grid), False)
    return _series(grid, adF, glob)


# ---------------------------------------------------------------------------
# Log-power fit


@dataclass(frozen=True)
class LogFit:
    alpha: float
    intercept: float
    residual: float  # RMS of log-ratio residuals


def fit_log_exponent(series: DensitySeries) -> LogFit:
    """Least-squares slope of log(ratio) against log(log x), with the upper
    envelope as the ratio: the model ratio ~ C * log(x)^-alpha. A fit, not a
    proof of the asymptotic."""
    ratios = series.upper()
    if len(series.grid) < 4:
        raise ValueError("need at least 4 grid points")
    if any(r <= 0 for r in ratios):
        raise ValueError("ratios must be positive to fit")
    if any(x <= 1 for x in series.grid):
        raise ValueError("grid values must exceed 1")
    xs = np.array([log(log(x)) for x in series.grid])
    ys = np.array([log(float(r)) for r in ratios])
    A = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ np.array([slope, intercept])
    return LogFit(float(-slope), float(intercept), float(sqrt(float(np.mean(resid**2)))))


# ---------------------------------------------------------------------------
# S3 survey


@dataclass(frozen=True)
class SurveyResult:
    total: int
    exhaustive: bool
    counts: dict
    proportions: dict  # flag -> (proportion, 95% binomial radius)


_S3_FLAGS = (
    "separable",
    "galois_S3",
    "delta_irreducible",
    "leading_form_ok",
    "infinity_unbranched",
    "branch_conjugate",
    "regular",
    "all",
)


def s3_survey(D: int, H: int, sample_size: int = 10**4, seed: int = 0) -> SurveyResult:
    """Proportions of the survey flags over monic cubic covers whose
    coefficients have degree <= D and coefficient height <= H.

    Exhaustive when the space is no larger than sample_size; else uniform
    sampling, reproducible per index from (seed, index)."""
    if D < 0 or H < 1:
        raise ValueError("need D >= 0 and H >= 1")
    if sample_size < 1:
        raise ValueError("need sample_size >= 1")
    width = 2 * H + 1
    space = width ** (3 * (D + 1))
    exhaustive = space <= sample_size
    counts = {f: 0 for f in _S3_FLAGS}

    def tally(coeff_ints: list[int]):
        a2, a1, a0 = (
            IntPolynomial(coeff_ints[i * (D + 1) : (i + 1) * (D + 1)] or [0])
            for i in range(3)
        )
        pred = s3_survey_predicates(a2, a1, a0)
        for f in _S3_FLAGS:
            counts[f] += getattr(pred, "all_conditions" if f == "all" else f)

    if exhaustive:
        total = 0
        for tup in product(range(-H, H + 1), repeat=3 * (D + 1)):
            total += 1
            tally(list(tup))
    else:
        total = sample_size
        for i in range(sample_size):
            rng = random.Random(f"{seed},{i}")
            tally([rng.randint(-H, H) for _ in range(3 * (D + 1))])
    props = {}
    for f in _S3_FLAGS:
        p = counts[f] / total
        props[f] = (p, 1.96 * sqrt(max(p * (1 - p), 1e-12) / total))
    return SurveyResult(total, exhaustive, counts, props)


# ---------------------------------------------------------------------------
# Local-global ratio series


def local_global_ratio_series(
    cover: QuadraticCover,
    grid: list[int],
    H: int,
) -> tuple[DensitySeries, DensitySeries]:
    """Counts of twists with a global point (height-bounded trichotomy) and
    of everywhere-locally-soluble twists, over the same field grid.

    Returns (global series, local series); every local verdict is exact, so
    only the global series has unknowns, from the height bound."""
    _check_grid(grid)
    if not grid:
        return _NO_SERIES, _NO_SERIES
    adF, glob, loc = _census(cover, H, max(grid), True)
    return _series(grid, adF, glob), _series(grid, adF, loc)
