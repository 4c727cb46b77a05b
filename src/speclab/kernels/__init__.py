"""Height-bounded search for y^n = d * F(u, v) over coprime integer pairs.

The search space at height H is every pair (u, v) with |u| <= H, 1 <= v <= H.
A per-prime residue sieve (allowed residues: n-th power residues of d*F and 0)
prunes almost everything; the few survivors get an exact bigint n-th power
check. Both backends run the identical sieve; the backend is chosen once, at
import: _fastcore (Cython, packed 64-bit masks) when the compiled module
imports, else _purepy (numpy gathers).
"""

from __future__ import annotations

from math import gcd

import numpy as np

from ..intutil import nth_root

__all__ = ["search_pairs", "backend_name", "available_backends"]

try:
    from . import _fastcore as _backend

    _BACKEND = "fastcore"
except ImportError:
    from . import _purepy as _backend

    _BACKEND = "purepy"

_MAX_SIEVE_PRIMES = 14
_CANDIDATE_PRIMES = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
]


def _allowed_residues(p: int, n: int, d: int) -> np.ndarray:
    """Boolean table over F_p: residues r with d*r an n-th power residue or 0."""
    powers = {pow(x, n, p) for x in range(1, p)}
    ok = np.zeros(p, dtype=bool)
    ok[0] = True
    for r in range(1, p):
        if (d * r) % p in powers or (d * r) % p == 0:
            ok[r] = True
    return ok


def _select_primes(n: int, d: int) -> list[int]:
    scored = []
    for p in _CANDIDATE_PRIMES:
        frac = _allowed_residues(p, n, d).sum() / p
        if frac < 0.99:
            scored.append((frac, p))
    scored.sort()
    return [p for _, p in scored[:_MAX_SIEVE_PRIMES]]


def _residue_tables(coeffs: list[int], M: int, n: int, d: int, primes: list[int]):
    """ok[p] has shape (p, p): ok[p][v % p][u % p] == sieve passes."""
    tables = {}
    for p in primes:
        allowed = _allowed_residues(p, n, d)
        u = np.arange(p, dtype=np.int64)
        v = np.arange(p, dtype=np.int64)
        val = np.zeros((p, p), dtype=np.int64)  # [v, u]
        for j in range(M + 1):
            c = coeffs[j] % p
            if c:
                term = (
                    np.power(u[None, :], j, dtype=object)
                    * np.power(v[:, None], M - j, dtype=object)
                ) * c
                val = (val + np.array(term % p, dtype=np.int64)) % p
        tables[p] = allowed[val]
    return tables


def backend_name() -> str:
    return _BACKEND


def available_backends() -> list[str]:
    return ["fastcore", "purepy"] if _BACKEND == "fastcore" else ["purepy"]


def search_pairs(
    coeffs: list[int],
    M: int,
    n: int,
    d: int,
    H: int,
    max_points: int | None = None,
) -> list[tuple[int, int, int]]:
    """All (y, u, v) with gcd(u, v)=1, |u| <= H, 1 <= v <= H, y != 0 integer and
    y^n = d * sum_j coeffs[j] u^j v^(M-j). Sorted by (v, u, y). For even n both
    signs of y solve; only y > 0 is reported. max_points truncates (points of
    smallest v first)."""
    if H < 1:
        return []
    primes = _select_primes(n, d)
    out: list[tuple[int, int, int]] = []
    if primes:
        tables = _residue_tables(coeffs, M, n, d, primes)
        survivors = _backend.survivors(tables, H)
    else:
        vv, uu = np.meshgrid(
            np.arange(1, H + 1, dtype=np.int64),
            np.arange(-H, H + 1, dtype=np.int64),
            indexing="ij",
        )
        survivors = np.stack([uu.ravel(), vv.ravel()], axis=1)
    for u, v in survivors:
        u, v = int(u), int(v)
        if gcd(u, v) != 1:
            continue
        val = d * sum(coeffs[j] * u**j * v ** (M - j) for j in range(M + 1))
        if val == 0:
            continue
        y = nth_root(val, n)
        if y is not None and y != 0:
            out.append((y, u, v))
            if max_points is not None and len(out) >= max_points:
                break
    return out
