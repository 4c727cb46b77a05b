"""The residue sieve, bit-packed: one bit per u in a uint64 word (ratpoints).

For each prime p the p rows of allowed u over [-H, H], one per v mod p, are
packed into words, once per call unless the caller passes rows packed
before. A block of v rows gathers each prime's row v % p and ANDs them; only
the nonzero words of the result are unpacked.
"""

from __future__ import annotations

import numpy as np

# Bound on the bytes of one temporary: a chunk of unpacked bits while packing,
# and the AND accumulator of a block of v rows.
_BLOCK_BYTES = 1 << 18


def _packed_rows(ok: np.ndarray, H: int, nwords: int) -> np.ndarray:
    """ok[v % p][u % p] packed over u = -H .. H: shape (p, nwords), bit b of
    word w is u = -H + 64w + b; bits past u = H are 0."""
    p = ok.shape[0]
    # Word w + p starts at u + 64p, the same residue as word w: pack one period.
    period = min(p, nwords)
    nbits = 64 * period
    start = (-H) % p
    words = np.empty((p, period), dtype="<u8")
    word_bytes = words.view(np.uint8)
    step = max(1, _BLOCK_BYTES // (nbits + p))
    for r in range(0, p, step):
        # Tiled rows are contiguous, which packbits handles far faster than a gather.
        tiled = np.tile(ok[r : r + step], (1, (start + nbits) // p + 1))
        word_bytes[r : r + step] = np.packbits(tiled[:, start : start + nbits], axis=1, bitorder="little")
    rows = words if period == nwords else words[:, np.arange(nwords) % period]
    rows[:, -1] &= np.uint64((1 << (2 * H + 1 - 64 * (nwords - 1))) - 1)
    return rows


def survivors(tables: dict[int, np.ndarray], H: int, packed: dict | None = None) -> np.ndarray:
    """Pairs (u, v) with |u| <= H, 1 <= v <= H passing every residue table, as
    an int64 array of shape (k, 2) sorted by v then u. tables[p] is boolean
    with [v % p][u % p] indexing.

    packed, when given, holds the packed rows of tables[p] at this H under p:
    rows found there are used as they are, and rows packed here are added."""
    if H < 1:
        return np.empty((0, 2), dtype=np.int64)
    nwords = (2 * H + 64) // 64  # ceil((2H + 1) / 64)
    if packed is None:
        packed = {}
    for p, ok in tables.items():
        if p not in packed:
            packed[p] = _packed_rows(ok, H, nwords)
    rows = [(p, packed[p]) for p in tables]
    step = max(1, _BLOCK_BYTES // (8 * nwords))
    out = []
    for v0 in range(1, H + 1, step):
        v = np.arange(v0, min(v0 + step, H + 1), dtype=np.int64)
        acc = np.full((v.size, nwords), ~np.uint64(0), dtype="<u8")
        for p, packed in rows:
            acc &= packed[v % p]
        vi, wi = np.nonzero(acc)
        if not vi.size:
            continue
        bits = np.unpackbits(acc[vi, wi].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        k, b = np.nonzero(bits)
        out.append(np.stack([64 * wi[k] + b - H, v[vi[k]]], axis=1))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out)
