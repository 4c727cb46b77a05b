"""The residue sieve, bit-packed: one bit per u in a uint64 word (ratpoints).

For each prime p the p rows of allowed u over [-H, H], one per v mod p, are
packed into words by _packed_rows; the caller builds them (and may keep
them). The rows may also hold a (64, 1) table under 64, one word per v mod
64: a word spans 64 consecutive u, so that word is the same in every word
of the row, and the AND broadcasts it. The sieve visits only the v whose
2-adic word is nonzero, since a zero word empties the whole row: a block of
such v rows gathers each table's row v % p and ANDs them; only the nonzero
words of the result are unpacked.
"""

from __future__ import annotations

import numpy as np

# Bound on the bytes of one temporary: a chunk of unpacked bits while packing,
# and the AND accumulator of a block of v rows.
_BLOCK_BYTES = 1 << 18


def _packed_rows(ok: np.ndarray, H: int) -> np.ndarray:
    """ok[v % p][u % p] packed over u = -H .. H: shape (p, ceil((2H + 1) / 64)),
    bit b of word w is u = -H + 64w + b. Bits past u = H continue the period;
    survivors clears them."""
    p = ok.shape[0]
    nwords = (2 * H + 64) // 64
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
    return words if period == nwords else words[:, np.arange(nwords) % period]


def survivors(rows: dict[int, np.ndarray], H: int) -> np.ndarray:
    """Pairs (u, v) with |u| <= H, 1 <= v <= H whose bit is set in row v % p
    of every rows[p] (rows packed by _packed_rows at this H, or a (p, 1)
    table of one word per row for p = 64), as an int64 array of shape (k, 2)
    sorted by v then u. With no rows every pair survives. Only the v whose
    word in rows[64] is nonzero are visited; without rows[64], every v is."""
    if H < 1:
        return np.empty((0, 2), dtype=np.int64)
    nwords = (2 * H + 64) // 64
    tail = np.uint64((1 << (2 * H + 1 - 64 * (nwords - 1))) - 1)  # bits up to u = H
    step = max(1, _BLOCK_BYTES // (8 * nwords))
    live = np.arange(1, H + 1, dtype=np.int64)
    if 64 in rows:  # a zero word of the 2-adic table zeroes its whole row
        live = live[rows[64][live % 64, 0] != 0]
    out = []
    for lo in range(0, live.size, step):
        v = live[lo : lo + step]
        acc = np.full((v.size, nwords), ~np.uint64(0), dtype="<u8")
        acc[:, -1] = tail
        for p, packed in rows.items():
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
