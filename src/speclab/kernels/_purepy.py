"""The residue sieve, bit-packed: one bit per u in a uint64 word (ratpoints).

For each prime p the p rows of allowed u over [-H, H], one per v mod p, are
packed into words by _packed_rows; the caller builds them (and may keep
them). A table of q rows is read at row v % q, whatever its key. A table of
one column holds one word per row: a word spans 64 consecutive u, so the
2-adic table (64 rows, one per v mod 64) is the same in every word of a row,
and the AND broadcasts it; a table of H + 1 rows is read at row v itself.
The sieve visits only the v whose word is nonzero in every one-column table,
since a zero word empties the whole row: a block of such v rows gathers each
table's row and ANDs them; only the nonzero words of the result are
unpacked.
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
    """Pairs (u, v) with |u| <= H, 1 <= v <= H whose bit is set in row v % q
    of every table of q rows in rows (packed by _packed_rows at this H, or
    one word per row), as an int64 array of shape (k, 2) sorted by v then u.
    With no rows every pair survives. Only the v whose word is nonzero in
    every one-column table are visited; with none, every v is."""
    if H < 1:
        return np.empty((0, 2), dtype=np.int64)
    nwords = (2 * H + 64) // 64
    tail = np.uint64((1 << (2 * H + 1 - 64 * (nwords - 1))) - 1)  # bits up to u = H
    step = max(1, _BLOCK_BYTES // (8 * nwords))
    live = np.arange(1, H + 1, dtype=np.int64)
    for table in rows.values():
        if table.shape[1] == 1:  # a zero word zeroes its whole row
            live = live[table[live % len(table), 0] != 0]
    out = []
    for lo in range(0, live.size, step):
        v = live[lo : lo + step]
        acc = np.full((v.size, nwords), ~np.uint64(0), dtype="<u8")
        acc[:, -1] = tail
        for table in rows.values():
            acc &= table[v % len(table)]
        vi, wi = np.nonzero(acc)
        if not vi.size:
            continue
        bits = np.unpackbits(acc[vi, wi].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        k, b = np.nonzero(bits)
        out.append(np.stack([64 * wi[k] + b - H, v[vi[k]]], axis=1))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out)
