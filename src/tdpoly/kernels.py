"""Hot subset-enumeration kernel.

``size_counts`` does one thing: given bitmasks m_0..m_{n-1} and a target
mask, it counts, by size, the subsets of the masks whose OR covers every bit
of the target. For a plain graph the masks are the open neighbourhoods and
the target is every vertex bit, so the counts are the coefficients of the
total domination polynomial. Conditions never reach this module: the oracle
compiles them into fewer masks and a different target. Counts fit int64
comfortably inside the 26-bit enumeration budget.

Calls with at most 15 masks test every subset at once in Python ints, with
no numpy call until the counts are returned. Subset s of the n masks is bit
s of a 2^n-bit int; ``member[j]`` is set at the subsets holding m_j and
``by_size[i]`` at those of i masks. The subsets whose cover (the OR of their
members' masks) has target bit b are the OR of ``member[j]`` over the m_j
that have b, and the count of size i is the popcount of ``by_size[i]`` AND
those ORs over the target bits. Most calls are this small.

Wider calls are split meet-in-the-middle, in the style of Horowitz-Sahni
(JACM 1974): a subset of n masks is a low half (its first s masks) joined
to a high half (the other n - s), with s = max(n//2, min(n - 6, 12)). The
balance is set by per-call time measured cold, after a pure-Python loop
that evicts the kernel's working set: a wider low half has longer bitsets
(below), a wider high half more covers to double and sort. Median us per
cold call on random connected graphs, s = n//2 (the balanced split)
against this s (2 cores, Python 3.11, numpy 2.4; README has every s):

    n      16   17   18   19   20   21   22   23   24   25   26
    n//2  130  150  160  177  205  303  373  500  658 1016 1390
    s     112  118  130  147  176  254  330  434  658 1016 1390

The masks are ANDed with the target once and keep their bit positions; a
position outside the target is then in no mask and never missing, so the
split does not renumber the target bits. Whether a high sub-mask completes
a low one depends only on its cover, and high halves have fewer distinct
covers than sub-masks (17-415 of 64-1024 on random connected graphs with
n = 18-22). So the high half's covers are built by doubling in an int64
array, cover[2^j:2^(j+1)] = cover[:2^j] | m_j, and grouped by one sort:
equal covers form a run, and a run starts where the cover changes. A
weight table counts the high sub-masks of each size behind each cover,
and each distinct cover is paired once.

The pairing is bit-sliced set intersection. The low half is one bitset per
bit position, over the low sub-masks grouped by size with each size
starting on a 64-bit word; the bitset of bit b marks the low sub-masks
that meet b's pattern, the set of low masks that have b. Meeting the union
of two sets means meeting one of them, so the bitset is looked up in two
cached tables per low width k, one over the patterns of the first
r = ceil(k/2) low masks and one over those of the rest: table[p & (2^r - 1)]
OR table'[p >> r]. They take 73 KiB at k = 12 and 207 KiB at k = 13, where
one table over all 2^k patterns would take 8.6 MiB. A high cover is completed
by the low sub-masks that cover every target bit it misses (target XOR
cover), the AND of those bits' bitsets. The ANDs are looked up four bit
positions at a time, in one 16-entry table per four positions (the
Four-Russians method of Arlazarov, Dinic, Kronrod and Faradzev, 1970), so a
cover costs (target.bit_length())/4 ANDs per 64 low sub-masks. Popcounts
summed per size give each cover's hits by low size, and one small int64
product per block of covers folds them into a (high size, low size) table;
a cached 0/1 anti-diagonal matrix folds that onto subset sizes. No float or
BLAS product is involved.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# int64 masks and targets, well past the oracle's 26-bit enumeration cap plus
# one target bit per must-meet set.
MAX_KERNEL_BITS = 62

# Calls with at most this many masks test every subset at once. A cold split
# call of 14 masks takes about 90-100 us, nearly all of it before any
# pairing; at 15 masks the whole table still wins on random trees and sparse
# graphs, as the suites' calls of that size are, and at 16 the split wins at
# every density (see README). A cutoff on masks x target bits would only move
# calls of 16 masks with at most 4 target bits, by about 10 %.
_WHOLE_MAX = 15

# Bitset words per block of high covers (128 KiB), so that a call's
# temporaries stay under a megabyte up to the oracle's n = 26 cap.
_BLOCK = 1 << 14


def _covers(masks: np.ndarray) -> np.ndarray:
    """Cover of each sub-mask of ``masks``: entry s is the OR of m_j over the bits j of s."""
    cover = np.zeros(1 << masks.size, dtype=np.int64)
    for j, m in enumerate(masks.tolist()):
        np.bitwise_or(cover[: 1 << j], m, out=cover[1 << j : 2 << j])
    return cover


@lru_cache(maxsize=None)
def _sizes(k: int) -> np.ndarray:
    """Size of each of the 2^k sub-masks of k bits (read-only, shared)."""
    sizes = np.bitwise_count(np.arange(1 << k))
    sizes.flags.writeable = False
    return sizes


@lru_cache(maxsize=None)
def _fold(high: int, low: int) -> np.ndarray:
    """0/1 matrix that folds a flattened (high size, low size) table onto
    sizes: row i*low + j has its one at column i + j (read-only, shared)."""
    rows = np.arange(high * low)
    fold = np.zeros((high * low, high + low - 1), dtype=np.int64)
    fold[rows, rows // low + rows % low] = 1
    fold.flags.writeable = False
    return fold


@lru_cache(maxsize=None)
def _layout(k: int):
    """Bitset layout of the 2^k sub-masks of k bits, grouped by size.

    Returns the first word of each size, the bitset set at every sub-mask,
    and the two pattern tables: row q of the first is set at the sub-masks
    that hold one of the bits j of q, for j < r = ceil(k/2), and row q of the
    second at those that hold one of the bits r + j. The arrays are shared
    by every call, so they are read-only.
    """
    sizes = _sizes(k)
    per_size = np.bincount(sizes, minlength=k + 1)
    words = -(-per_size // 64)
    starts = np.cumsum(words) - words
    # sub-masks in ascending size, each size padded to whole words with -1
    placed = np.full(words.sum() * 64, -1)
    for s in range(k + 1):
        at = starts[s] * 64
        placed[at : at + per_size[s]] = np.flatnonzero(sizes == s)
    member = (placed >> np.arange(k)[:, None]) & 1 == 1
    member = np.vstack([member & (placed >= 0), placed >= 0])
    member = np.packbits(member, axis=1, bitorder="little").view("<u8")
    r = -(-k // 2)
    tables = []
    for rows in (member[:r], member[r:k]):
        table = np.zeros((1 << len(rows), member.shape[1]), dtype=np.uint64)
        for j, row in enumerate(rows):
            np.bitwise_or(table[: 1 << j], row, out=table[1 << j : 2 << j])
        tables.append(table)
    every = member[k].copy()
    for a in (starts, every, *tables):
        a.flags.writeable = False
    return starts, every, *tables


@lru_cache(maxsize=None)
def _shape(split: int, chunks: int):
    """Shift and index arrays of a split call (read-only, shared): the bit
    positions 0..4*chunks-1 as a column, the weights 2^j of the low masks,
    and each chunk's shift and first lookup row, as columns."""
    chunk = np.arange(chunks)[:, None]
    arrays = (np.arange(4 * chunks)[:, None], 1 << np.arange(split), 4 * chunk, 16 * chunk)
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _slices(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``member`` and ``by_size`` (see above) for k masks, built by doubling."""
    member: list[int] = []
    by_size = [1]
    for j in range(k):
        w = 1 << j
        member = [m | m << w for m in member] + [((1 << w) - 1) << w]
        by_size = [lo | hi << w for lo, hi in zip(by_size + [0], [0] + by_size)]
    return tuple(member), tuple(by_size)


def size_counts(neighbor_masks: Sequence[int], target: int) -> np.ndarray:
    """Count the subsets of the masks whose OR covers ``target``, grouped by size.

    ``neighbor_masks`` is any sequence of int masks (a list or an int64
    array). Returns int64 counts of length len(neighbor_masks) + 1, indexed
    by subset size. Bits of the masks outside ``target`` are ignored.
    """
    n = len(neighbor_masks)
    if n > MAX_KERNEL_BITS or target >> MAX_KERNEL_BITS:
        raise ValueError(f"kernel supports at most {MAX_KERNEL_BITS} masks and target bits")
    if n <= _WHOLE_MAX:
        member, by_size = _slices(n)
        hits = -1  # every subset; by_size bounds it
        while target and hits:
            bit = target & -target
            target ^= bit
            covered = 0
            for m, s in zip(neighbor_masks, member):
                if m & bit:
                    covered |= s
            hits &= covered
        return np.array([(hits & s).bit_count() for s in by_size], dtype=np.int64)
    # bits outside the target leave the masks; a chunk is four consecutive
    # bit positions, and a position outside the target is never missing
    masks = np.asarray(neighbor_masks, dtype=np.int64) & target
    # the low half takes up to 12 masks while the high half keeps 6 or more,
    # and half of them (rounded down) from 24 masks up
    split = max(n // 2, min(n - 6, 12))
    chunks = max(1, -(-target.bit_length() // 4))
    starts, every, first_low, last_low = _layout(split)
    bits, weights, shift, base = _shape(split, chunks)
    # pattern[b] holds bit j where low mask j has bit b; lo[b] marks the low
    # sub-masks that meet it, the union of those meeting its two parts
    pattern = ((masks[:split] >> bits) & 1) @ weights
    half = len(first_low).bit_length() - 1  # low masks in the first table
    lo = first_low[pattern & (1 << half) - 1] | last_low[pattern >> half]
    # lookup[c, v] is the AND of the bitsets of the bits of nibble v in chunk c
    words = every.size
    lookup = np.empty((chunks, 16, words), dtype=np.uint64)
    lookup[:, 0] = every
    lo = lo.reshape(chunks, 4, words)
    for j in range(4):
        np.bitwise_and(lookup[:, : 1 << j], lo[:, j, None], out=lookup[:, 1 << j : 2 << j])
    lookup = lookup.reshape(chunks * 16, words)
    # pair each distinct high cover once; weight[k, i] counts the high
    # sub-masks of size i whose cover is keys[k]. Sorting the covers puts
    # equal ones in a run, and a run starts where the cover changes.
    cover_hi = _covers(masks[split:])
    order = cover_hi.argsort()
    cover_hi = cover_hi[order]
    first = np.empty(cover_hi.size, dtype=bool)
    first[0] = True
    np.not_equal(cover_hi[1:], cover_hi[:-1], out=first[1:])
    keys = cover_hi[first]
    width = n - split + 1  # high sizes 0..n-split
    key_of = np.cumsum(first) - 1
    weight = np.bincount(key_of * width + _sizes(n - split)[order], minlength=keys.size * width).reshape(-1, width)
    missing = target ^ keys
    table = np.zeros((width, split + 1), dtype=np.int64)
    step = max(1, _BLOCK // words)
    for s in range(0, keys.size, step):
        b = slice(s, s + step)
        # rows[c] picks each cover's entry of chunk c: its missing bits there
        rows = (missing[b] >> shift) & 15 | base
        hit = lookup[rows[0]]
        for r in rows[1:]:
            hit &= lookup[r]
        per_size = np.add.reduceat(np.bitwise_count(hit), starts, axis=1, dtype=np.int64)
        table += weight[b].T @ per_size
    return table.ravel() @ _fold(width, split + 1)
