"""Hot subset-enumeration kernel.

``size_counts`` does one thing: given bitmasks m_0..m_{n-1} and a target
mask, it counts, by size, the subsets of the masks whose OR covers every bit
of the target. For a plain graph the masks are the open neighbourhoods and
the target is every vertex bit, so the counts are the coefficients of the
total domination polynomial. Conditions never reach this module: the oracle
compiles them into fewer masks and a different target. Counts fit int64
comfortably inside the 26-bit enumeration budget.

The kernel is a meet-in-the-middle split in the style of Horowitz-Sahni
(JACM 1974). A subset is a low half (its first n//2 masks) joined to a high
half. Each half's sub-masks get their cover (the OR of their members'
masks, restricted to the target) in one table of 2^(n/2) entries. Blocks of
high sub-masks are then tested against the whole low table at once,
``(cover_lo | cover_hi) == target``, about 2^16 pairs per block, so the 2^n
pairs are never held in memory. Low sub-masks are kept in ascending size, so
one ``reduceat`` tallies each block's hits per (high size, low size) pair.

Whether a high sub-mask completes a low one depends only on its cover. Wide
high halves have far fewer distinct covers than sub-masks (38-653 of
512-2048 on random connected graphs with n = 18-22), so from 2^7 high
sub-masks on (n >= 13) each distinct cover is paired once. A weight table
counts the sub-masks of each high size behind each cover, and one small
integer product per block folds the cover's hits into a (high size, low
size) table. Narrower calls cost mostly numpy call overhead, which grouping
would raise by about half, so they pair every sub-mask.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# int64 masks and targets, well past the oracle's 26-bit enumeration cap plus
# one target bit per condition atom.
MAX_KERNEL_BITS = 62

# (cover_lo | cover_hi) pairs compared per block; keeps each block's
# temporaries near half a megabyte.
_BLOCK = 1 << 16

# High halves with at least this many sub-masks (n >= 13) are grouped by
# cover before pairing; below it grouping would add about 17 us (+45 %) per
# call.
_GROUP_MIN = 1 << 7


@lru_cache(maxsize=None)
def _half_table(k: int):
    """Bit matrix and sizes of the 2^k sub-masks of k bits in ascending size.

    Also returns where each size starts in that order. The arrays are shared
    by every call, so they are read-only.
    """
    masks = np.arange(1 << k, dtype=np.int64)
    masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
    sizes = np.bitwise_count(masks)
    bits = (masks[:, None] >> np.arange(k)) & 1 == 1
    starts = np.searchsorted(sizes, np.arange(k + 1))
    for a in (bits, sizes, starts):
        a.flags.writeable = False
    return bits, sizes, starts


def _half(masks, target):
    """Covers (within ``target``), sizes and size starts of the sub-masks of ``masks``."""
    bits, sizes, starts = _half_table(masks.size)
    cover = np.bitwise_or.reduce(np.where(bits, masks & target, 0), axis=1)
    return cover, sizes, starts


def size_counts(neighbor_masks: np.ndarray, target: int) -> np.ndarray:
    """Count the subsets of the masks whose OR covers ``target``, grouped by size.

    Returns int64 counts of length len(neighbor_masks) + 1, indexed by
    subset size. Bits of the masks outside ``target`` are ignored.
    """
    nbr = np.ascontiguousarray(neighbor_masks, dtype=np.int64)
    n = nbr.shape[0]
    if n > MAX_KERNEL_BITS or target >> MAX_KERNEL_BITS:
        raise ValueError(f"kernel supports at most {MAX_KERNEL_BITS} masks and target bits")
    split = n // 2
    cover_lo, _, starts = _half(nbr[:split], target)
    cover_hi, size_hi, _ = _half(nbr[split:], target)
    sizes_lo = np.arange(split + 1)
    counts = np.zeros(n + 1, dtype=np.int64)
    grouped = cover_hi.size >= _GROUP_MIN
    if grouped:
        # pair each distinct cover once; weight[k, i] counts the high
        # sub-masks of size i whose cover is cover_hi[k]
        cover_hi, key_of = np.unique(cover_hi, return_inverse=True)
        width = n - split + 1  # high sizes 0..n-split
        weight = np.bincount(key_of * width + size_hi, minlength=cover_hi.size * width)
        weight = weight.reshape(-1, width)
        table = np.zeros((width, split + 1), dtype=np.int64)
    step = max(1, _BLOCK >> split)
    for s in range(0, cover_hi.size, step):
        b = slice(s, s + step)
        hit = (cover_lo | cover_hi[b, None]) == target
        per_size = np.add.reduceat(hit, starts, axis=1, dtype=np.int64)
        if grouped:
            table += weight[b].T @ per_size
        else:
            np.add.at(counts, size_hi[b, None] + sizes_lo, per_size)
    if grouped:
        np.add.at(counts, np.arange(width)[:, None] + sizes_lo, table)
    return counts
