"""Hot subset-enumeration kernel.

Everything here counts vertex subsets of a bitmask-encoded graph: a subset W
(a mask) totally dominates iff the OR of the open-neighborhood masks of its
members covers every live bit. Counting is grouped by subset size, which is
exactly the coefficient vector of the total domination polynomial; counts
fit int64 comfortably inside the 26-bit enumeration budget.

The kernel is a meet-in-the-middle split in the style of Horowitz-Sahni
(JACM 1974). A subset is a low half (its first n//2 bits) joined to a high
half. Each half's sub-masks get their cover (the OR of their members'
neighborhoods) in one table of 2^(n/2) entries. Blocks of high sub-masks are
then tested against the whole low table at once, ``(cover_lo | cover_hi) ==
full``, about 2^16 pairs per block, so the 2^n pairs are never held in memory.
Low sub-masks are kept in ascending size, so one ``reduceat`` tallies each
block's hits per (high size, low size) pair.

Whether a high sub-mask completes a low one depends only on its key: its
cover and, per at-least condition, how many members it still needs from the
low half. Wide high halves have far fewer distinct keys than sub-masks
(38-653 of 512-2048 on random connected graphs with n = 18-22), so from 2^7
high sub-masks on (n >= 13) each distinct key is paired once. A weight table
counts the sub-masks of each high size behind each key, and one small
integer product per block folds the key's hits into a (high size, low size)
table. Keys that can never hit, with the marker bit (see ``_half``) or an
at-least need above what the low half holds, are dropped before pairing.
Narrower calls cost mostly numpy call overhead, which grouping would raise
by about half, so they pair every sub-mask.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# int64 covers hold the n vertex bits plus the marker bit n (see _half), well
# past the oracle's 26-bit enumeration cap.
MAX_KERNEL_BITS = 62

# (cover_lo | cover_hi) pairs compared per block; keeps each block's
# temporaries near half a megabyte.
_BLOCK = 1 << 16

# High halves with at least this many sub-masks (n >= 13) are grouped by key
# before pairing; below it grouping would add about 17 us (+45 %) per call.
_GROUP_MIN = 1 << 7


@lru_cache(maxsize=None)
def _half_table(k: int):
    """The 2^k sub-masks of k bits in ascending size, with their bit matrix and sizes.

    Also returns where each size starts in that order. The arrays are shared
    by every call, so they are read-only.
    """
    masks = np.arange(1 << k, dtype=np.int64)
    masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
    sizes = np.bitwise_count(masks)
    bits = (masks[:, None] >> np.arange(k)) & 1 == 1
    starts = np.searchsorted(sizes, np.arange(k + 1))
    for a in (masks, bits, sizes, starts):
        a.flags.writeable = False
    return masks, bits, sizes, starts


def _half(nbr, start, stop, required, forbidden, al_masks):
    """Covers, sizes and at-least hits of the sub-masks of bits start..stop-1.

    A sub-mask that breaks ``required`` or ``forbidden`` gets bit n set in its
    cover: bit n lies outside the full mask, so no subset containing that
    sub-mask counts.
    """
    n = nbr.shape[0]
    masks, bits, sizes, starts = _half_table(stop - start)
    masks = masks << start
    cover = np.bitwise_or.reduce(np.where(bits, nbr[start:stop], 0), axis=1)
    own = ((1 << stop) - 1) ^ ((1 << start) - 1)
    if (required | forbidden) & own:
        bad = ((masks & required) != (required & own)) | ((masks & forbidden) != 0)
        cover |= bad.astype(np.int64) << n
    return cover, sizes, starts, [np.bitwise_count(masks & m) for m in al_masks]


def _live_keys(cover_hi, needs_hi, inside_lo, full):
    """High keys without the marker bit that need no more than the low half holds."""
    live = cover_hi <= full  # the marker bit n is the only bit above full
    for inside, need in zip(inside_lo, needs_hi):
        live &= need <= inside.max()
    return live


def size_counts(
    neighbor_masks: np.ndarray,
    required: int = 0,
    forbidden: int = 0,
    atleast_masks: np.ndarray | None = None,
    atleast_mins: np.ndarray | None = None,
) -> np.ndarray:
    """Count qualifying totally dominating subsets, grouped by size.

    ``neighbor_masks[v]`` is the open-neighborhood bitmask of live vertex v
    (labels compressed to bits 0..n-1). A mask qualifies if it contains all
    ``required`` bits, avoids all ``forbidden`` bits, meets every
    (atleast_masks[j], atleast_mins[j]) intersection minimum, and its
    members' neighborhoods cover every bit. Returns int64 counts of length
    n + 1 indexed by subset size.
    """
    nbr = np.ascontiguousarray(neighbor_masks, dtype=np.int64)
    n = nbr.shape[0]
    if n > MAX_KERNEL_BITS:
        raise ValueError(f"kernel supports at most {MAX_KERNEL_BITS} bits, got {n}")
    al_masks = np.asarray([] if atleast_masks is None else atleast_masks, dtype=np.int64)
    al_mins = np.asarray([] if atleast_mins is None else atleast_mins, dtype=np.int64)
    if al_masks.shape != al_mins.shape:
        raise ValueError("atleast_masks and atleast_mins must pair up")
    if required >> n:
        # a required bit outside the graph is in no subset
        return np.zeros(n + 1, dtype=np.int64)
    full = (1 << n) - 1
    split = n // 2
    al_masks, al_mins = al_masks.tolist(), al_mins.tolist()
    cover_lo, _, starts, inside_lo = _half(nbr, 0, split, required, forbidden, al_masks)
    cover_hi, size_hi, _, inside_hi = _half(nbr, split, n, required, forbidden, al_masks)
    # members each high sub-mask leaves the low half to find, per at-least atom
    needs_hi = [k - inside.astype(np.int64) for inside, k in zip(inside_hi, al_mins)]
    sizes_lo = np.arange(split + 1)
    counts = np.zeros(n + 1, dtype=np.int64)
    grouped = cover_hi.size >= _GROUP_MIN
    if grouped:
        # pair each distinct key once; weight[k, i] counts the high sub-masks
        # of size i whose key is k
        if needs_hi:
            keys, key_of = np.unique(
                np.column_stack([cover_hi, *needs_hi]), axis=0, return_inverse=True
            )
            cover_hi, needs_hi = keys[:, 0], list(keys.T[1:])
        else:
            cover_hi, key_of = np.unique(cover_hi, return_inverse=True)
        width = n - split + 1  # high sizes 0..n-split
        weight = np.bincount(key_of * width + size_hi, minlength=cover_hi.size * width)
        weight = weight.reshape(-1, width)
        live = _live_keys(cover_hi, needs_hi, inside_lo, full)
        if not live.all():  # unconditioned calls keep every key; skip the copies
            cover_hi, weight, needs_hi = cover_hi[live], weight[live], [k[live] for k in needs_hi]
        table = np.zeros((width, split + 1), dtype=np.int64)
    step = max(1, _BLOCK >> split)
    for s in range(0, cover_hi.size, step):
        b = slice(s, s + step)
        hit = (cover_lo | cover_hi[b, None]) == full
        for inside, need in zip(inside_lo, needs_hi):
            hit &= inside >= need[b, None]
        per_size = np.add.reduceat(hit, starts, axis=1, dtype=np.int64)
        if grouped:
            table += weight[b].T @ per_size
        else:
            np.add.at(counts, size_hi[b, None] + sizes_lo, per_size)
    if grouped:
        np.add.at(counts, np.arange(width)[:, None] + sizes_lo, table)
    return counts


def first_dominating_size(neighbor_masks: np.ndarray) -> int:
    """Smallest size of a totally dominating subset, -1 if none exists.

    The lowest positive size with a nonzero count in ``size_counts``; the
    empty graph, whose only subset is empty, has none.
    """
    hits = np.flatnonzero(size_counts(neighbor_masks)[1:])
    return int(hits[0]) + 1 if hits.size else -1
