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
(JACM 1974): a subset is a low half (its first n//2 masks) joined to a high
half. Whether a high sub-mask completes a low one depends only on its cover,
and wide high halves have far fewer distinct covers than sub-masks (38-653
of 512-2048 on random connected graphs with n = 18-22). So the high half's
covers are built by doubling in an int64 array,
cover[2^j:2^(j+1)] = cover[:2^j] | m_j, and grouped with ``np.unique``, a
weight table counts the high sub-masks of each size behind each cover, and
each distinct cover is paired once.

The pairing is bit-sliced set intersection. The low half is one bitset per
target bit, over the low sub-masks grouped by size with each size starting
on a 64-bit word; the bitset of bit b is the OR of the fixed membership
bitsets of the low masks that have b. A high cover is completed by the low
sub-masks that cover every target bit it misses, the AND of those bits'
bitsets. The ANDs are looked up four target bits at a time, in one 16-entry
table per four bits (the Four-Russians method of Arlazarov, Dinic, Kronrod
and Faradzev, 1970), so a cover costs (target bits)/4 ANDs per 64 low
sub-masks. Popcounts summed per size give each cover's hits by low size,
and one small int64 product per block of covers folds them into a
(high size, low size) table. No float or BLAS product is involved.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# int64 masks and targets, well past the oracle's 26-bit enumeration cap plus
# one target bit per must-meet set.
MAX_KERNEL_BITS = 62

# Calls with at most this many masks test every subset at once. The split
# costs about 0.1 ms per call before any pairing; at 16 masks it beats the
# whole table on dense graphs, at 15 on none tried.
_WHOLE_MAX = 15

# Bitset words per block of high covers (128 KiB), so that a call's
# temporaries stay under a megabyte up to the oracle's n = 26 cap.
_BLOCK = 1 << 14


def _covers(masks: np.ndarray) -> np.ndarray:
    """Cover of each sub-mask of ``masks``: entry s is the OR of m_j over the bits j of s."""
    cover = np.zeros(1 << masks.size, dtype=np.int64)
    for j, m in enumerate(masks.tolist()):
        cover[1 << j : 2 << j] = cover[: 1 << j] | m
    return cover


@lru_cache(maxsize=None)
def _layout(k: int):
    """Bitset layout of the 2^k sub-masks of k bits, grouped by size.

    Returns the first word of each size, and one bitset per bit j that is set
    at the sub-masks containing j, plus one set at every sub-mask (row k).
    The arrays are shared by every call, so they are read-only.
    """
    sizes = np.bitwise_count(np.arange(1 << k))
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
    for a in (starts, member):
        a.flags.writeable = False
    return starts, member


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
    nbr = np.asarray(neighbor_masks, dtype=np.int64)
    # renumber the target bits 0..t-1, so four consecutive bits make a nibble
    kept = np.flatnonzero([target >> b & 1 for b in range(target.bit_length())])
    t = kept.size
    masks = (((nbr[:, None] >> kept) & 1) << np.arange(t)).sum(axis=1)
    split = n // 2
    chunks = max(1, -(-t // 4))
    # lo[b] marks the low sub-masks whose cover has bit b
    starts, member = _layout(split)
    words = member.shape[1]
    has = (masks[:split] >> np.arange(4 * chunks)[:, None]) & 1 == 1
    lo = np.bitwise_or.reduce(np.where(has[:, :, None], member[:-1], 0), axis=1)
    # lookup[c, v] is the AND of the bitsets of the bits of nibble v in chunk c
    lookup = np.empty((chunks, 16, words), dtype=np.uint64)
    lookup[:, 0] = member[-1]
    lo = lo.reshape(chunks, 4, words)
    for j in range(4):
        np.bitwise_and(lookup[:, : 1 << j], lo[:, j, None], out=lookup[:, 1 << j : 2 << j])
    lookup = lookup.reshape(chunks * 16, words)
    # pair each distinct high cover once; weight[k, i] counts the high
    # sub-masks of size i whose cover is keys[k]
    cover_hi = _covers(masks[split:])
    keys, key_of = np.unique(cover_hi, return_inverse=True)
    width = n - split + 1  # high sizes 0..n-split
    size_hi = np.bitwise_count(np.arange(cover_hi.size))
    weight = np.bincount(key_of * width + size_hi, minlength=keys.size * width).reshape(-1, width)
    missing = ((1 << t) - 1) ^ keys
    chunk = np.arange(chunks)[:, None]
    table = np.zeros((width, split + 1), dtype=np.int64)
    step = max(1, _BLOCK // words)
    for s in range(0, keys.size, step):
        b = slice(s, s + step)
        # rows[c] picks each cover's entry of chunk c: its missing bits there
        rows = (missing[b] >> 4 * chunk) & 15 | 16 * chunk
        hit = lookup[rows[0]]
        for r in rows[1:]:
            hit &= lookup[r]
        per_size = np.add.reduceat(np.bitwise_count(hit), starts, axis=1, dtype=np.int64)
        table += weight[b].T @ per_size
    counts = np.zeros(n + 1, dtype=np.int64)
    np.add.at(counts, np.arange(width)[:, None] + np.arange(split + 1), table)
    return counts
