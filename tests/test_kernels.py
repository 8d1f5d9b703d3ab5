import random
import tracemalloc
from math import comb

import numpy as np
import pytest

import tdpoly.kernels as kernels
from tdpoly.graph import Graph, cycle_graph, disjoint_union, path_graph, star_graph
from tdpoly.kernels import size_counts
from tdpoly.oracle import brute_force_tdp
from tdpoly.polynomial import IntPoly
from tdpoly.reduction import cycle_tdp, path_tdp, tree_tdp

from helpers import holds_for, naive_counts, naive_size_counts, naive_tdp_filtered, random_tree


def masks_of(g):
    """Open-neighborhood bitmasks with labels compressed to bit positions."""
    bit = {v: i for i, v in enumerate(g.vertices)}
    out = np.zeros(g.order, dtype=np.int64)
    for v in g.vertices:
        for w in g.neighbors(v):
            out[bit[v]] |= 1 << bit[w]
    return out


def full(n):
    return (1 << n) - 1


def test_counts_match_naive_reference():
    for g in (path_graph(4), cycle_graph(5), star_graph(6)):
        got = size_counts(masks_of(g), full(g.order))
        assert got.tolist() == naive_counts(g)


def random_condition(rng, labels, removable):
    """Required, forbidden and must-meet vertex sets on the labels.

    At most ``removable`` labels are required or forbidden, so the rest stay
    candidates for the kernel.
    """
    picked = rng.sample(labels, rng.randint(0, min(removable, len(labels))))
    cut = rng.randint(0, len(picked))
    meets = [rng.sample(labels, rng.randint(1, min(4, len(labels)))) for _ in range(rng.randint(0, 3))]
    return picked[:cut], picked[cut:], meets


def test_kernel_matches_naive_under_random_conditions():
    # conditions compile into candidate masks and a cover target; the
    # reference enumerates every subset and filters by the condition itself
    rng = random.Random(11)
    for trial in range(140):
        # every order 1..14, with conditions that keep at least 13
        # candidates at n = 13, 14; conditioned calls wide enough to split
        # are in test_kernel_matches_naive_masks and
        # test_kernel_spans_several_blocks
        n = trial % 14 + 1
        labels = sorted(rng.sample(range(3 * n + 5), n))  # gapped labels
        p = rng.uniform(0.2, 0.9)
        edges = [(labels[a], labels[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        g = Graph(labels, edges)
        required, forbidden, meets = random_condition(rng, labels, n - 13 if n >= 13 else n)
        if trial % 5 == 1:
            # a must-meet set over a required and a forbidden vertex, or an empty one
            meets.append(required[:1] + forbidden[:1])
        if trial % 7 == 3:
            # one vertex both required and forbidden: nothing counts
            v = rng.choice(labels)
            required, forbidden = required + [v], forbidden + [v]
        cond = {"required": required, "forbidden": forbidden, "meets": meets}
        got = brute_force_tdp(g, **cond)
        assert got == naive_tdp_filtered(g, lambda w: holds_for(w, **cond)), (trial, g, cond)


def test_uncovered_target_bit_counts_nothing():
    # bit 4 is in the target and in no mask: no subset covers it
    nbr = masks_of(path_graph(4))
    assert size_counts(nbr, full(4)).tolist() == [0, 0, 1, 2, 1]
    assert size_counts(nbr, full(5)).tolist() == [0] * 5
    # a split call (n = 16) as well
    assert size_counts(masks_of(path_graph(16)), full(17)).tolist() == [0] * 17


def distinct_high_covers(nbr):
    """How many distinct covers the high half's sub-masks have (plain Python)."""
    n = len(nbr)
    high = [int(m) for m in nbr[n // 2 :]]
    covers = set()
    for sub in range(1 << len(high)):
        cover = 0
        for i, m in enumerate(high):
            if sub >> i & 1:
                cover |= m
        covers.add(cover)
    return len(covers)


def covers_per_block(n):
    """How many distinct high covers one block pairs: the block's words over
    the low half's bitset words, one word or more per sub-mask size."""
    low = n // 2
    return kernels._BLOCK // sum(-(-comb(low, s) // 64) for s in range(low + 1))


@pytest.mark.parametrize(
    "n, block",
    [
        (7, None),
        (8, None),
        (kernels._WHOLE_MAX, None),
        (kernels._WHOLE_MAX + 1, None),
        (kernels._WHOLE_MAX + 1, 16),
    ],
    ids=["int-table", "array-table", "whole-table", "split", "split-2-covers-per-block"],
)
def test_kernel_matches_naive_masks(monkeypatch, n, block):
    # whole-table calls of 7 and 8 masks (the ids name the tables that once
    # took them), the widest whole-table call and the narrowest split one,
    # against plain enumeration: masks over n vertex bits plus 1-5 virtual
    # bits, targets with holes, so the target's bit count is rarely a
    # multiple of 4. A 16-word block pairs 2 high covers at a time.
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK", block)
    rng = random.Random(n * 100 + (block or 0))
    for virtual in range(1, 6):
        width = n + virtual
        masks = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(n)]
        for b in range(width):  # every bit in some mask, so some subset covers
            if not any(m >> b & 1 for m in masks):
                masks[rng.randrange(n)] |= 1 << b
        target = full(width)
        for b in rng.sample(range(width), rng.randint(1, 3)):
            target &= ~(1 << b)
        expected = naive_size_counts(masks, target)
        assert sum(expected) > 0, (virtual, masks, target)
        assert size_counts(np.array(masks, dtype=np.int64), target).tolist() == expected, (virtual, masks, target)
        if block is not None:
            assert distinct_high_covers([m & target for m in masks]) > covers_per_block(n)


@pytest.mark.parametrize("n", list(range(10)) + [kernels._WHOLE_MAX - 1, kernels._WHOLE_MAX, kernels._WHOLE_MAX + 1])
def test_kernel_matches_naive_at_every_regime(n):
    # 0-9 masks and the widest whole tables, then the narrowest split; masks
    # as a list and as an int64 array, with bits outside the target, repeated
    # masks, the empty target and a target bit in no mask
    rng = random.Random(n)
    width = n + 2
    for trial in range(4 if n < 10 else 1):
        masks = [rng.getrandbits(width) | rng.getrandbits(width) for _ in range(n)]
        if n >= 2:
            masks[-1] = masks[0]
        hole = full(width) & ~(1 << rng.randrange(width))
        for target in (0, full(width), hole, rng.getrandbits(width), full(width + 1)):
            expected = naive_size_counts(masks, target)
            for given in (masks, np.array(masks, dtype=np.int64)):
                got = size_counts(given, target)
                assert got.dtype == np.int64 and got.tolist() == expected, (masks, target)


def test_kernel_spans_several_blocks():
    # a block pairs 2^14 bitset words' worth of distinct high covers: 409 at
    # n = 22 and 23, so both graphs below span several blocks
    p22 = masks_of(path_graph(22))
    c23 = masks_of(cycle_graph(23))
    assert distinct_high_covers(p22) > covers_per_block(22)
    assert distinct_high_covers(c23) > covers_per_block(23)
    assert IntPoly(size_counts(p22, full(22)).tolist()) == path_tdp(22)
    assert IntPoly(size_counts(c23, full(23)).tolist()) == cycle_tdp(23)
    # a must-meet set of the whole path is target bit 22, set in every
    # mask: every totally dominating set meets it
    got = size_counts(p22 | 1 << 22, full(23))
    assert IntPoly(got.tolist()) == path_tdp(22)
    # P_15 + P_11 with the P_11 required whole: its bits leave the target,
    # 15 candidates remain, and the count is x^11 D_t(P_15)
    two = disjoint_union(path_graph(15), path_graph(11))
    assert brute_force_tdp(two, required=range(15, 26)) == path_tdp(15).shift(11)


def test_sparse_n26_call_memory():
    # blocks bound a call's temporaries; a random tree has many distinct
    # high covers, 1152 here, about ten blocks at n = 26
    nbr = masks_of(random_tree(26, 3))
    expected = tree_tdp(random_tree(26, 3))
    size_counts(nbr, full(26))  # builds the cached layout outside the trace
    tracemalloc.start()
    try:
        got = size_counts(nbr, full(26))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert IntPoly(got.tolist()) == expected
    assert peak <= 1.5 * 2**20


def complete_masks(n):
    return np.array([full(n) ^ (1 << v) for v in range(n)], dtype=np.int64)


def complete_bipartite_masks(side_a, n):
    """K_{a,b} with side A given as a set of bit positions out of 0..n-1."""
    a_mask = sum(1 << v for v in side_a)
    b_mask = full(n) ^ a_mask
    return np.array([b_mask if v in side_a else a_mask for v in range(n)], dtype=np.int64)


@pytest.mark.parametrize("n", [20, 21, 22])
def test_complete_graph_counts(n):
    # every set of at least 2 vertices totally dominates K_n; the high half
    # has only h + 2 distinct covers (empty, one vertex, two or more)
    assert size_counts(complete_masks(n), full(n)).tolist() == [0, 0] + [comb(n, i) for i in range(2, n + 1)]


@pytest.mark.parametrize("atom", [range(7), range(0, 21, 3), range(15, 21)])
def test_complete_graph_with_nonempty_atom(atom):
    # K_21 with target bit 21 set in the masks of the atom's vertices: the
    # sets of at least 2 vertices that meet the atom
    n, s = 21, len(atom)
    virtual = np.array([(v in atom) << n for v in range(n)], dtype=np.int64)
    got = size_counts(complete_masks(n) | virtual, full(n + 1))
    assert got.tolist() == [0, 0] + [comb(n, i) - comb(n - s, i) for i in range(2, n + 1)]


@pytest.mark.parametrize(
    "side_a, n",
    [
        (range(10), 20),  # the sides are the two halves
        (range(0, 21, 2), 21),  # the sides interleave across both halves
        (range(7), 22),
        (range(3, 11), 22),
    ],
)
def test_complete_bipartite_counts(side_a, n):
    # W totally dominates K_{a,b} iff it meets both sides
    a = len(side_a)
    b = n - a
    expected = [0] + [comb(n, i) - comb(a, i) - comb(b, i) for i in range(1, n + 1)]
    assert size_counts(complete_bipartite_masks(set(side_a), n), full(n)).tolist() == expected


def test_empty_graph_counts():
    # the empty subset covers the empty target, and nothing else
    assert size_counts(np.zeros(0, dtype=np.int64), 0).tolist() == [1]
    assert size_counts(np.zeros(0, dtype=np.int64), 1).tolist() == [0]
    # every subset covers the empty target, on both sides of the split
    for n in (kernels._WHOLE_MAX, kernels._WHOLE_MAX + 2):
        assert size_counts(masks_of(path_graph(n)), 0).tolist() == [comb(n, i) for i in range(n + 1)]


def test_kernel_bit_limit():
    with pytest.raises(ValueError):
        size_counts(np.zeros(kernels.MAX_KERNEL_BITS + 1, dtype=np.int64), 0)
    with pytest.raises(ValueError):
        size_counts(np.zeros(2, dtype=np.int64), 1 << kernels.MAX_KERNEL_BITS)


def test_required_and_forbidden_filters():
    g = path_graph(4)
    # force vertex 3 into every counted set: {1,2,3} and {0,1,2,3} remain
    assert brute_force_tdp(g, required=[3]).coeffs == (0, 0, 0, 1, 1)
    # forbid vertex 0: {1,2} and {1,2,3} remain
    assert brute_force_tdp(g, forbidden=[0]).coeffs == (0, 0, 1, 1)
