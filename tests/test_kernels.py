import random
from math import comb

import numpy as np
import pytest

import tdpoly.kernels as kernels
from tdpoly.graph import Graph, cycle_graph, disjoint_union, path_graph, star_graph
from tdpoly.kernels import first_dominating_size, size_counts
from tdpoly.polynomial import IntPoly
from tdpoly.reduction import cycle_tdp, path_tdp

from helpers import naive_counts, naive_gamma, naive_tdp_filtered


def masks_of(g):
    """Open-neighborhood bitmasks with labels compressed to bit positions."""
    bit = {v: i for i, v in enumerate(g.vertices)}
    out = np.zeros(g.order, dtype=np.int64)
    for v in g.vertices:
        for w in g.neighbors(v):
            out[bit[v]] |= 1 << bit[w]
    return out


def test_counts_match_naive_reference():
    for g in (path_graph(4), cycle_graph(5), star_graph(6)):
        got = size_counts(masks_of(g))
        assert got.tolist() == naive_counts(g)


def test_kernel_matches_naive_under_random_conditions():
    rng = random.Random(11)
    for trial in range(168):
        # every order 1..14: odd orders, n = 1, where the low half is empty,
        # and n = 13, 14, where the high half is grouped by distinct key
        n = trial % 14 + 1
        p = rng.uniform(0.2, 0.9)
        g = Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        nbr = masks_of(g)
        bit = {v: i for i, v in enumerate(g.vertices)}
        low = (1 << (n // 2)) - 1
        required = rng.getrandbits(n) & rng.getrandbits(n)
        forbidden = rng.getrandbits(n) & rng.getrandbits(n) & ~required
        if trial % 4 == 0:
            # forbid a whole half
            forbidden = low if trial % 8 == 0 else ((1 << n) - 1) & ~low
            required &= ~forbidden
        atoms = [(rng.getrandbits(n), rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
        if n >= 13 and trial % 3 == 0:
            # an atom wholly in the grouped high half: a key is live only
            # when its own members meet the minimum (need <= 0)
            atoms.append((rng.getrandbits(n) & ~low | 1 << (n - 1), rng.randint(1, 3)))

        def keep(w):
            mask = sum(1 << bit[v] for v in w)
            return (
                mask & required == required
                and not mask & forbidden
                and all((mask & m).bit_count() >= k for m, k in atoms)
            )

        got = size_counts(
            nbr,
            required,
            forbidden,
            np.array([m for m, _ in atoms], dtype=np.int64),
            np.array([k for _, k in atoms], dtype=np.int64),
        )
        assert IntPoly(got.tolist()) == naive_tdp_filtered(g, keep), (trial, g, required, forbidden, atoms)
        if n <= 12:
            # the plain grouped path is checked by the frozen counts below
            gamma = naive_gamma(g)
            assert first_dominating_size(nbr) == (-1 if gamma is None else gamma)


def test_dead_high_keys_are_dropped():
    full = (1 << 6) - 1
    cover = np.array([full, full | 1 << 6, 5, 7], dtype=np.int64)
    inside_lo = [np.array([0, 1, 2])]  # the low half meets the atom at most twice
    needs = [np.array([2, 0, 3, -1])]
    # the second key carries the marker bit, the third needs 3 > 2 members
    assert kernels._live_keys(cover, needs, inside_lo, full).tolist() == [True, False, False, True]
    # P_20 with its last vertex required: the high half's sub-masks without
    # it are dead, which leaves 189 of its 441 distinct keys
    keys = np.unique(kernels._half(masks_of(path_graph(20)), 10, 20, 1 << 19, 0, [])[0])
    assert keys.size == 441
    assert kernels._live_keys(keys, [], [], (1 << 20) - 1).sum() == 189


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


def test_kernel_spans_several_blocks():
    # blocks hold distinct high-half keys, 2^16 >> (n // 2) of them: 64 at
    # n = 20 and 128 at n = 19, so both graphs below span several blocks
    p20 = masks_of(path_graph(20))
    c19 = masks_of(cycle_graph(19))
    assert distinct_high_covers(p20) > 64
    assert distinct_high_covers(c19) > 128
    assert IntPoly(size_counts(p20).tolist()) == path_tdp(20)
    assert IntPoly(size_counts(c19).tolist()) == cycle_tdp(19)
    assert first_dominating_size(p20) == path_tdp(20).min_degree()
    # at least 9 members: the path's coefficients from size 9 on
    got = size_counts(p20, atleast_masks=np.array([(1 << 20) - 1]), atleast_mins=np.array([9]))
    assert got.tolist() == [0] * 9 + list(path_tdp(20).coeffs[9:])
    # P_10 + P_10 with the second copy (the high half) required whole: x^10 D_t(P_10)
    two = masks_of(disjoint_union(path_graph(10), path_graph(10)))
    got = size_counts(two, required=((1 << 20) - 1) ^ ((1 << 10) - 1))
    assert IntPoly(got.tolist()) == path_tdp(10).shift(10)


def complete_masks(n):
    full = (1 << n) - 1
    return np.array([full ^ (1 << v) for v in range(n)], dtype=np.int64)


def complete_bipartite_masks(side_a, n):
    """K_{a,b} with side A given as a set of bit positions out of 0..n-1."""
    a_mask = sum(1 << v for v in side_a)
    b_mask = ((1 << n) - 1) ^ a_mask
    return np.array([b_mask if v in side_a else a_mask for v in range(n)], dtype=np.int64)


@pytest.mark.parametrize("n", [20, 21, 22])
def test_complete_graph_counts(n):
    # every set of at least 2 vertices totally dominates K_n; the high half
    # has only h + 2 distinct covers (empty, one vertex, two or more)
    assert size_counts(complete_masks(n)).tolist() == [0, 0] + [comb(n, i) for i in range(2, n + 1)]


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
    assert size_counts(complete_bipartite_masks(set(side_a), n)).tolist() == expected


def test_first_dominating_size_matches_naive():
    for g in (path_graph(5), cycle_graph(6), star_graph(4)):
        assert first_dominating_size(masks_of(g)) == naive_gamma(g)


def test_first_dominating_size_none():
    # two isolated vertices: no neighborhood ever covers them
    assert first_dominating_size(np.zeros(2, dtype=np.int64)) == -1


def test_empty_graph_counts():
    got = size_counts(np.zeros(0, dtype=np.int64))
    assert got.tolist() == [1]
    assert first_dominating_size(np.zeros(0, dtype=np.int64)) == -1


def test_kernel_bit_limit():
    with pytest.raises(ValueError):
        size_counts(np.zeros(kernels.MAX_KERNEL_BITS + 1, dtype=np.int64))


def test_mismatched_condition_arrays_rejected():
    with pytest.raises(ValueError):
        size_counts(
            masks_of(path_graph(3)),
            atleast_masks=np.array([1], dtype=np.int64),
            atleast_mins=np.array([1, 1], dtype=np.int64),
        )


def test_required_and_forbidden_filters():
    g = path_graph(4)
    nbr = masks_of(g)
    # force vertex 3 into every counted set: {1,2,3} and {0,1,2,3} remain
    got = size_counts(nbr, required=(1 << 3))
    assert got.tolist() == [0, 0, 0, 1, 1]
    # forbid vertex 0: {1,2} and {1,2,3} remain
    assert size_counts(nbr, forbidden=1).tolist() == [0, 0, 1, 1, 0]
    # a required bit past the last vertex is in no subset
    assert size_counts(nbr, required=(1 << 4)).tolist() == [0, 0, 0, 0, 0]
