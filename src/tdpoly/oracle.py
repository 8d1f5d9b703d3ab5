"""Brute-force ground truth for total domination counting.

A set W totally dominates G when every live vertex (members of W included)
has at least one neighbor inside W. ``brute_force_tdp`` enumerates the
subsets through the kernels module and therefore refuses graphs beyond the
26-bit budget rather than degrade. Its optional conditions are vertex sets
(required, forbidden and must-meet), compiled here into the kernel's two
inputs, candidate masks and a cover target; the kernel itself knows only
covers.

Convention: the empty graph gets the zero polynomial here. The "empty graph
counts as 1" reading exists only inside the reduction engine's indicator
factor, mirroring how the two conventions are used on the two sides of the
reduction identities.
"""

from __future__ import annotations

from typing import Iterable

from . import kernels
from .errors import BudgetError
from .graph import Graph
from .polynomial import IntPoly, ensure_valid_tdp

MAX_ENUM_ORDER = 26


def _check_budget(g: Graph) -> None:
    if g.order > MAX_ENUM_ORDER:
        raise BudgetError(
            f"brute-force enumeration capped at {MAX_ENUM_ORDER} vertices, graph has {g.order}"
        )


def _mask(bit: dict[int, int], vs: Iterable[int]) -> int:
    """OR of the bits of the labels in ``vs``; a label that is not live raises ValueError."""
    m = 0
    for v in vs:
        b = bit.get(v)
        if b is None:
            raise ValueError(f"condition references vertex {v}, not live in the graph")
        m |= b
    return m


def brute_force_tdp(
    g: Graph,
    *,
    required: Iterable[int] = (),
    forbidden: Iterable[int] = (),
    meets: Iterable[Iterable[int]] = (),
) -> IntPoly:
    """Generating function, by size, of the totally dominating sets W of g
    that contain every required vertex, avoid every forbidden one and meet
    every set in ``meets``.

    With no conditions this is D_t(g): zero for the empty graph and for any
    graph with an isolated vertex (no set can dominate it). The conditions
    become candidate masks and a cover target for ``kernels.size_counts``,
    with live labels numbered 0..n-1 in adjacency order (counts by size do
    not depend on the numbering):

    - a required vertex is in every counted set, so it leaves the candidates,
      its neighbourhood leaves the target and the counts shift up by |R|;
    - a forbidden vertex leaves the candidates but stays in the target;
    - each distinct must-meet set is a virtual vertex, bit n + j of the
      target, adjacent to the set's vertices, so only a W that meets the set
      dominates it (an empty set is met by no W);
    - a vertex both required and forbidden leaves nothing to count.

    When some target bit is in no candidate mask (an isolated vertex, an
    empty must-meet set, a vertex whose neighbours are all forbidden), no set
    counts and the zero polynomial returns without enumerating; an isolated
    vertex is seen before any mask is built. A condition on a label that is
    not live raises ``ValueError``, also on a graph that gives zero.
    """
    _check_budget(g)
    adj = g._adj  # neighbours of a live vertex are live: no label checks
    if not adj:
        return IntPoly.zero()
    bit = {v: 1 << i for i, v in enumerate(adj)}
    req = _mask(bit, required) if required else 0
    forb = _mask(bit, forbidden) if forbidden else 0
    virtual = dict.fromkeys(_mask(bit, vs) for vs in meets) if meets else ()  # distinct sets, in order
    if req & forb or not all(adj.values()):
        return IntPoly.zero()
    n = len(adj)
    target = (1 << (n + len(virtual))) - 1
    candidates = []
    reach = 0  # the target bits some candidate covers
    for v, b in bit.items():
        m = 0
        for w in adj[v]:
            m |= bit[w]
        if virtual:
            for j, vs in enumerate(virtual):
                if vs & b:
                    m |= 1 << (n + j)
        if req & b:
            target &= ~m
        elif not forb & b:
            candidates.append(m)
            reach |= m
    if reach & target != target:
        return IntPoly.zero()
    counts = kernels.size_counts(candidates, target)
    return ensure_valid_tdp(IntPoly._of([0] * req.bit_count() + counts.tolist()), n)


def gamma_t(g: Graph) -> int | None:
    """Minimum totally dominating set size; None when no such set exists."""
    return brute_force_tdp(g).min_degree()

