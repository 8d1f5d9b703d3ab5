"""Brute-force ground truth for total domination counting.

A set W totally dominates G when every live vertex (members of W included)
has at least one neighbor inside W. The plain and conditioned polynomial
builders enumerate the subsets through the kernels module and therefore
refuse graphs beyond the 26-bit budget rather than degrade. Conditions
(``Member``, ``IntersectEmpty``, ``IntersectNonempty``) are compiled here into
the kernel's two inputs, candidate masks and a cover target; the kernel
itself knows only covers.

Convention: the empty graph gets the zero polynomial here. The "empty graph
counts as 1" reading exists only inside the reduction engine's indicator
factor, mirroring how the two conventions are used on the two sides of the
reduction identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernels
from .errors import BudgetError
from .graph import Graph
from .polynomial import IntPoly, ensure_valid_tdp

MAX_ENUM_ORDER = 26


@dataclass(frozen=True)
class Member:
    """Atom: vertex v must belong to W."""

    v: int


@dataclass(frozen=True)
class IntersectEmpty:
    """Atom: W must avoid every vertex of the set."""

    vs: frozenset[int]

    def __init__(self, vs: Iterable[int]):
        object.__setattr__(self, "vs", frozenset(vs))


@dataclass(frozen=True)
class IntersectNonempty:
    """Atom: W must meet the set in at least one vertex."""

    vs: frozenset[int]

    def __init__(self, vs: Iterable[int]):
        object.__setattr__(self, "vs", frozenset(vs))


Atom = Member | IntersectEmpty | IntersectNonempty


@dataclass(frozen=True)
class Condition:
    """Conjunction of membership atoms on the candidate set W.

    The empty conjunction is always true, i.e. the plain polynomial.
    """

    atoms: tuple[Atom, ...] = ()

    @classmethod
    def member(cls, v: int) -> "Condition":
        return cls((Member(v),))

    @classmethod
    def intersect_empty(cls, vs: Iterable[int]) -> "Condition":
        return cls((IntersectEmpty(vs),))

    @classmethod
    def intersect_nonempty(cls, vs: Iterable[int]) -> "Condition":
        return cls((IntersectNonempty(vs),))

    def __and__(self, other: "Condition") -> "Condition":
        return Condition(self.atoms + other.atoms)


ALWAYS = Condition()


def _check_budget(g: Graph) -> None:
    if g.order > MAX_ENUM_ORDER:
        raise BudgetError(
            f"brute-force enumeration capped at {MAX_ENUM_ORDER} vertices, graph has {g.order}"
        )


def brute_force_tdp(g: Graph) -> IntPoly:
    """Exact total domination polynomial by full subset enumeration.

    Zero polynomial for the empty graph and for any graph with an isolated
    vertex (no set can dominate it).
    """
    return brute_force_tdp_conditioned(g, ALWAYS)


def brute_force_tdp_conditioned(g: Graph, cond: Condition) -> IntPoly:
    """Generating function of totally dominating sets satisfying the condition.

    The condition becomes candidate masks and a cover target for
    ``kernels.size_counts``, with live labels compressed to bits 0..n-1:

    - a required vertex is in every counted set, so it leaves the candidates,
      its neighbourhood leaves the target and the counts shift up by |R|;
    - a forbidden vertex leaves the candidates but stays in the target;
    - each distinct nonempty-atom set is a virtual vertex, bit n + j of the
      target, adjacent to the atom's vertices, so only a set that meets the
      atom dominates it;
    - a vertex both required and forbidden leaves nothing to count.
    """
    _check_budget(g)
    if g.order == 0:
        return IntPoly.zero()
    bit = {v: i for i, v in enumerate(g.vertices)}

    def bits_of(vs: Iterable[int]) -> int:
        m = 0
        for v in vs:
            if v not in bit:
                raise ValueError(f"condition references vertex {v}, not live in the graph")
            m |= 1 << bit[v]
        return m

    required = forbidden = 0
    virtual: dict[int, None] = {}  # distinct nonempty-atom sets, in order
    for atom in cond.atoms:
        if isinstance(atom, Member):
            required |= bits_of((atom.v,))
        elif isinstance(atom, IntersectEmpty):
            forbidden |= bits_of(atom.vs)
        else:
            virtual[bits_of(atom.vs)] = None
    if required & forbidden:
        return IntPoly.zero()
    n = g.order
    target = (1 << (n + len(virtual))) - 1
    candidates = []
    for v, i in bit.items():
        m = bits_of(g.neighbors(v))
        for j, atom in enumerate(virtual):
            m |= (atom >> i & 1) << (n + j)
        if required >> i & 1:
            target &= ~m
        elif not forbidden >> i & 1:
            candidates.append(m)
    counts = kernels.size_counts(np.array(candidates, dtype=np.int64), target)
    return ensure_valid_tdp(IntPoly(counts.tolist()).shift(required.bit_count()), n)


def gamma_t(g: Graph) -> int | None:
    """Minimum totally dominating set size; None when no such set exists."""
    return brute_force_tdp(g).min_degree()


def tdp_by_components(g: Graph) -> IntPoly:
    """Brute-force polynomial assembled as the product over components.

    Matches brute_force_tdp on the whole graph but keeps each enumeration at
    component size; the empty graph still maps to the zero polynomial.
    """
    if g.order == 0:
        return IntPoly.zero()
    out = IntPoly.one()
    for comp in g.components():
        out = out * brute_force_tdp(comp)
        if not out:
            return out
    return out
