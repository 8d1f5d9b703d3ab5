"""Brute-force ground truth for total domination counting.

A set W totally dominates G when every live vertex (members of W included)
has at least one neighbor inside W. The plain and conditioned polynomial
builders enumerate all 2^n subsets through the kernels module and therefore
refuse graphs beyond the 26-bit budget rather than degrade.

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
class IntersectAtLeast:
    """Atom: W must meet the set in at least k vertices."""

    vs: frozenset[int]
    k: int

    def __init__(self, vs: Iterable[int], k: int):
        object.__setattr__(self, "vs", frozenset(vs))
        object.__setattr__(self, "k", int(k))


Atom = Member | IntersectEmpty | IntersectAtLeast


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
    def intersect_at_least(cls, vs: Iterable[int], k: int) -> "Condition":
        return cls((IntersectAtLeast(vs, k),))

    def __and__(self, other: "Condition") -> "Condition":
        return Condition(self.atoms + other.atoms)


ALWAYS = Condition()


def _bit_layout(g: Graph) -> tuple[dict[int, int], np.ndarray]:
    """Compress live labels to bit positions; return label->bit and neighbor masks."""
    bit = {v: i for i, v in enumerate(g.vertices)}
    nbr = np.zeros(g.order, dtype=np.int64)
    for v in g.vertices:
        m = 0
        for w in g.neighbors(v):
            m |= 1 << bit[w]
        nbr[bit[v]] = m
    return bit, nbr


def _check_budget(g: Graph) -> None:
    if g.order > MAX_ENUM_ORDER:
        raise BudgetError(
            f"brute-force enumeration capped at {MAX_ENUM_ORDER} vertices, graph has {g.order}"
        )


def _compile_condition(cond: Condition, bit: dict[int, int]):
    required = 0
    forbidden = 0
    al_masks: list[int] = []
    al_mins: list[int] = []

    def bits_of(vs: Iterable[int]) -> int:
        m = 0
        for v in vs:
            if v not in bit:
                raise ValueError(f"condition references vertex {v}, not live in the graph")
            m |= 1 << bit[v]
        return m

    for atom in cond.atoms:
        if isinstance(atom, Member):
            required |= bits_of((atom.v,))
        elif isinstance(atom, IntersectEmpty):
            forbidden |= bits_of(atom.vs)
        else:
            al_masks.append(bits_of(atom.vs))
            al_mins.append(atom.k)
    return (
        required,
        forbidden,
        np.array(al_masks, dtype=np.int64),
        np.array(al_mins, dtype=np.int64),
    )


def brute_force_tdp(g: Graph) -> IntPoly:
    """Exact total domination polynomial by full subset enumeration.

    Zero polynomial for the empty graph and for any graph with an isolated
    vertex (no set can dominate it).
    """
    return brute_force_tdp_conditioned(g, ALWAYS)


def brute_force_tdp_conditioned(g: Graph, cond: Condition) -> IntPoly:
    """Generating function of totally dominating sets satisfying the condition."""
    _check_budget(g)
    if g.order == 0:
        return IntPoly.zero()
    bit, nbr = _bit_layout(g)
    required, forbidden, al_masks, al_mins = _compile_condition(cond, bit)
    counts = kernels.size_counts(nbr, required, forbidden, al_masks, al_mins)
    return ensure_valid_tdp(IntPoly(counts.tolist()), g.order)


def gamma_t(g: Graph) -> int | None:
    """Minimum totally dominating set size; None when no such set exists.

    Equals min_degree(brute_force_tdp(g)): the lowest positive size with a
    nonzero count in the same subset enumeration.
    """
    _check_budget(g)
    if g.order == 0:
        return None
    _, nbr = _bit_layout(g)
    k = kernels.first_dominating_size(nbr)
    return None if k < 0 else k


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
