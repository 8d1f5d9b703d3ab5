"""Exact computation and verification of total domination polynomials.

D_t(G, x) = sum over i of d_t(G, i) x^i, where d_t(G, i) counts the i-element
vertex sets W such that every vertex of G -- members of W included -- has a
neighbor in W. The package pairs a brute-force bitmask oracle with reduction
identities, fast recurrences for structured families, exact closed forms,
and extremal scans, so that every faster route can be checked against ground
truth.

``import tdpoly`` gives the paper's routes: D_t itself, the vertex and edge
reduction identities, D_t of paths, cycles, stars and trees, and the closed
forms. The suites, scans, generators and helpers are imported from their
own modules.
"""

from .closedform import cycle_closed_eval, path_closed_eval, star_tdp
from .errors import BudgetError, GraphParseError, InternalConsistencyError
from .graph import Graph, parse_edge_list
from .oracle import brute_force_tdp, gamma_t
from .polynomial import IntPoly
from .reduction import cycle_tdp, edge_reduction_rhs, path_tdp, tree_tdp, vertex_reduction_rhs

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Graph",
    "GraphParseError",
    "IntPoly",
    "InternalConsistencyError",
    "brute_force_tdp",
    "cycle_closed_eval",
    "cycle_tdp",
    "edge_reduction_rhs",
    "gamma_t",
    "parse_edge_list",
    "path_closed_eval",
    "path_tdp",
    "star_tdp",
    "tree_tdp",
    "vertex_reduction_rhs",
]
