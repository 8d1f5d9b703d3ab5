"""Exact computation and verification of total domination polynomials.

D_t(G, x) = sum over i of d_t(G, i) x^i, where d_t(G, i) counts the i-element
vertex sets W such that every vertex of G -- members of W included -- has a
neighbor in W. The package pairs a brute-force bitmask oracle with reduction
identities, fast recurrences for structured families, exact closed forms,
and extremal scans, so that every faster route can be checked against ground
truth.
"""

from .closedform import (
    cycle_closed_eval,
    forest_at_minus_one,
    path_at_minus_one,
    path_closed_eval,
    star_tdp,
    verify_closed_forms,
    verify_minus_one,
)
from .errors import BudgetError, GraphParseError, InternalConsistencyError
from .extremal import (
    degree2_row,
    gamma_bounds_row,
    gamma_scan_corpus,
    is_two_corona,
    minimal_tree_scan,
    scan_degree2,
    scan_gamma_bounds,
    scan_tree_bound,
    verify_basic_identities,
)
from .graph import (
    Graph,
    classify_vertices,
    cycle_graph,
    disjoint_union,
    fixed_small_corpus,
    is_cycle_shaped,
    is_path_shaped,
    is_star_shaped,
    parse_edge_list,
    path_graph,
    random_connected_corpus,
    random_connected_graph,
    random_forest,
    star_graph,
    to_edge_list,
    two_corona,
)
from .oracle import brute_force_tdp, gamma_t
from .polynomial import IntPoly, ensure_valid_tdp
from .reduction import (
    cycle_tdp,
    edge_reduction_rhs,
    indicator_tdp,
    path_tdp,
    tree_tdp,
    verify_conditioned_path_recurrence,
    verify_edge_reduction,
    verify_recurrences,
    verify_vertex_reduction,
    vertex_reduction_rhs,
)
from .reports import ScanReport, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Graph",
    "GraphParseError",
    "IntPoly",
    "InternalConsistencyError",
    "ScanReport",
    "VerificationReport",
    "brute_force_tdp",
    "classify_vertices",
    "cycle_closed_eval",
    "cycle_graph",
    "cycle_tdp",
    "degree2_row",
    "disjoint_union",
    "edge_reduction_rhs",
    "ensure_valid_tdp",
    "fixed_small_corpus",
    "forest_at_minus_one",
    "gamma_bounds_row",
    "gamma_scan_corpus",
    "gamma_t",
    "indicator_tdp",
    "is_cycle_shaped",
    "is_path_shaped",
    "is_star_shaped",
    "is_two_corona",
    "minimal_tree_scan",
    "parse_edge_list",
    "path_at_minus_one",
    "path_closed_eval",
    "path_graph",
    "path_tdp",
    "random_connected_corpus",
    "random_connected_graph",
    "random_forest",
    "scan_degree2",
    "scan_gamma_bounds",
    "scan_tree_bound",
    "star_graph",
    "star_tdp",
    "to_edge_list",
    "tree_tdp",
    "two_corona",
    "verify_basic_identities",
    "verify_closed_forms",
    "verify_conditioned_path_recurrence",
    "verify_edge_reduction",
    "verify_minus_one",
    "verify_recurrences",
    "verify_vertex_reduction",
    "vertex_reduction_rhs",
]
