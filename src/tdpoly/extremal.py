"""Extremal scans: coefficient bounds over trees, structural coefficient
identities, and the bounds on the total domination number.

Scans are evidence collectors, not proofs. Each row carries the raw numbers
its own flags were derived from, every polynomial is recomputed with the
brute-force oracle, and summaries report what the data showed -- including
outcomes that cut against expectations.

The two tree scans count labeled trees without listing them. They run the
oracle once per unlabeled tree and weight it by n!/|Aut(T)|, the number of
labelings of T; the weights must add up to Cayley's n^(n-2). Only the
minimal-tree scan's example column walks labeled trees, in Pruefer order,
naming each one's class by its canonical form.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from math import comb, factorial
from typing import Iterable

from .closedform import star_tdp
from .errors import BudgetError, InternalConsistencyError
from .graph import (
    Graph,
    _prufer_edges,
    classify_vertices,
    fixed_small_corpus,
    is_cycle_shaped,
    is_star_shaped,
    random_connected_corpus,
    random_connected_graph,
    to_edge_list,
    two_corona,
)
from .oracle import brute_force_tdp, gamma_t, tdp_by_components
from .polynomial import IntPoly
from .reports import ScanReport, VerificationReport

# The tree scans' largest order: their example walk decodes up to n^(n-2)
# Pruefer sequences, and 9^7 is the desk-scale limit.
MAX_TREE_ENUM_ORDER = 9


# -- unlabeled trees ----------------------------------------------------------


def _centres(adj: list[list[int]]) -> list[int]:
    """The one or two vertices left after peeling leaves layer by layer."""
    degree = [len(nbrs) for nbrs in adj]
    layer = [v for v, d in enumerate(degree) if d <= 1]
    remaining = len(adj)
    while remaining > 2:
        remaining -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled
    return layer


def _rooted_form(adj: list[list[int]], v: int, parent: int) -> tuple[str, int]:
    """AHU form of the subtree at v (away from parent) and its automorphism count.

    A rooted automorphism permutes isomorphic child subtrees among
    themselves and acts inside each one, so the count is the product of the
    children's counts times m! for each child form occurring m times.
    """
    forms = []
    aut = 1
    for c in adj[v]:
        if c != parent:
            form, child_aut = _rooted_form(adj, c, v)
            forms.append(form)
            aut *= child_aut
    for m in Counter(forms).values():
        aut *= factorial(m)
    forms.sort()
    return "(" + "".join(forms) + ")", aut


def tree_signature(n: int, edges: Iterable[tuple[int, int]]) -> tuple[str, int]:
    """Canonical form of a tree on 0..n-1 and the order of its automorphism group.

    The AHU form (Aho, Hopcroft, Ullman 1974) is taken at the centre; a
    bicentral tree is rooted at its central edge, and its two halves add an
    automorphism that swaps them when they are isomorphic. Isomorphic trees,
    and only they, get equal forms.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    centres = _centres(adj)
    if len(centres) == 1:
        return _rooted_form(adj, centres[0], -1)
    a, b = centres
    form_a, aut_a = _rooted_form(adj, a, b)
    form_b, aut_b = _rooted_form(adj, b, a)
    swap = 2 if form_a == form_b else 1
    lo, hi = sorted((form_a, form_b))
    return "[" + lo + hi + "]", swap * aut_a * aut_b


def free_trees(n: int) -> list[tuple[tuple[tuple[int, int], ...], str, int]]:
    """One tree on 0..n-1 per isomorphism class: (edges, canonical form, |Aut|).

    Leaf augmentation: every tree of order k + 1 is a tree of order k plus
    one leaf, so growing each class representative at every vertex and
    keeping the first tree of each form lists every class exactly once. The
    work is about (number of classes) * n canonical forms per order; there
    are 47 classes at n = 9 and 106 at n = 10.
    """
    if n < 1:
        raise ValueError("tree order must be at least 1")
    level: dict[str, tuple[tuple[tuple[int, int], ...], int]] = {"()": ((), 1)}
    for k in range(1, n):
        grown: dict[str, tuple[tuple[tuple[int, int], ...], int]] = {}
        for edges, _ in level.values():
            for v in range(k):
                bigger = edges + ((v, k),)
                form, aut = tree_signature(k + 1, bigger)
                grown.setdefault(form, (bigger, aut))
        level = grown
    return [(edges, form, aut) for form, (edges, aut) in level.items()]


def _tree_census(suite: str, n: int) -> tuple[dict[str, IntPoly], dict[IntPoly, dict]]:
    """Oracle polynomial per tree class and labeled/star counts per polynomial.

    Each class T stands for n!/|Aut(T)| labeled trees on 0..n-1. The scans
    keep the labeled route's order cap, so the example walk stays bounded.
    """
    if n < 2:
        raise ValueError("tree scans start at order 2")
    if n > MAX_TREE_ENUM_ORDER:
        raise BudgetError(f"scan --suite {suite} is capped at n <= {MAX_TREE_ENUM_ORDER}, got n = {n}")
    poly_of: dict[str, IntPoly] = {}
    classes: dict[IntPoly, dict] = {}
    for edges, form, aut in free_trees(n):
        t = Graph._from_edges(range(n), edges)
        weight = factorial(n) // aut
        poly = poly_of[form] = brute_force_tdp(t)
        cls = classes.setdefault(poly, {"labeled_count": 0, "star_count": 0})
        cls["labeled_count"] += weight
        cls["star_count"] += weight * is_star_shaped(t)
    total = sum(cls["labeled_count"] for cls in classes.values())
    if total != n ** (n - 2):
        raise InternalConsistencyError(
            f"free trees of order {n} weigh {total} labeled trees in all, Cayley's formula gives {n ** (n - 2)}"
        )
    return poly_of, classes


def _first_examples(n: int, poly_of: dict[str, IntPoly], wanted: int) -> dict[IntPoly, str]:
    """First labeled tree in Pruefer order for each polynomial, no oracle call.

    The walk decodes each sequence to its edge list and names the class by
    its canonical form; a graph is built only for a polynomial's first
    tree. It stops once all ``wanted`` polynomials have an example. The
    path's comes last at n = 6..9, since the first labeled path is the
    sequence (0, 1, ..., n-3): the walk stops after 52 trees at n = 6, 467
    at n = 7, 5 350 at n = 8 and 74 734 at n = 9.
    """
    examples: dict[IntPoly, str] = {}
    for seq in product(range(n), repeat=n - 2):
        edges = _prufer_edges(seq, n)
        poly = poly_of[tree_signature(n, edges)[0]]
        if poly not in examples:
            examples[poly] = to_edge_list(Graph._from_edges(range(n), edges))
            if len(examples) == wanted:
                break
    return examples


def minimal_element(polys: list[IntPoly]) -> IntPoly | None:
    """The member coefficient-wise <= every other member, or None.

    One pass: such a member exists exactly when the coordinate-wise minimum
    of the family is itself a member.
    """
    if not polys:
        return None
    width = max(len(p.coeffs) for p in polys)
    low = IntPoly(min(p.coeff(i) for p in polys) for i in range(width))
    return low if low in polys else None


# -- coefficient bound over trees ---------------------------------------------


def scan_tree_bound(n: int) -> ScanReport:
    """Check every labeled tree of order n against the binomial coefficient bound.

    Rows aggregate by polynomial (the bound is a function of the polynomial
    alone). The summary also settles whether equality and the largest total
    count of dominating sets are attained by stars and nothing else.
    """
    _, classes = _tree_census("tree-bound", n)
    star_poly = star_tdp(n)

    report = ScanReport(
        "tree-bound",
        {"n": n},
        columns=("poly", "labeled_count", "star_count", "bound_holds", "equals_star_poly", "count_at_one"),
    )
    for poly in sorted(classes, key=lambda p: p.coeffs):
        cls = classes[poly]
        report.add_row(
            poly=poly,
            labeled_count=cls["labeled_count"],
            star_count=cls["star_count"],
            bound_holds=all(poly.coeff(i) <= comb(n - 1, i - 1) for i in range(2, n + 1)),
            equals_star_poly=poly == star_poly,
            count_at_one=poly.evaluate(1),
        )
    rows = report.rows
    best_count = max(row["count_at_one"] for row in rows)
    best_polys = [row["poly"] for row in rows if row["count_at_one"] == best_count]
    report.summary = {
        "n": n,
        "labeled_trees": sum(row["labeled_count"] for row in rows),
        "distinct_polys": len(rows),
        "all_bound_hold": all(row["bound_holds"] for row in rows),
        # the star polynomial's trees are all stars, and no other tree is one
        "equality_exactly_stars": all(
            row["star_count"] == (row["labeled_count"] if row["equals_star_poly"] else 0) for row in rows
        ),
        "max_count_at_one": best_count,
        "max_attained_only_by_star_poly": best_polys == [star_poly],
    }
    report.checks = ("all_bound_hold", "equality_exactly_stars", "max_attained_only_by_star_poly")
    return report


def minimal_tree_scan(n: int) -> ScanReport:
    """Order the distinct tree polynomials of order n coefficient-wise.

    A polynomial is flagged minimal when it is coefficient-wise <= every
    other distinct polynomial in the scan; at most one polynomial can carry
    the flag. The summary records whether one exists and which, leaving the
    interpretation to the reader; it has no checks, so the scan always passes.
    """
    poly_of, classes = _tree_census("minimal-tree", n)
    polys = sorted(classes, key=lambda p: p.coeffs)
    examples = _first_examples(n, poly_of, len(polys))
    minimal_poly = minimal_element(polys)

    report = ScanReport(
        "minimal-tree",
        {"n": n},
        columns=("poly", "labeled_count", "example", "is_minimal"),
    )
    for poly in polys:
        report.add_row(
            poly=poly,
            labeled_count=classes[poly]["labeled_count"],
            example=examples[poly],
            is_minimal=poly == minimal_poly,
        )
    report.summary = {
        "n": n,
        "labeled_trees": sum(cls["labeled_count"] for cls in classes.values()),
        "distinct_polys": len(polys),
        "minimal_exists": minimal_poly is not None,
        "minimal_poly": minimal_poly,
    }
    return report


# -- structural coefficient identities ----------------------------------------


def supporting_identity(g: Graph) -> bool:
    """d_t(G, n-1) = n - (number of supporting vertices), isolated-free G.

    Dropping one vertex a keeps total domination unless some vertex's whole
    neighborhood was {a}; that happens exactly when a supports a pendant.
    """
    cls = classify_vertices(g)
    if cls.isolated or g.order == 0:
        raise ValueError("identity requires a graph without isolated vertices")
    n = g.order
    return brute_force_tdp(g).coeff(n - 1) == n - len(cls.supporting)


def _non_supporting_pairs(g: Graph, supporting: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """Pairs {a, b} that are exactly some vertex's neighborhood, neither in `supporting`."""
    pairs = set()
    for v in g.vertices:
        nb = g.neighbors(v)
        if len(nb) == 2 and not (nb & supporting):
            pairs.add(tuple(sorted(nb)))
    return tuple(sorted(pairs))


def degree2_row(g: Graph) -> dict:
    """Facts about d_t(G, n-2) for one isolated-free graph.

    The count of degree-2 vertices is bounded below by
    C(n,2) - C(r,2) - r(n-r) - d_t(G, n-2) with r supporting vertices,
    and the slack is exactly the pair set reported alongside.
    """
    cls = classify_vertices(g)
    if cls.isolated or g.order < 2:
        raise ValueError("expected an isolated-free graph with at least 2 vertices")
    n = g.order
    r = len(cls.supporting)
    d = brute_force_tdp(g).coeff(n - 2)
    pairs = _non_supporting_pairs(g, cls.supporting)
    bound = comb(n, 2) - comb(r, 2) - r * (n - r) - d
    deg2_count = len(cls.degree2)
    return {
        "graph": to_edge_list(g),
        "n": n,
        "supporting_count": r,
        "coeff_n_minus_2": d,
        "bound": bound,
        "degree2_count": deg2_count,
        "bound_holds": deg2_count >= bound,
        "pair_count": len(pairs),
        "identity_holds": d == comb(n, 2) - comb(r, 2) - r * (n - r) - len(pairs),
    }


def scan_degree2(trials: int, n_max: int, seed: int) -> ScanReport:
    """Degree-2 bound and the exact pair identity over a seeded random corpus."""
    columns = (
        "graph",
        "n",
        "supporting_count",
        "coeff_n_minus_2",
        "bound",
        "degree2_count",
        "bound_holds",
        "pair_count",
        "identity_holds",
    )
    report = ScanReport(
        "degree2", {"trials": trials, "n_max": n_max, "seed": seed}, columns=columns
    )
    for g in random_connected_corpus(trials, n_max, seed, n_min=2):
        report.add_row(**degree2_row(g))
    rows = report.rows
    report.summary = {
        "instances": len(rows),
        "all_bounds_hold": all(row["bound_holds"] for row in rows),
        "all_identities_hold": all(row["identity_holds"] for row in rows),
    }
    report.checks = ("all_bounds_hold", "all_identities_hold")
    return report


# -- bounds on the total domination number ------------------------------------


def is_two_corona(g: Graph) -> bool:
    """True when g is some base graph with a 2-vertex tail grafted on each vertex.

    The middle vertices of a 2-corona are exactly its degree-2 vertices with
    a pendant neighbour (a P_3 component has one, its centre, and either end
    can be the tip). So g is a 2-corona when the closed neighbourhoods of
    those vertices, one triple (base, mid, tip) each, are disjoint and cover
    V; any remaining edges then necessarily join base vertices.
    """
    triples = [
        g.neighbors(m) | {m}
        for m in g.vertices
        if g.degree(m) == 2 and any(g.degree(p) == 1 for p in g.neighbors(m))
    ]
    return g.order > 0 and 3 * len(triples) == g.order and len(set().union(*triples)) == g.order


def gamma_bounds_row(g: Graph) -> dict:
    """Bounds 2 <= gamma_t <= 2n/3 for one connected graph of order >= 3.

    Equality on the right is compared (in integers, 3*gamma == 2n) against
    the known equality shapes: the 3-cycle, the 6-cycle, and 2-coronas.
    """
    if g.order < 3 or not g.is_connected():
        raise ValueError("bounds require a connected graph with at least 3 vertices")
    gamma = gamma_t(g)
    if gamma is None:
        raise ValueError("graph has no totally dominating set")
    n = g.order
    equality = 3 * gamma == 2 * n
    corona = is_two_corona(g)
    if is_cycle_shaped(g) and n in (3, 6):
        shape = f"C{n}"
    elif corona:
        shape = "two-corona"
    else:
        shape = None
    return {
        "graph": to_edge_list(g),
        "n": n,
        "gamma_t": gamma,
        "lower_ok": gamma >= 2,
        "upper_ok": 3 * gamma <= 2 * n,
        "equality": equality,
        "equality_shape": shape,
        "consistent": equality == (shape is not None),
    }


# 2-coronas in the bounds scan's corpus, and the largest base order among them
CORONA_TRIALS = 10
CORONA_BASE_MAX = 6


def gamma_scan_corpus(trials: int, n_max: int, seed: int) -> list[Graph]:
    """Connected corpus for the bounds scan: fixed shapes, random graphs, 2-coronas."""
    graphs = [g for g in fixed_small_corpus() if g.order >= 3]
    graphs.extend(random_connected_corpus(trials, n_max, seed, n_min=3))
    master = random.Random(seed)
    for _ in range(CORONA_TRIALS):
        k = master.randint(1, CORONA_BASE_MAX)
        base = random_connected_graph(k, master.uniform(0.0, 0.6), master.randrange(2**32))
        graphs.append(two_corona(base))
    return graphs


def scan_gamma_bounds(graphs: Iterable[Graph], params: dict | None = None) -> ScanReport:
    columns = ("graph", "n", "gamma_t", "lower_ok", "upper_ok", "equality", "equality_shape", "consistent")
    report = ScanReport("gamma-bounds", dict(params or {}), columns=columns)
    for g in graphs:
        report.add_row(**gamma_bounds_row(g))
    rows = report.rows
    report.summary = {
        "instances": len(rows),
        "all_ok": all(row["lower_ok"] and row["upper_ok"] and row["consistent"] for row in rows),
        "equality_instances": sum(row["equality"] for row in rows),
    }
    report.checks = ("all_ok",)
    return report


# -- basic structural identities (differential) --------------------------------


def _gamma_by_cover_search(g: Graph) -> int | None:
    """Total domination number without the oracle, summed over the components.

    Per component, the masks that k chosen vertices' neighbourhoods can cover
    are grown one vertex at a time: the next vertex is a neighbour of the
    lowest vertex not yet covered, since any total dominating set has one.
    The first k whose masks include the whole component is its least size.
    None when some component (an isolated vertex) cannot be covered, and for
    the empty graph.
    """
    if g.order == 0:
        return None
    total = 0
    for comp in g.components():
        index = {v: i for i, v in enumerate(comp.vertices)}
        nbrs = [[index[w] for w in comp.neighbors(v)] for v in comp.vertices]
        masks = [sum(1 << w for w in ws) for ws in nbrs]
        full = (1 << comp.order) - 1
        reach, k = {0}, 0
        while reach and full not in reach:
            # ((m + 1) & ~m) is the lowest bit m misses
            reach = {m | masks[w] for m in reach for w in nbrs[((m + 1) & ~m).bit_length() - 1]}
            k += 1
        if not reach:
            return None
        total += k
    return total


def verify_basic_identities(graphs: Iterable[Graph], params: dict | None = None) -> VerificationReport:
    """Structural facts every D_t must satisfy, checked against the oracle.

    Per graph: the polynomial vanishes exactly when an isolated vertex (or
    emptiness) forbids total domination; degrees 0 and 1 never contribute;
    the full vertex set dominates iff nothing is isolated; the least degree
    with support is the total domination number, found by a cover search
    that does not call the oracle; components multiply; the
    supporting-vertex identity pins d_t(G, n-1); and conditioning on a vertex
    (in W or not) or on its neighbourhood (met or avoided) partitions the
    count.
    """
    report = VerificationReport("prop1", dict(params or {}))
    for g in graphs:
        text = to_edge_list(g)
        poly = brute_force_tdp(g)
        cls = classify_vertices(g)
        dominatable = g.order > 0 and not cls.isolated

        report.record_check(text, "zero-iff-undominatable", bool(poly) == dominatable, dominatable, bool(poly))
        low_ok = poly.coeff(0) == 0 and poly.coeff(1) == 0
        report.record_check(text, "no-support-below-2", low_ok, IntPoly.zero(), IntPoly((poly.coeff(0), poly.coeff(1))))
        top = poly.coeff(g.order) if g.order else 0
        report.record_check(text, "full-set-coefficient", top == int(dominatable), int(dominatable), top)
        gamma = _gamma_by_cover_search(g)
        report.record_check(text, "gamma-is-min-degree", gamma == poly.min_degree(), gamma, poly.min_degree())
        report.record(text, "component-product", poly, tdp_by_components(g))
        if dominatable:
            report.record_check(
                text, "supporting-identity", supporting_identity(g),
                g.order - len(cls.supporting), poly.coeff(g.order - 1),
            )
        if g.order:
            v = min(g.vertices)
            with_v = brute_force_tdp(g, required=[v])
            without_v = brute_force_tdp(g, forbidden=[v])
            report.record(text, f"membership-partition v={v}", poly, with_v + without_v)
            hit = brute_force_tdp(g, meets=[g.neighbors(v)])
            missed = brute_force_tdp(g, forbidden=g.neighbors(v))
            report.record(text, f"neighborhood-partition v={v}", poly, hit + missed)
    return report
