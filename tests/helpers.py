"""Independent reference implementations used only by the tests.

The enumerators here are deliberately written against the set-based graph
API and itertools, never against the package's bitmask kernels, so agreement
between the two is meaningful evidence rather than a tautology. The tree
helpers at the end do call the brute-force oracle: what they check is the
package's bookkeeping around it (labeled trees against unlabeled ones), so
one oracle call per labeled tree, from the exhaustive Pruefer generator kept
here, is the reference route. The three-term vertex reduction is built from
oracle calls too: the package uses only the full identity, and the tests
check the shorter form against it.
`non_supporting_pair_set` is the one wrapper here around package code: only
the tests ask for the pair set of a whole graph.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

from tdpoly.closedform import star_tdp
from tdpoly.extremal import _non_supporting_pairs
from tdpoly.graph import (
    Graph,
    _prufer_edges,
    classify_vertices,
    is_star_shaped,
    to_edge_list,
)
from tdpoly.oracle import brute_force_tdp, tdp_by_components
from tdpoly.polynomial import IntPoly
from tdpoly.reduction import indicator_tdp


def poly_arith(kind, p, q):
    """Dispatch form of +, -, * for callers that carry the operation as data."""
    if kind == "add":
        return p + q
    if kind == "sub":
        return p - q
    if kind == "mul":
        return p * q
    raise ValueError(f"unknown arithmetic kind {kind!r}")


def fraction_horner(coeffs, re, im=0):
    """Exact value at re + im*i as a pair of Fractions, by Horner in Fractions."""
    re, im = Fraction(re), Fraction(im)
    acc_re = acc_im = Fraction(0)
    for c in reversed(coeffs):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


def envelope_to_poly(envelope):
    """The polynomial a CLI JSON envelope carries: inverse of its coeffs part."""
    return IntPoly.from_coeff_strings(envelope["coeffs"])


def union(g1, g2):
    """Union on the labels as given: shared labels merge."""
    return Graph(set(g1.vertices) | set(g2.vertices), set(g1.edges) | set(g2.edges))


def join(g1, g2):
    """Disjoint union plus every edge between the two sides."""
    offset = (max(g1.vertices) + 1) if g1.order else 0
    shifted_v = [v + offset for v in g2.vertices]
    shifted_e = [(u + offset, v + offset) for u, v in g2.edges]
    cross = [(u, v) for u in g1.vertices for v in shifted_v]
    return Graph(list(g1.vertices) + shifted_v, list(g1.edges) + shifted_e + cross)


def closed_neighborhood(g, v):
    """N[v]: v together with its neighbours."""
    return g.neighbors(v) | {v}


def two_corona_by_partition(g):
    """Whether V splits into triples (base, mid, tip) where mid's neighbourhood
    is exactly {base, tip} and tip's sole neighbour is mid: a backtracking
    search over every candidate triple of every vertex."""
    if g.order == 0 or g.order % 3:
        return False
    by_vertex = {v: [] for v in g.vertices}
    for m in g.vertices:
        nb = g.neighbors(m)
        if len(nb) != 2:
            continue
        for tip in nb:
            if g.degree(tip) == 1:
                (base,) = nb - {tip}
                for v in (base, m, tip):
                    by_vertex[v].append(frozenset((base, m, tip)))

    def cover(remaining):
        if not remaining:
            return True
        return any(triple <= remaining and cover(remaining - triple) for triple in by_vertex[min(remaining)])

    return cover(frozenset(g.vertices))


def random_tree(n, seed):
    """Uniform random labeled tree on 0..n-1 (Pruefer decode of a seeded RNG)."""
    if n < 1:
        raise ValueError("tree order must be at least 1")
    if n == 1:
        return Graph([0])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Graph(range(n), _prufer_edges(seq, n))


def all_labeled_trees(n):
    """Yield every labeled tree on 0..n-1, one per Pruefer sequence.

    Exactly n^(n-2) trees for n >= 2, in Pruefer order; a single one-vertex
    graph for n = 1.
    """
    if n < 1:
        raise ValueError("tree order must be at least 1")
    if n == 1:
        yield Graph([0])
        return
    for seq in product(range(n), repeat=n - 2):
        yield Graph(range(n), _prufer_edges(seq, n))


def all_labeled_graphs(n):
    """Yield every simple graph on 0..n-1, one per subset of the C(n, 2) pairs."""
    pairs = list(combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        yield Graph(range(n), [pair for i, pair in enumerate(pairs) if chosen >> i & 1])


def naive_counts(g):
    """Count totally dominating sets of each size by plain enumeration."""
    verts = list(g.vertices)
    adj = {v: set(g.neighbors(v)) for v in verts}
    counts = [0] * (len(verts) + 1)
    for k in range(len(verts) + 1):
        for sub in combinations(verts, k):
            chosen = set(sub)
            if all(adj[v] & chosen for v in verts):
                counts[k] += 1
    return counts


def naive_size_counts(masks, target):
    """Count, by size, the subsets of the masks whose OR covers every bit of target."""
    counts = [0] * (len(masks) + 1)
    for k in range(len(masks) + 1):
        for sub in combinations(masks, k):
            cover = 0
            for m in sub:
                cover |= m
            counts[k] += cover & target == target
    return counts


def naive_tdp(g):
    return IntPoly(naive_counts(g))


def naive_tdp_filtered(g, keep):
    """Like naive_tdp but only sets for which keep(frozenset) is true count."""
    verts = list(g.vertices)
    adj = {v: set(g.neighbors(v)) for v in verts}
    counts = [0] * (len(verts) + 1)
    for k in range(len(verts) + 1):
        for sub in combinations(verts, k):
            chosen = frozenset(sub)
            if all(adj[v] & chosen for v in verts) and keep(chosen):
                counts[k] += 1
    return IntPoly(counts)


def simple_vertex_reduction_applies(g, u):
    """True when the conditioned term of the vertex reduction provably vanishes.

    Either (i) some other vertex's closed neighborhood sits inside N[u] (it
    cannot be dominated once W avoids N(u)), or (ii) some neighbor of u
    supports a pendant other than u itself. The "other than u" part
    matters: a neighbor that is supporting only because u is its pendant
    stops being supporting in the contraction, and the conditioned term
    survives (u = end of a path of order 4 is the smallest example).
    """
    nu_closed = closed_neighborhood(g, u)
    for v in g.vertices:
        if v != u and closed_neighborhood(g, v) <= nu_closed:
            return True
    for w in g.neighbors(u):
        for q in g.neighbors(w):
            if q != u and g.degree(q) == 1:
                return True
    return False


def simple_vertex_reduction_rhs(g, u):
    """Three-term vertex reduction, valid when the conditioned term vanishes."""
    if not simple_vertex_reduction_applies(g, u):
        raise ValueError(f"short vertex reduction does not apply at vertex {u}")
    rhs = tdp_by_components(g.delete_vertex(u))
    rhs = rhs + IntPoly.monomial(1) * tdp_by_components(g.contract_vertex(u))
    for v in sorted(g.neighbors(u)):
        rhs = rhs + IntPoly.monomial(2) * indicator_tdp(g.without_closed_neighborhoods([u, v]))
    return rhs


def non_supporting_pair_set(g):
    """Pairs {a, b} that are exactly some vertex's neighborhood, neither supporting."""
    return _non_supporting_pairs(g, classify_vertices(g).supporting)


def naive_gamma(g):
    """Smallest totally dominating set size, or None."""
    counts = naive_counts(g)
    for size, c in enumerate(counts):
        if c and size:
            return size
    return None


def is_total_dominating(g, w):
    """True iff every live vertex of g has a neighbor in w."""
    ws = set(w)
    for v in ws:
        if v not in g:
            raise ValueError(f"candidate set references vertex {v}, not live in the graph")
    return all(g.neighbors(v) & ws for v in g.vertices)


def holds_for(w, required=(), forbidden=(), meets=()):
    """Whether the vertex set w contains every required vertex, avoids every
    forbidden one and meets every set in meets."""
    return set(required) <= w and not w & set(forbidden) and all(w & set(vs) for vs in meets)


def coeffwise_le(p, q):
    """True when every coefficient of p is <= the matching coefficient of q."""
    top = max(len(p.coeffs), len(q.coeffs))
    return all(p.coeff(i) <= q.coeff(i) for i in range(top))


def pairwise_minimal_flags(polys):
    """For each polynomial, whether it is coefficient-wise <= every member (k^2 pairs)."""
    width = max((len(p.coeffs) for p in polys), default=0)
    padded = [p.coeffs + (0,) * (width - len(p.coeffs)) for p in polys]
    return [all(all(a <= b for a, b in zip(mine, other)) for other in padded) for mine in padded]


def tree_bound_row(t):
    """Facts about one tree: oracle coefficients against C(n-1, i-1)."""
    n = t.order
    if n < 2 or not t.is_connected() or not t.is_forest():
        raise ValueError("expected a tree with at least 2 vertices")
    poly = brute_force_tdp(t)
    bound_holds = all(poly.coeff(i) <= comb(n - 1, i - 1) for i in range(2, n + 1))
    return {
        "graph": to_edge_list(t),
        "n": n,
        "poly": poly,
        "bound_holds": bound_holds,
        "equals_star_poly": poly == star_tdp(n),
        "is_star": is_star_shaped(t),
    }


def labeled_tree_census(n):
    """The labeled route: one oracle call per labeled tree on 0..n-1.

    Maps each polynomial to its labeled_count, star_count and the first
    labeled tree in Pruefer order that has it.
    """
    classes = {}
    for t in all_labeled_trees(n):
        poly = brute_force_tdp(t)
        cls = classes.get(poly)
        if cls is None:
            cls = classes[poly] = {"labeled_count": 0, "star_count": 0, "example": to_edge_list(t)}
        cls["labeled_count"] += 1
        cls["star_count"] += is_star_shaped(t)
    return classes
