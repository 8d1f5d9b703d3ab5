"""Independent reference implementations used only by the tests.

Everything here is deliberately written against the set-based graph API and
itertools, never against the package's bitmask kernels, so agreement between
the two is meaningful evidence rather than a tautology.
"""

from fractions import Fraction
from itertools import combinations

from tdpoly.graph import Graph
from tdpoly.polynomial import IntPoly


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


def naive_gamma(g):
    """Smallest totally dominating set size, or None."""
    counts = naive_counts(g)
    for size, c in enumerate(counts):
        if c and size:
            return size
    return None
