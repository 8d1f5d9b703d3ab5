"""Reduction identities and fast recurrences for total domination polynomials.

The vertex and edge reduction right-hand sides are deliberately assembled
from brute-force oracle calls on the smaller derived graphs: their whole
point is to be compared against the oracle value on the original graph, so
each side must be computed by an independent route. Each right-hand side is
one shifted sum: every oracle result is added into a single coefficient
list at its power of x and with its sign, so a term x^k*A costs only A's
oracle call and one pass over A's coefficients. The path/cycle
recurrence and the forest dynamic programme are the fast paths that fall
out of those identities. Each takes its ring as a parameter, since
evaluation at a point is a ring homomorphism. The recurrence is one walk
from four seeds over add and multiply-by-x, so a table up to order N costs
one walk, O(N^2) coefficient additions; on coefficient lists each term is
kept as its nonzero band, degrees gamma_t to n. The forest engine is one
bottom-up pass per component over four per-vertex states (out of W and
dominated by a child, out of W in any case, in W and dominated, in W in any
case) over add, mul and start(k), the states of a vertex after its k leaf
children: leaves are never folded one by one, and a parent with no child
yet takes its first by two products by x. Both run on coefficient lists
(`path_tdp`, `cycle_tdp`, `tree_tdp`) and on ints at x = -1 (the minus-one
suite).
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from typing import Callable, Iterable, Iterator

from .graph import Graph, cycle_graph, path_graph
from .oracle import brute_force_tdp
from .polynomial import IntPoly, _add_coeffs, _mul_coeffs, ensure_valid_tdp
from .reports import VerificationReport

def _add_shifted(out: list[int], p: IntPoly, shift: int, sign: int = 1) -> None:
    """out += sign * x^shift * p, in place; out is long enough."""
    for i, c in enumerate(p.coeffs, shift):
        out[i] += sign * c


def _add_pair_term(out: list[int], rest: Graph) -> None:
    """out += x^2 * D_t(rest), the x^2 term of the reduction identities. The
    removed closed neighborhoods already account for the dominating pair, so
    an empty remainder counts as 1 and adds x^2 itself; one with an isolated
    vertex adds nothing, as its D_t is 0."""
    if rest._adj:
        _add_shifted(out, brute_force_tdp(rest), 2)
    else:
        out[2] += 1


def vertex_reduction_rhs(g: Graph, u: int) -> IntPoly:
    """Right-hand side of the vertex reduction identity at u.

    D_t(G-u) + x*D_t(G/u) - (1+x)*D_t(G/u){W avoids N(u)}
    + sum over v in N(u) of x^2 * indicator(G with N[u], N[v] removed).
    """
    if not g.is_connected():
        raise ValueError("vertex reduction is stated for connected graphs")
    return _vertex_rhs(g, u)


def _vertex_rhs(g: Graph, u: int) -> IntPoly:
    """vertex_reduction_rhs on a graph already known to be connected, as one
    shifted sum of degree at most n: D_t(G-u) at x^0, D_t(G/u) at x^1, the
    avoiding count subtracted at x^0 and at x^1, and each pair term at x^2."""
    nbrs = sorted(g.neighbors(u))
    contracted = g.contract_vertex(u)
    rhs = [0] * (g.order + 1)
    _add_shifted(rhs, brute_force_tdp(g.delete_vertex(u)), 0)
    _add_shifted(rhs, brute_force_tdp(contracted), 1)
    avoiding = brute_force_tdp(contracted, forbidden=nbrs)
    _add_shifted(rhs, avoiding, 0, -1)
    _add_shifted(rhs, avoiding, 1, -1)
    for v in nbrs:
        _add_pair_term(rhs, g.without_closed_neighborhoods([u, v]))
    return IntPoly._of(rhs)


def edge_reduction_rhs(g: Graph, u: int, v: int) -> IntPoly:
    """Right-hand side of the edge reduction identity at e = uv.

    Splitting the dominating sets of G on how they meet {u, v} gives

        D_t(G) = D_t(G-e) + x^2 * indicator(G minus N[u], N[v])
               + x * [ D_t(H_u){v in W} + D_t(H_v){u in W} ]
               + D_t(H_u){v in W, each removed neighbor of u keeps a
                          dominator among the survivors}
               + D_t(H_v){u in W, symmetric},

    where H_u is G-e minus the closed neighborhood of u taken in G-e. The
    x-multiplied terms re-insert the deleted endpoint into the counted set
    (it dominates everything that was cut away); the unit-multiplied terms
    keep the set as is, so the cut-away vertices other than the endpoint
    still need neighbors in W -- hence the extra must-meet sets. Without
    those sets the two unit terms overcount: P_4 at its middle edge is the
    smallest counterexample. The differential suite is what validates these
    conventions.
    """
    if not g.is_connected():
        raise ValueError("edge reduction is stated for connected graphs")
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) is not present")
    return _edge_rhs(g, u, v)


def _edge_rhs(g: Graph, u: int, v: int) -> IntPoly:
    """edge_reduction_rhs on a graph already known to be connected, as one
    shifted sum of degree at most n: D_t(G-e) at x^0, the pair term at x^2,
    and per endpoint its anchored count at x^1 and its must-meet count at
    x^0. A missing edge still raises, in ``Graph.delete_edge``."""
    minus_e = g.delete_edge(u, v)
    adj = minus_e._adj
    rhs = [0] * (g.order + 1)
    _add_shifted(rhs, brute_force_tdp(minus_e), 0)
    _add_pair_term(rhs, g.without_closed_neighborhoods([u, v]))
    for anchor, removed in ((v, u), (u, v)):
        remainder = minus_e.without_closed_neighborhoods([removed])
        _add_shifted(rhs, brute_force_tdp(remainder, required=[anchor]), 1)
        alive = remainder._adj.keys()
        dominators = [alive & adj[z] for z in adj[removed]]
        if all(dominators):  # an empty set is met by no W: the term is 0
            _add_shifted(rhs, brute_force_tdp(remainder, required=[anchor], meets=dominators), 0)
    return IntPoly._of(rhs)


def _order4_walk(seeds: tuple, add: Callable, times_x: Callable) -> Iterator:
    """The four seeds D(0..3), then D(k) = x*D(k-1) + x^2*D(k-3) + x^2*D(k-4)
    for k = 4, 5, ..., in any commutative ring given by `add` and `times_x`
    (multiplication by x). Each term is x*(D(k-1) + x*(D(k-3) + D(k-4))):
    two additions and two products by x."""
    w0, w1, w2, w3 = seeds
    yield from seeds
    while True:
        w0, w1, w2, w3 = w1, w2, w3, times_x(add(w3, times_x(add(w1, w0))))
        yield w3


# family -> its walk's four seeds as coefficient lists, and the order of the
# first: the recurrence continued below P_1 gives P_-2..P_1 = 0, 1, 1, 0, and
# C_0..C_3 = 4, x, x^2, x^3 + 3x^2 are the power sums of the quartic's four
# roots (see ``closedform``).
_SEEDS = {
    "path": (((), (1,), (1,), ()), -2),
    "cycle": (((4,), (0, 1), (0, 0, 1), (0, 0, 3, 1)), 0),
}


def _add_bands(a: tuple, b: tuple) -> tuple:
    """Sum of two banded terms (lowest degree, coefficients from it up): the
    band that starts higher goes onto the other's overlap by `_add_coeffs`."""
    if not (a[1] and b[1]):
        return a if a[1] else b
    (low, ca), (high, cb) = (a, b) if a[0] <= b[0] else (b, a)
    gap = high - low
    return low, [*ca[:gap], *[0] * (gap - len(ca)), *_add_coeffs(ca[gap:], cb)]


def _recurrence_terms(family: str, n: int) -> Iterator[IntPoly]:
    """D_t of the family's members of order n, n + 1, ...: one walk on banded
    terms, so that a product by x moves the lowest degree and copies nothing
    and an addition covers the nonzero degrees only; each term is checked as
    it is returned."""
    seeds, first = _SEEDS[family]
    lows = [next((d for d, c in enumerate(s) if c), 0) for s in seeds]
    bands = tuple((low, s[low:]) for low, s in zip(lows, seeds))
    walk = _order4_walk(bands, _add_bands, lambda t: (t[0] + 1, t[1]))
    for order, (low, coeffs) in enumerate(islice(walk, n - first, None), n):
        yield ensure_valid_tdp(IntPoly._of([*[0] * low, *coeffs]), order)


def path_tdp(n: int) -> IntPoly:
    """D_t of the path P_n: the n-th term of the paths' walk."""
    if n < 1:
        raise ValueError("path order must be at least 1")
    return next(_recurrence_terms("path", n))


def cycle_tdp(n: int) -> IntPoly:
    """D_t of the cycle C_n: the n-th term of the cycles' walk."""
    if n < 3:
        raise ValueError("cycle order must be at least 3")
    return next(_recurrence_terms("cycle", n))


def _fold_forest(g: Graph, add: Callable, mul: Callable, start: Callable):
    """D_t(F) of a forest in any commutative ring, by one bottom-up pass per
    component.

    The ring is given by `add`, `mul` and `start`: start(k) is the states of
    a vertex after its k leaf children, start(0) = (0, 1, 0, x) before any
    child. Each component is rooted at its smallest label and its other
    vertices with a child are ordered breadth first. Every vertex v keeps
    four values counting the sets W in its subtree that dominate every other
    vertex of the subtree:

    - A: v not in W, and already dominated by a child in W;
    - B: v not in W, dominated or not;
    - C: v in W, and already dominated by a child in W;
    - D: v in W, dominated or not.

    A leaf child is never folded on its own: v starts at start(k) after all
    k of them. Visiting the other vertices in reverse order folds each
    child c into its parent v. When v is not in W, c must be dominated by
    its own children; when v is in W, c may be in any state; a child in W
    dominates v:

        A' = A*cA + B*cC,  B' = B*(cA + cC),
        C' = C*cB + D*cD,  D' = D*(cB + cD).

    A parent still at start(0) takes its first child by two additions and
    two products by x: A' = cC, B' = cA + cC, C' = x*cD, D' = x*(cB + cD).

    A component contributes A + C at its root, so an isolated vertex gives
    0; components multiply, and the empty forest gives 0. The fold is
    O(n) ring operations with no recursion.

    The breadth-first pass that orders a component is also the forest
    test: a vertex with a visited neighbour other than its parent closes a
    cycle, and raises ValueError. Every component is walked, also once the
    product is 0, so a cycle anywhere raises; only the folding stops.
    """
    fresh = start(0)
    x = fresh[3]
    out = fresh[1] if g.order else fresh[0]
    adj = g._adj
    seen: set[int] = set()
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        order, parent, leaves = [root], {}, {}
        for v in order:  # grows while it is walked: a breadth-first search
            up = parent.get(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    if len(adj[w]) == 1:  # a leaf child: counted, not visited
                        leaves[v] = leaves.get(v, 0) + 1
                    else:
                        parent[w] = v
                        order.append(w)
                elif w != up:
                    raise ValueError("input graph contains a cycle")
        if not out:
            continue
        state = {}  # a vertex's (A, B, C, D) once it has a child folded in
        for child in reversed(order[1:]):
            ca, cb, cc, cd = state.pop(child, None) or start(leaves[child])
            v = parent[child]
            if v in state or v in leaves:
                a, b, c, d = state.get(v) or start(leaves[v])
                state[v] = (
                    add(mul(a, ca), mul(b, cc)),
                    mul(b, add(ca, cc)),
                    add(mul(c, cb), mul(d, cd)),
                    mul(d, add(cb, cd)),
                )
            else:
                state[v] = (cc, add(ca, cc), mul(x, cd), mul(x, add(cb, cd)))
        a, _, c, _ = state.get(root) or start(leaves.get(root, 0))
        out = mul(out, add(a, c))
    return out


def _start_coeffs(k: int) -> tuple:
    """(A, B, C, D) of a vertex after its k leaf children, as coefficient
    lists. For k >= 1, v out of W leaves them undominated, so A = B = 0; v in
    W needs a nonempty set of them to be dominated: C = x((1+x)^k - 1) and
    D = x(1+x)^k, one binomial row."""
    if not k:
        return (), (1,), (), (0, 1)  # the leaf's (0, 1, 0, x)
    row = [1]
    for i in range(k):
        row.append(row[-1] * (k - i) // (i + 1))
    return (), (), [0, 0, *row[1:]], [0, *row]


def tree_tdp(g: Graph) -> IntPoly:
    """Exact polynomial for a forest: the four-state fold on coefficient
    lists, O(n^2) coefficient products for n vertices, and one binomial row
    for the leaves of each vertex. Raises ValueError on a cycle; a forest
    with an isolated vertex gives 0, and so does the empty forest."""
    out = _fold_forest(g, _add_coeffs, _mul_coeffs, _start_coeffs)
    return ensure_valid_tdp(IntPoly._of(list(out)), g.order)  # () for the empty forest


# -- differential verification suites ----------------------------------------


def _verify_reduction(suite: str, graphs: Iterable[Graph], params: dict | None, sides: Callable) -> VerificationReport:
    """Check each connected graph, enumerated once, against every (param, rhs)
    in sides(g); connectivity is tested here, once per graph, so the sides
    call the reductions' unchecked cores."""
    report = VerificationReport(suite, dict(params or {}))
    for g in filter(Graph.is_connected, graphs):
        lhs = brute_force_tdp(g)
        for param, rhs in sides(g):
            report.record(g, param, lhs, rhs)
    return report


def verify_vertex_reduction(graphs: Iterable[Graph], params: dict | None = None) -> VerificationReport:
    """Compare the oracle against the vertex reduction at every vertex."""
    return _verify_reduction(
        "theorem1", graphs, params, lambda g: ((f"u={u}", _vertex_rhs(g, u)) for u in g.vertices)
    )


def verify_edge_reduction(graphs: Iterable[Graph], params: dict | None = None) -> VerificationReport:
    """Compare the oracle against the edge reduction at every edge."""
    return _verify_reduction(
        "theorem3", graphs, params, lambda g: ((f"e=({u},{v})", _edge_rhs(g, u, v)) for u, v in g.edges)
    )


def verify_conditioned_path_recurrence(n_max: int = 14) -> VerificationReport:
    """Check the end-anchored conditioned recurrence on paths.

    With D(k) = D_t(P_k){last vertex in W}, conditioned brute force on both
    sides: D(n) = x*D(n-1) + x^2*D(n-3) + x^2*D(n-4) for n >= 5. Each D(k)
    is enumerated once and shared by the orders that use it, and the
    right-hand side is one shifted sum of degree at most n.
    """
    n_min = 5  # the first order whose four earlier terms are all paths
    report = VerificationReport("claim1", {"n_min": n_min, "n_max": n_max})

    @cache
    def end_conditioned(k: int) -> IntPoly:
        return brute_force_tdp(path_graph(k), required=[k - 1])

    for n in range(n_min, n_max + 1):
        rhs = [0] * (n + 1)
        _add_shifted(rhs, end_conditioned(n - 1), 1)
        _add_shifted(rhs, end_conditioned(n - 3), 2)
        _add_shifted(rhs, end_conditioned(n - 4), 2)
        report.record(path_graph(n), f"n={n}", end_conditioned(n), IntPoly._of(rhs))
    return report


def verify_recurrences(n_max: int = 18) -> VerificationReport:
    """Path and cycle recurrence outputs against the brute-force oracle."""
    report = VerificationReport("recurrence", {"n_max": n_max})
    for family, make, lower in (("path", path_graph, 1), ("cycle", cycle_graph, 3)):
        for n, poly in zip(range(lower, n_max + 1), _recurrence_terms(family, lower)):
            g = make(n)
            report.record(g, f"{family} n={n}", brute_force_tdp(g), poly)
    return report
