import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpoly import kernels
from tdpoly.closedform import forest_at_minus_one
from tdpoly.errors import BudgetError
from tdpoly.graph import (
    Graph,
    cycle_graph,
    disjoint_union,
    is_cycle_shaped,
    path_graph,
    random_connected_graph,
    star_graph,
)
from tdpoly.oracle import MAX_ENUM_ORDER, brute_force_tdp, gamma_t
from tdpoly.polynomial import IntPoly
from tdpoly.reduction import cycle_tdp, path_tdp, tree_tdp

from helpers import (
    all_labeled_graphs,
    holds_for,
    is_path_shaped,
    is_total_dominating,
    naive_gamma,
    naive_tdp,
    naive_tdp_filtered,
)

# Exact polynomials for the smallest paths and cycles; every engine in the
# package must reproduce these.
PATH_BASES = {
    1: IntPoly.zero(),
    2: IntPoly((0, 0, 1)),
    3: IntPoly((0, 0, 2, 1)),
    4: IntPoly((0, 0, 1, 2, 1)),
}
CYCLE_BASES = {
    3: IntPoly((0, 0, 3, 1)),
    4: IntPoly((0, 0, 4, 4, 1)),
    5: IntPoly((0, 0, 0, 5, 5, 1)),
    6: IntPoly((0, 0, 0, 0, 9, 6, 1)),
}


def test_path_base_polynomials():
    for n, want in PATH_BASES.items():
        assert brute_force_tdp(path_graph(n)) == want


def test_cycle_base_polynomials():
    for n, want in CYCLE_BASES.items():
        assert brute_force_tdp(cycle_graph(n)) == want


def test_path_five_exhaustive():
    # frozen from the independent enumeration of all 32 subsets
    assert brute_force_tdp(path_graph(5)) == IntPoly((0, 0, 0, 1, 3, 1))


def test_star_polynomials():
    assert brute_force_tdp(star_graph(4)) == IntPoly((0, 0, 3, 3, 1))
    assert brute_force_tdp(star_graph(5)) == IntPoly((0, 0, 4, 6, 4, 1))


def test_is_total_dominating_examples():
    p4 = path_graph(4)
    assert is_total_dominating(p4, {1, 2})
    assert not is_total_dominating(p4, {0, 1})  # vertex 3 keeps no neighbor
    assert not is_total_dominating(p4, set())
    assert is_total_dominating(p4, {0, 1, 2, 3})


def test_isolated_vertex_never_dominated():
    lonely = disjoint_union(path_graph(2), Graph([0]))
    assert not is_total_dominating(lonely, set(lonely.vertices))
    assert brute_force_tdp(lonely) == IntPoly.zero()
    assert gamma_t(lonely) is None


def test_single_vertex():
    k1 = Graph([0])
    assert brute_force_tdp(k1) == IntPoly.zero()
    assert gamma_t(k1) is None


def test_empty_graph_is_zero():
    # convention: the oracle's D_t of the empty graph is 0; the constant-1
    # case exists only inside reduction indicators
    assert brute_force_tdp(Graph([])) == IntPoly.zero()


def test_conditioned_examples():
    assert brute_force_tdp(path_graph(2), required=[0]) == IntPoly((0, 0, 1))
    assert brute_force_tdp(path_graph(3), forbidden=[0, 2]) == IntPoly.zero()
    assert brute_force_tdp(path_graph(4), required=[3]) == IntPoly((0, 0, 0, 1, 1))
    # of {1, 2}, {0, 1, 2}, {1, 2, 3} and {0, 1, 2, 3}, only the last meets both ends
    assert brute_force_tdp(path_graph(4), meets=[{0}, {3}]) == IntPoly((0, 0, 0, 0, 1))


P3_WITH_ISOLATED = disjoint_union(path_graph(3), Graph([0]))  # vertex 3 is isolated


@pytest.mark.parametrize(
    "g, cond, counted",
    [
        (P3_WITH_ISOLATED, {}, False),
        (P3_WITH_ISOLATED, {"required": [3]}, False),
        (cycle_graph(5), {"meets": [{0}, ()]}, False),  # an empty must-meet set
        (path_graph(4), {"meets": [{0, 3}], "forbidden": [0, 3]}, False),
        (path_graph(3), {"forbidden": [1]}, False),  # 0 and 2 have only 1 as neighbour
        (star_graph(5), {"forbidden": [0]}, False),
        # required vertices leave the target coverable: the kernel counts
        (path_graph(3), {"required": [1]}, True),
        (path_graph(3), {"required": [0]}, True),
        (cycle_graph(6), {"required": [0, 3], "forbidden": [1]}, True),
        (star_graph(5), {"required": [1], "forbidden": [2]}, True),
    ],
)
def test_uncoverable_target_is_zero_without_enumerating(monkeypatch, g, cond, counted):
    # when a target bit is in no candidate mask the oracle answers zero
    # without calling the kernel; otherwise it enumerates as usual
    want = naive_tdp_filtered(g, lambda w: holds_for(w, **cond))
    calls = []
    real = kernels.size_counts
    monkeypatch.setattr(kernels, "size_counts", lambda *a: calls.append(a) or real(*a))
    assert brute_force_tdp(g, **cond) == want
    assert len(calls) == counted
    assert bool(want) == counted


def test_conditioned_with_always_is_plain():
    # no conditions, or conditions that every set meets, give D_t itself
    g = cycle_graph(5)
    assert brute_force_tdp(g, required=(), forbidden=(), meets=()) == naive_tdp(g)
    assert brute_force_tdp(g, meets=[g.vertices]) == naive_tdp(g)


def test_conditioned_conjunction():
    g = cycle_graph(4)
    got = brute_force_tdp(g, required=[0, 2])
    want = naive_tdp_filtered(g, lambda w: 0 in w and 2 in w)
    assert got == want


def test_condition_atom_on_dead_vertex_rejected():
    for cond in ({"required": [7]}, {"forbidden": [0, 7]}, {"meets": [{0}, {1, 7}]}):
        with pytest.raises(ValueError, match="vertex 7"):
            brute_force_tdp(path_graph(2), **cond)


def test_condition_atom_on_dead_vertex_rejected_with_isolated_vertex(monkeypatch):
    # a graph with an isolated vertex gives zero before any enumeration,
    # but only once its conditions are read
    monkeypatch.setattr(kernels, "size_counts", lambda *a: pytest.fail("nothing is enumerated"))
    for cond in ({"required": [7]}, {"forbidden": [0, 7]}, {"meets": [{0}, {1, 7}]}):
        with pytest.raises(ValueError, match="vertex 7"):
            brute_force_tdp(P3_WITH_ISOLATED, **cond)


def test_condition_atom_on_dead_vertex_rejected_on_the_empty_graph(monkeypatch):
    # the empty graph gives zero too, but only once its conditions are read
    monkeypatch.setattr(kernels, "size_counts", lambda *a: pytest.fail("nothing is enumerated"))
    for cond in ({"required": [7]}, {"forbidden": [7]}, {"meets": [{7}]}, {"meets": [(), {7}]}):
        with pytest.raises(ValueError, match="vertex 7"):
            brute_force_tdp(Graph([]), **cond)
    assert brute_force_tdp(Graph([]), meets=[()]) == IntPoly.zero()


@pytest.mark.parametrize("n", range(1, 6))
def test_unconditioned_call_equals_the_conditioned_path(n):
    # every totally dominating set is nonempty, so meeting the whole vertex
    # set is no condition: its virtual vertex must leave D_t as it is
    for g in all_labeled_graphs(n):
        assert brute_force_tdp(g) == brute_force_tdp(Graph(g.vertices, g.edges), meets=[g.vertices]), g


def test_unconditioned_call_equals_the_conditioned_path_on_larger_graphs():
    # orders up to 18, so that calls past the kernel's whole-table cutoff
    # take the split on both paths
    rng = random.Random(2024)
    orders = []
    for _ in range(24):
        g = random_connected_graph(rng.randint(6, 18), rng.uniform(0.1, 0.6), rng.randrange(2**32))
        orders.append(g.order)
        assert brute_force_tdp(g) == brute_force_tdp(Graph(g.vertices, g.edges), meets=[g.vertices]), g
    assert max(orders) > kernels._WHOLE_MAX


def test_derived_graphs_get_their_own_values_after_a_call_on_the_parent():
    # an oracle call leaves nothing on a graph that the graphs derived from
    # it afterwards could read: each still gets its own value
    rng = random.Random(58)
    for _ in range(60):
        g = random_connected_graph(rng.randint(3, 9), rng.uniform(0.2, 0.7), rng.randrange(2**32))
        brute_force_tdp(g)
        u = rng.choice(g.vertices)
        v = rng.choice(sorted(g.neighbors(u)))
        derived = [
            g.delete_vertex(u),
            g.contract_vertex(u),
            g.delete_edge(u, v),
            g.without_closed_neighborhoods([u]),
            *g.components(),
        ]
        for h in derived:
            fresh = Graph(h.vertices, h.edges)
            assert brute_force_tdp(h) == brute_force_tdp(fresh), (g, h)
            if h.order:
                w = h.vertices[0]
                assert brute_force_tdp(h, required=[w]) == brute_force_tdp(fresh, required=[w]), (g, h)
                assert brute_force_tdp(h) == naive_tdp(h), (g, h)


def test_counts_do_not_depend_on_the_order_labels_are_given_in():
    # the oracle numbers its bits in adjacency order, which follows the
    # order of Graph's vertex argument
    rng = random.Random(17)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 9), rng.random(), rng.randrange(2**32))
        labels = list(g.vertices)
        rng.shuffle(labels)
        h = Graph(labels, g.edges)
        v = labels[0]
        for cond in ({}, {"required": [v]}, {"forbidden": [v]}, {"meets": [g.neighbors(v)]}):
            assert brute_force_tdp(h, **cond) == brute_force_tdp(g, **cond) == naive_tdp_filtered(
                g, lambda w: holds_for(w, **cond)
            )


def test_condition_holds_for():
    assert holds_for({1, 2}, required=[1], meets=[[2, 3]])
    assert not holds_for({1}, required=[1], meets=[[2, 3]])
    assert not holds_for({2, 3}, required=[1], meets=[[2, 3]])
    assert not holds_for({2, 3}, forbidden=[3])
    assert not holds_for({2, 3}, meets=[[]])
    assert holds_for(set())


def test_gamma_examples():
    assert gamma_t(cycle_graph(6)) == 4
    assert gamma_t(path_graph(2)) == 2
    assert gamma_t(star_graph(6)) == 2


def test_gamma_equals_polynomial_min_degree():
    for g in (path_graph(5), cycle_graph(7), star_graph(4)):
        assert gamma_t(g) == brute_force_tdp(g).min_degree()


def test_gamma_t_matches_naive():
    for g in (path_graph(5), cycle_graph(6), star_graph(4)):
        assert gamma_t(g) == naive_gamma(g)


def test_gamma_t_none():
    # two isolated vertices: no neighborhood ever covers them
    assert gamma_t(Graph([0, 1])) is None
    assert naive_gamma(Graph([0, 1])) is None


def test_gamma_t_empty_graph():
    assert gamma_t(Graph([])) is None


def test_component_product_law():
    # the count of a disjoint union is the product of the parts' counts
    g = disjoint_union(path_graph(3), cycle_graph(4))
    assert brute_force_tdp(g) == brute_force_tdp(path_graph(3)) * brute_force_tdp(cycle_graph(4))


def test_component_product_matches_naive_enumeration():
    # connected and disconnected graphs alike must equal a plain enumeration
    # of the whole graph, and for a disconnected one the product of its parts
    assert brute_force_tdp(Graph([])) == IntPoly.zero()  # the oracle's convention
    rng = random.Random(77)
    graphs = [
        Graph([0]),
        Graph([4, 9]),
        disjoint_union(path_graph(2), Graph([0])),
        disjoint_union(cycle_graph(4), path_graph(3)),
        Graph([0, 1, 2, 3], [(2, 3)]),
    ]
    for _ in range(40):
        g = random_connected_graph(rng.randint(1, 9), rng.uniform(0.0, 0.6), rng.randrange(2**32))
        graphs.append(g)
        if g.order > 1:
            graphs.append(g.delete_vertex(rng.choice(g.vertices)))
            graphs.append(disjoint_union(g, path_graph(rng.randint(1, 3))))
    assert any(g.is_connected() and g.order > 1 for g in graphs)
    assert any(not g.is_connected() for g in graphs)
    for g in graphs:
        assert brute_force_tdp(g) == naive_tdp(g), g
        parts = IntPoly.one()
        for comp in g.components():
            parts = parts * brute_force_tdp(comp)
        assert brute_force_tdp(g) == parts, g


def test_budget_enforced():
    big = star_graph(MAX_ENUM_ORDER + 1)
    with pytest.raises(BudgetError):
        brute_force_tdp(big)
    with pytest.raises(BudgetError):
        gamma_t(big)
    # the budget is on the whole graph, even when every component fits it
    wide = disjoint_union(star_graph(14), star_graph(14))
    with pytest.raises(BudgetError):
        brute_force_tdp(wide)


def test_matches_independent_enumeration():
    rng = random.Random(4242)
    for _ in range(25):
        g = random_connected_graph(rng.randint(1, 8), rng.uniform(0.0, 0.8), rng.randrange(2**32))
        assert brute_force_tdp(g) == naive_tdp(g)


# labeled graphs on n = 1..5 vertices that are forests (OEIS A001858), paths
# (n!/2 for n >= 2) and cycles ((n-1)!/2 for n >= 3)
LABELED_SHAPES = {1: (1, 1, 0), 2: (2, 1, 0), 3: (7, 3, 1), 4: (38, 12, 3), 5: (291, 60, 12)}


@pytest.mark.parametrize("n", sorted(LABELED_SHAPES))
def test_every_graph_up_to_five_vertices(n):
    # every labeled graph of order n (1 099 for n = 1..5): the oracle plain
    # and under one condition at each vertex, the forest fold and the path
    # and cycle recurrences, against plain enumeration. n = 0 is left out:
    # the oracle maps the empty graph to 0 by design.
    shapes = [0, 0, 0]
    for g in all_labeled_graphs(n):
        expected = naive_tdp(g)
        assert brute_force_tdp(g) == expected, g
        for v in g.vertices:
            for cond in ({"required": [v]}, {"forbidden": [v]}, {"meets": [g.neighbors(v)]}):
                assert brute_force_tdp(g, **cond) == naive_tdp_filtered(g, lambda w: holds_for(w, **cond)), (g, cond)
        if g.is_forest():
            shapes[0] += 1
            assert tree_tdp(g) == expected, g
            assert forest_at_minus_one(g) == expected.evaluate(-1), g
        if is_path_shaped(g):
            shapes[1] += 1
            assert path_tdp(n) == expected, g
        if is_cycle_shaped(g):
            shapes[2] += 1
            assert cycle_tdp(n) == expected, g
    assert tuple(shapes) == LABELED_SHAPES[n]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_polynomial_shape_properties(n, p, seed):
    g = random_connected_graph(n, p, seed)
    poly = brute_force_tdp(g)
    # coefficients are counts
    assert all(c >= 0 for c in poly.coeffs)
    deg = poly.degree()
    assert deg is None or deg <= g.order
    low = poly.min_degree()
    assert low is None or low >= 2
    # the full vertex set totally dominates iff no isolated vertex exists
    isolated = any(g.degree(v) == 0 for v in g.vertices)
    assert (poly.coeff(g.order) == 1) == (not isolated)
    if not isolated:
        assert poly.evaluate(1) == sum(poly.coeffs)
        assert gamma_t(g) == poly.min_degree()


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_membership_partition_property(n, seed):
    g = random_connected_graph(n, 0.5, seed)
    v = g.vertices[0]
    with_v = brute_force_tdp(g, required=[v])
    without_v = brute_force_tdp(g, forbidden=[v])
    assert with_v + without_v == brute_force_tdp(g)
