import math
import operator
import random
from itertools import islice

import pytest

from tdpoly import reduction
from tdpoly.closedform import forest_at_minus_one
from tdpoly.errors import InternalConsistencyError
from tdpoly.graph import (
    Graph,
    cycle_graph,
    disjoint_union,
    fixed_small_corpus,
    path_graph,
    random_connected_corpus,
    random_forest,
    star_graph,
)
from tdpoly.oracle import brute_force_tdp, gamma_t
from tdpoly.polynomial import IntPoly, _add_coeffs, _mul_coeffs
from tdpoly.reduction import (
    _add_bands,
    _fold_forest,
    _order4_walk,
    _recurrence_terms,
    cycle_tdp,
    edge_reduction_rhs,
    path_tdp,
    tree_tdp,
    vertex_reduction_rhs,
    verify_conditioned_path_recurrence,
    verify_edge_reduction,
    verify_recurrences,
    verify_vertex_reduction,
)

from helpers import (
    all_labeled_graphs,
    all_labeled_trees,
    indicator_tdp,
    monomial,
    naive_tdp,
    random_tree,
    simple_vertex_reduction_applies,
    simple_vertex_reduction_rhs,
)


# -- indicator ---------------------------------------------------------------


def test_indicator_empty_graph_is_one():
    assert indicator_tdp(Graph([])) == IntPoly.one()


def test_indicator_isolated_vertex_is_zero():
    assert indicator_tdp(Graph([0])) == IntPoly.zero()
    assert indicator_tdp(disjoint_union(path_graph(2), Graph([0]))) == IntPoly.zero()


def test_indicator_otherwise_is_the_polynomial():
    assert indicator_tdp(path_graph(3)) == IntPoly((0, 0, 2, 1))
    assert indicator_tdp(disjoint_union(path_graph(2), path_graph(2))) == IntPoly(
        (0, 0, 0, 0, 1)
    )


# -- vertex reduction ---------------------------------------------------------


def test_vertex_reduction_hand_expansions():
    # center of P_3: deletion leaves 2K_1 (zero), contraction leaves P_2
    assert vertex_reduction_rhs(path_graph(3), 1) == IntPoly((0, 0, 2, 1))
    # either endpoint of P_2: the indicator term alone
    assert vertex_reduction_rhs(path_graph(2), 0) == IntPoly((0, 0, 1))
    # pendant of P_3
    assert vertex_reduction_rhs(path_graph(3), 0) == IntPoly((0, 0, 2, 1))


def test_vertex_reduction_requires_connected_live():
    with pytest.raises(ValueError):
        vertex_reduction_rhs(disjoint_union(path_graph(2), path_graph(2)), 0)
    with pytest.raises(ValueError):
        vertex_reduction_rhs(path_graph(3), 9)


def test_vertex_reduction_differential_on_fixed_corpus():
    for g in fixed_small_corpus():
        want = brute_force_tdp(g)
        for u in g.vertices:
            assert vertex_reduction_rhs(g, u) == want, (g, u)


# -- simplified vertex form ----------------------------------------------------


def test_simple_form_applicability():
    assert simple_vertex_reduction_applies(path_graph(3), 0)
    assert simple_vertex_reduction_applies(star_graph(5), 1)
    for u in range(6):
        assert not simple_vertex_reduction_applies(cycle_graph(6), u)
    # P_4 at an endpoint: its only neighbor supports no second pendant and no
    # neighborhood is nested, so the three-term shortcut does not apply
    # (and indeed its sum x^4+3x^3+2x^2 differs from the true polynomial)
    assert not simple_vertex_reduction_applies(path_graph(4), 0)
    assert simple_vertex_reduction_applies(path_graph(4), 1)


def test_simple_form_values():
    assert simple_vertex_reduction_rhs(path_graph(3), 0) == IntPoly((0, 0, 2, 1))
    assert simple_vertex_reduction_rhs(star_graph(4), 1) == IntPoly((0, 0, 3, 3, 1))


def test_simple_form_rejects_inapplicable_vertex():
    with pytest.raises(ValueError):
        simple_vertex_reduction_rhs(path_graph(4), 0)
    with pytest.raises(ValueError):
        simple_vertex_reduction_rhs(cycle_graph(6), 0)


def test_simple_form_agrees_with_full_reduction_when_applicable():
    for g in fixed_small_corpus():
        for u in g.vertices:
            if simple_vertex_reduction_applies(g, u):
                assert simple_vertex_reduction_rhs(g, u) == vertex_reduction_rhs(g, u)


# -- edge reduction -------------------------------------------------------------


def test_edge_reduction_hand_expansions():
    assert edge_reduction_rhs(cycle_graph(3), 0, 1) == IntPoly((0, 0, 3, 1))
    assert edge_reduction_rhs(path_graph(2), 0, 1) == IntPoly((0, 0, 1))
    assert edge_reduction_rhs(cycle_graph(4), 0, 1) == IntPoly((0, 0, 4, 4, 1))


def test_edge_reduction_middle_edge_of_path_four():
    # regression: the two unit-multiplied terms must require the cut-away
    # neighbors to stay dominated, otherwise this instance counts 2x^2 extra
    assert edge_reduction_rhs(path_graph(4), 1, 2) == IntPoly((0, 0, 1, 2, 1))


def test_edge_reduction_requires_edge():
    with pytest.raises(ValueError):
        edge_reduction_rhs(path_graph(4), 0, 2)
    with pytest.raises(ValueError):
        edge_reduction_rhs(disjoint_union(path_graph(2), path_graph(2)), 0, 1)


def test_edge_reduction_differential_on_fixed_corpus():
    for g in fixed_small_corpus():
        want = brute_force_tdp(g)
        for u, v in g.edges:
            assert edge_reduction_rhs(g, u, v) == want, (g, u, v)


# -- the right-hand sides as shifted sums ------------------------------------------


def _indicator(g):
    return brute_force_tdp(g) if g.order else IntPoly.one()


def vertex_expansion(g, u):
    """Theorem 1's right-hand side written out term by term in IntPoly arithmetic."""
    nbrs = sorted(g.neighbors(u))
    contracted = g.contract_vertex(u)
    rhs = brute_force_tdp(g.delete_vertex(u)) + monomial(1) * brute_force_tdp(contracted)
    rhs = rhs - IntPoly((1, 1)) * brute_force_tdp(contracted, forbidden=nbrs)
    for v in nbrs:
        rhs = rhs + monomial(2) * _indicator(g.without_closed_neighborhoods([u, v]))
    return rhs


def edge_expansion(g, u, v):
    """Theorem 3's six terms written out in IntPoly arithmetic."""
    minus_e = g.delete_edge(u, v)
    rhs = brute_force_tdp(minus_e) + monomial(2) * _indicator(g.without_closed_neighborhoods([u, v]))
    for anchor, removed in ((v, u), (u, v)):
        remainder = minus_e.without_closed_neighborhoods([removed])
        rhs = rhs + monomial(1) * brute_force_tdp(remainder, required=[anchor])
        alive = set(remainder.vertices)
        dominators = [set(minus_e.neighbors(z)) & alive for z in minus_e.neighbors(removed)]
        if all(dominators):
            rhs = rhs + brute_force_tdp(remainder, required=[anchor], meets=dominators)
    return rhs


SMALL_CONNECTED = [g for n in range(1, 6) for g in all_labeled_graphs(n) if g.is_connected()]


@pytest.mark.parametrize(
    "graphs",
    [SMALL_CONNECTED, random_connected_corpus(50, 9, seed=31)],
    ids=["every-connected-graph-up-to-5", "random-connected-up-to-9"],
)
def test_right_hand_sides_equal_their_term_by_term_expansions(graphs):
    # one shifted sum per side must equal the sum of its products by x, x^2
    # and 1 + x, at every vertex and every edge
    assert len(SMALL_CONNECTED) == 1 + 1 + 4 + 38 + 728  # connected labeled graphs on 1..5 vertices
    for g in graphs:
        for u in g.vertices:
            assert vertex_reduction_rhs(g, u) == vertex_expansion(g, u), (g, u)
        for u, v in g.edges:
            assert edge_reduction_rhs(g, u, v) == edge_expansion(g, u, v), (g, u, v)


# -- path and cycle recurrences ---------------------------------------------------


def test_path_recurrence_bases():
    assert path_tdp(1) == IntPoly.zero()
    assert path_tdp(2) == IntPoly((0, 0, 1))
    assert path_tdp(3) == IntPoly((0, 0, 2, 1))
    assert path_tdp(4) == IntPoly((0, 0, 1, 2, 1))


def test_path_recurrence_step():
    # x*D(P_4) + x^2*D(P_2) + x^2*D(P_1)
    assert path_tdp(5) == IntPoly((0, 0, 0, 1, 3, 1))
    with pytest.raises(ValueError):
        path_tdp(0)


def test_cycle_recurrence_bases():
    assert cycle_tdp(3) == IntPoly((0, 0, 3, 1))
    assert cycle_tdp(5) == IntPoly((0, 0, 0, 5, 5, 1))
    with pytest.raises(ValueError):
        cycle_tdp(2)


def test_cycle_recurrence_step():
    # x*D(C_6) + x^2*D(C_4) + x^2*D(C_3), frozen against the oracle on C_7
    assert cycle_tdp(7) == IntPoly((0, 0, 0, 0, 7, 14, 7, 1))


def test_recurrences_match_oracle():
    for n in range(1, 15):
        assert path_tdp(n) == brute_force_tdp(path_graph(n)), n
    for n in range(3, 15):
        assert cycle_tdp(n) == brute_force_tdp(cycle_graph(n)), n


def cycle_binomial_form(n):
    """D_t(C_n) = sum over i of (n/i)*C(i, n-i)*x^i, plus 2(-1)^(n/2)*x^(n/2)
    for even n: an independent route to the cycle polynomial, n >= 3."""
    coeffs = [n * math.comb(i, n - i) // i if i else 0 for i in range(n + 1)]
    if n % 2 == 0:
        coeffs[n // 2] += 2 * (-1) ** (n // 2)
    return IntPoly(coeffs)


def test_walk_started_late_matches_cycle_tdp():
    # a walk started at order 40 gives C_40..C_60 in order, the same terms
    # cycle_tdp walks to from the seeds, and both match the binomial form
    terms = list(islice(_recurrence_terms("cycle", 40), 21))
    assert terms == [cycle_tdp(n) for n in range(40, 61)]
    assert terms == [cycle_binomial_form(n) for n in range(40, 61)]
    assert list(islice(_recurrence_terms("path", 1), 14)) == [brute_force_tdp(path_graph(n)) for n in range(1, 15)]


def test_walk_makes_two_ring_additions_per_term():
    adds = []

    def add(a, b):
        adds.append(1)
        return a + b

    walk = _order4_walk((0, 1, 1, 0), add, operator.neg)
    assert list(islice(walk, 4)) == [0, 1, 1, 0] and adds == []  # the seeds cost nothing
    next(islice(walk, 99, None))
    assert len(adds) == 2 * 100


@pytest.mark.parametrize(
    ("a", "b", "total"),
    [
        ((2, [1, 3]), (2, [5]), (2, [6, 3])),  # same lowest degree
        ((3, [1, 1]), (1, [2, 2, 2]), (1, [2, 2, 3, 1])),  # overlapping
        ((0, [1]), (3, [4, 5]), (0, [1, 0, 0, 4, 5])),  # a gap of two zeros
        ((5, []), (1, [7]), (1, [7])),  # zero adds nothing
        ((1, [7]), (5, []), (1, [7])),
    ],
)
def test_banded_terms_add_as_coefficient_lists(a, b, total):
    # a band (lowest degree, coefficients from it up) stands for the list
    # with that many zeros in front
    def full(band):
        return IntPoly([0] * band[0] + list(band[1]))

    got = _add_bands(a, b)
    assert (got[0], list(got[1])) == total
    assert full(got) == full(a) + full(b)


def test_every_returned_term_is_checked_once(monkeypatch):
    # ensure_valid_tdp runs on each term returned, and on no step between
    checked = []
    honest = reduction.ensure_valid_tdp
    monkeypatch.setattr(reduction, "ensure_valid_tdp", lambda p, order: checked.append(order) or honest(p, order))
    cycle_tdp(300)
    path_tdp(200)
    assert checked == [300, 200]
    checked.clear()
    list(islice(_recurrence_terms("cycle", 40), 21))
    assert checked == list(range(40, 61))


def test_invalid_walk_terms_are_refused(monkeypatch):
    # C_0 = -4 instead of 4 makes C_4 = x^4 + 4x^3 - 4x^2
    seeds, first = reduction._SEEDS["cycle"]
    monkeypatch.setitem(reduction._SEEDS, "cycle", (((-4,), *seeds[1:]), first))
    with pytest.raises(InternalConsistencyError, match="negative coefficient"):
        cycle_tdp(4)
    with pytest.raises(InternalConsistencyError, match="negative coefficient"):
        list(islice(_recurrence_terms("cycle", 3), 2))


def test_cycle_min_degree_tracks_gamma():
    for n in range(3, 16):
        low = cycle_tdp(n).min_degree()
        assert low == gamma_t(cycle_graph(n))
        assert low <= math.ceil(2 * n / 3)


# -- tree engine ---------------------------------------------------------------


def test_tree_tdp_examples():
    assert tree_tdp(star_graph(5)) == IntPoly((0, 0, 4, 6, 4, 1))
    assert tree_tdp(path_graph(2)) == IntPoly((0, 0, 1))
    assert tree_tdp(path_graph(4)) == IntPoly((0, 0, 1, 2, 1))


def test_tree_tdp_small_cases():
    assert tree_tdp(Graph([])) == IntPoly.zero()
    assert tree_tdp(Graph([0])) == IntPoly.zero()
    assert tree_tdp(disjoint_union(path_graph(2), Graph([0]))) == IntPoly.zero()


def test_tree_tdp_forest_product():
    f = disjoint_union(path_graph(3), star_graph(4))
    assert tree_tdp(f) == tree_tdp(path_graph(3)) * tree_tdp(star_graph(4))


def test_tree_tdp_rejects_cycles():
    # a cycle in any component, also one walked after the product is already 0
    cyclic = [
        cycle_graph(4),
        Graph(range(4), [(1, 2), (2, 3), (1, 3)]),  # an isolated vertex, then a triangle
        Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),  # a triangle with a pendant path
        disjoint_union(star_graph(4), cycle_graph(4)),  # a tree, then C_4
    ]
    for g in cyclic:
        for fold in (tree_tdp, forest_at_minus_one):
            with pytest.raises(ValueError, match="^input graph contains a cycle$"):
                fold(g)


def test_tree_tdp_exhaustive_small_orders():
    for n in range(1, 7):
        for t in all_labeled_trees(n):
            assert tree_tdp(t) == brute_force_tdp(t), t


def test_tree_tdp_random_trees():
    rng = random.Random(2024)
    for _ in range(40):
        t = random_tree(rng.randint(1, 16), rng.randrange(2**32))
        assert tree_tdp(t) == brute_force_tdp(t)


@pytest.mark.parametrize("n", [1000, 1500])
def test_tree_tdp_long_path_matches_recurrence(n):
    # two independent routes; a recursive engine would pass the recursion limit here
    assert tree_tdp(path_graph(n)) == path_tdp(n)


def test_tree_tdp_stars_match_binomial_formula():
    # D_t(K_{1,n-1}) = x((1+x)^(n-1) - 1): the centre is in W with any nonempty set of leaves
    for n in [*range(2, 121), *range(130, 301, 10)]:
        want = [0] + [math.comb(n - 1, k) for k in range(n)]
        want[1] = 0
        assert tree_tdp(star_graph(n)).coeffs == tuple(want), n
        if n % 10 == 0:
            # the same star rooted at a leaf: the centre carries the largest label
            leaf_rooted = Graph(range(n), ((n - 1, i) for i in range(n - 1)))
            assert tree_tdp(leaf_rooted).coeffs == tuple(want), n


def fold_products(g):
    """How many ring products the forest fold makes on g, coefficient lists."""
    calls = 0

    def mul(a, b):
        nonlocal calls
        calls += 1
        return _mul_coeffs(a, b)

    out = _fold_forest(g, _add_coeffs, mul, reduction._start_coeffs)
    assert IntPoly(out) == tree_tdp(g)
    return calls


def test_fold_products_skip_leaves_and_fresh_parents():
    # counted products, so the saving shows as work and not as time
    n = 200
    # K_{1,199}: the one product is the component's, at either root
    assert fold_products(star_graph(n)) == 1
    # rooted at a leaf: the centre, at start(198), meets a fresh parent, two
    # products by x
    assert fold_products(Graph(range(n), ((n - 1, i) for i in range(n - 1)))) == 3
    # a path rooted at an end, then at a middle vertex: at most 2 per vertex
    assert fold_products(path_graph(n)) == 2 * n - 3
    middle = Graph(range(n), [(0, 1), (0, 2), *((i, i + 2) for i in range(1, n - 2))])
    assert middle.is_connected() and max(map(middle.degree, middle.vertices)) == 2
    assert fold_products(middle) <= 2 * n


def test_tree_tdp_large_random_trees_meet_structural_facts():
    rng = random.Random(4242)
    for n in (1000, 1400, 2000):
        t = random_tree(n, rng.randrange(2**32))
        poly = tree_tdp(t)
        supports = {next(iter(t.neighbors(v))) for v in t.vertices if t.degree(v) == 1}
        assert poly.evaluate(-1) in (0, 1)
        assert poly.coeff(n) == 1  # V itself
        assert poly.coeff(n - 1) == n - len(supports)  # V - v unless v supports a leaf
        assert poly.degree() == n


def test_tree_tdp_matches_independent_enumeration():
    rng = random.Random(77)
    for _ in range(10):
        t = random_tree(rng.randint(1, 9), rng.randrange(2**32))
        assert tree_tdp(t) == naive_tdp(t)


# -- the forest fold over Z ----------------------------------------------------------

FOLD_POINTS = range(-3, 4)


def int_start(x):
    """start(k) on Python ints at the integer x: the leaf's (0, 1, 0, x), and
    after k >= 1 leaf children (0, 0, x((1+x)^k - 1), x(1+x)^k)."""
    return lambda k: (0, 0, x * ((1 + x) ** k - 1), x * (1 + x) ** k) if k else (0, 1, 0, x)


def int_fold(g, x):
    """D_t(g, x) by the forest fold on Python ints, at the integer x."""
    return _fold_forest(g, operator.add, operator.mul, int_start(x))


def assert_int_fold_matches_oracle(g):
    poly = brute_force_tdp(g)
    assert [int_fold(g, x) for x in FOLD_POINTS] == [poly.evaluate(x) for x in FOLD_POINTS], g


def test_int_fold_matches_oracle_on_every_small_labeled_tree():
    for n in range(1, 7):
        for t in all_labeled_trees(n):
            assert_int_fold_matches_oracle(t)


def test_int_fold_matches_oracle_on_random_forests():
    rng = random.Random(1606)
    for _ in range(200):
        assert_int_fold_matches_oracle(random_forest(rng.randint(1, 14), rng.randrange(2**32)))


def test_int_fold_small_cases():
    assert int_fold(Graph([]), -1) == 0
    assert int_fold(Graph([0]), -1) == 0
    with pytest.raises(ValueError):
        int_fold(cycle_graph(5), -1)


# -- verification suites -----------------------------------------------------------


def test_vertex_suite_on_named_corpus():
    corpus = [path_graph(2), path_graph(3), path_graph(4), cycle_graph(3), cycle_graph(4)]
    report = verify_vertex_reduction(corpus)
    assert report.suite == "theorem1"
    assert report.instances == 16
    assert report.passed
    assert report.to_json_dict()["failures"] == []


def test_edge_suite_on_triangle():
    report = verify_edge_reduction([cycle_graph(3)])
    assert report.suite == "theorem3"
    assert report.instances == 3
    assert report.passed


def test_suites_skip_disconnected_instances():
    for suite in (verify_vertex_reduction, verify_edge_reduction):
        report = suite([disjoint_union(path_graph(2), path_graph(2))])
        assert report.instances == 0 and report.passed


def test_conditioned_path_recurrence_suite():
    report = verify_conditioned_path_recurrence(n_max=9)
    assert report.suite == "claim1"
    assert report.instances == 5
    assert report.passed


def test_recurrence_suite():
    report = verify_recurrences(n_max=10)
    assert report.suite == "recurrence"
    assert report.instances == 10 + 8
    assert report.passed


def test_report_records_failures_honestly():
    # sabotage: compare the path polynomial against a shifted variant
    from tdpoly.reports import VerificationReport

    report = VerificationReport(suite="demo")
    report.record("n 2\n0 1", "u=0", IntPoly((0, 0, 1)), IntPoly((0, 0, 2)))
    assert not report.passed
    assert report.instances == 1
    blob = report.to_json_dict()
    assert blob["failures"][0]["lhs"] == ["0", "0", "1"]


def _off_by_one(real, when):
    """An oracle that adds 1 to the polynomial of every call where when(g, conditions) holds."""
    return lambda g, **conditions: real(g, **conditions) + IntPoly.one() if when(g, conditions) else real(g, **conditions)


def test_failures_carry_the_instance_edge_list(monkeypatch):
    # the edge-list text is formatted only for a failing check; the labels
    # 2, 5, 7 print as 0, 1, 2, as every derived graph's do
    oracle = _off_by_one(reduction.brute_force_tdp, lambda g, conditions: bool(conditions))
    monkeypatch.setattr(reduction, "brute_force_tdp", oracle)
    p3 = Graph([2, 5, 7], [(2, 5), (5, 7)])
    c4 = Graph([1, 3, 4, 9], [(1, 3), (3, 4), (4, 9), (9, 1)])
    report = verify_vertex_reduction([p3])
    assert [(f["graph"], f["param"]) for f in report.failures] == [("n 3\n0 1\n1 2", f"u={u}") for u in (2, 5, 7)]
    report = verify_edge_reduction([c4])
    want = [("n 4\n0 1\n0 3\n1 2\n2 3", f"e={e}") for e in ("(1,3)", "(1,9)", "(3,4)", "(4,9)")]
    assert [(f["graph"], f["param"]) for f in report.failures] == want
    oracle = _off_by_one(brute_force_tdp, lambda g, conditions: g.order == 5)
    monkeypatch.setattr(reduction, "brute_force_tdp", oracle)
    report = verify_recurrences(n_max=6)
    assert [(f["graph"], f["param"]) for f in report.failures] == [
        ("n 5\n0 1\n1 2\n2 3\n3 4", "path n=5"),
        ("n 5\n0 1\n0 4\n1 2\n2 3\n3 4", "cycle n=5"),
    ]
    assert report.instances == 6 + 4
