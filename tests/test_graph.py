import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpoly.errors import BudgetError, GraphParseError
from tdpoly.graph import (
    Graph,
    all_labeled_trees,
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

from helpers import join, random_tree, union


# -- parsing ----------------------------------------------------------------


def test_parse_smallest_edge():
    assert parse_edge_list("n 2\n0 1") == path_graph(2)


def test_parse_path_three():
    assert parse_edge_list("n 3\n0 1\n1 2") == path_graph(3)


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# a triangle\nn 3\n\n0 1\n1 2\n# close it\n0 2\n")
    assert g == cycle_graph(3)


def test_parse_isolated_vertices_from_header():
    g = parse_edge_list("n 4\n0 1")
    assert g.order == 4
    assert g.degree(2) == 0 and g.degree(3) == 0


@pytest.mark.parametrize(
    "text",
    [
        "0 1",  # missing header
        "n 3\n0 0",  # self-loop
        "n 3\n0 1\n0 1",  # duplicate edge
        "n 3\n1 0\n0 1",  # duplicate in reverse orientation
        "n 2\n0 3",  # index out of range
        "n 2\n0 -1",  # negative index
        "n x\n0 1",  # non-integer count
        "n 3\n0 1 2",  # malformed edge line
        "",  # empty input
    ],
)
def test_parse_errors(text):
    with pytest.raises(GraphParseError):
        parse_edge_list(text)


def test_parse_error_names_the_line():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("n 3\n0 0")


def test_edge_list_round_trip():
    for g in fixed_small_corpus():
        assert parse_edge_list(to_edge_list(g)) == g


def test_edge_list_relabels_gapped_graphs():
    g = cycle_graph(5).delete_vertex(0)  # labels 1..4
    again = parse_edge_list(to_edge_list(g))
    assert again.order == g.order and again.size == g.size


# -- derived graphs ----------------------------------------------------------


def test_delete_vertex():
    assert path_graph(2).delete_vertex(0) == Graph([1])
    cut = path_graph(3).delete_vertex(1)
    assert cut.order == 2 and cut.size == 0
    assert cycle_graph(4).delete_vertex(0) == Graph([1, 2, 3], [(1, 2), (2, 3)])


def test_delete_vertex_requires_live_vertex():
    with pytest.raises(ValueError):
        path_graph(2).delete_vertex(5)


def test_contract_vertex():
    assert path_graph(3).contract_vertex(1) == Graph([0, 2], [(0, 2)])
    assert path_graph(3).contract_vertex(0) == Graph([1, 2], [(1, 2)])
    tri = cycle_graph(4).contract_vertex(0)
    assert tri == Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])


def test_without_closed_neighborhoods():
    assert path_graph(2).without_closed_neighborhoods([0, 1]).order == 0
    assert cycle_graph(4).without_closed_neighborhoods([0]) == Graph([2])
    assert path_graph(6).without_closed_neighborhoods([0, 1]) == Graph(
        [3, 4, 5], [(3, 4), (4, 5)]
    )


def test_delete_edge():
    p = cycle_graph(4).delete_edge(0, 1)
    assert p == Graph(range(4), [(1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError):
        path_graph(3).delete_edge(0, 2)


def test_components_ordering():
    both = disjoint_union(path_graph(2), path_graph(3))
    comps = both.components()
    assert [c.order for c in comps] == [2, 3]
    assert cycle_graph(5).components() == [cycle_graph(5)]
    assert Graph([]).components() == []


def reference_components(vertices, edges):
    """Vertex sets of the components, by union-find over the edge list."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        root[find(u)] = find(v)
    comps = {}
    for v in vertices:
        comps.setdefault(find(v), set()).add(v)
    return sorted(comps.values(), key=min)


def assert_same_graph(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.vertices == want.vertices and got.edges == want.edges
    assert got.order == want.order and got.size == want.size
    assert all(got.neighbors(v) == want.neighbors(v) for v in want.vertices)


def test_derived_graphs_match_the_validating_constructor():
    # derivations skip the constructor's checks; each result must be the
    # graph the constructor builds from the same vertices and edges, on
    # gapped labels given in shuffled order and edges in either orientation
    rng = random.Random(29)
    for trial in range(60):
        n = rng.randint(1, 12)
        labels = rng.sample(range(4 * n), n)
        p = rng.uniform(0.0, 0.7)
        edges = [(a, b) if rng.random() < 0.5 else (b, a)
                 for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < p]
        g = Graph(labels, edges)
        pairs = {frozenset(e) for e in edges}
        before = {v: g.neighbors(v) for v in labels}

        def built(vs, keep=lambda e: True, extra=()):
            vs = set(vs)
            return Graph(vs, [tuple(e) for e in pairs if e <= vs and keep(e)] + list(extra))

        u = rng.choice(labels)
        assert_same_graph(g.delete_vertex(u), built(set(labels) - {u}))
        clique = list(combinations(sorted(g.neighbors(u)), 2))
        assert_same_graph(g.contract_vertex(u), built(set(labels) - {u}, extra=clique))
        if edges:
            a, b = rng.choice(edges)
            assert_same_graph(g.delete_edge(a, b), built(labels, lambda e: e != {a, b}))
        sources = rng.sample(labels, rng.randint(1, min(3, n)))
        removed = set(sources).union(*(g.neighbors(s) for s in sources))
        assert_same_graph(g.without_closed_neighborhoods(sources), built(set(labels) - removed))
        comps = g.components()
        want = reference_components(labels, edges)
        assert len(comps) == len(want), trial
        for got, vs in zip(comps, want):
            assert_same_graph(got, built(vs))
        # the parent is untouched
        assert all(g.neighbors(v) == before[v] for v in labels)
        assert g == Graph(labels, edges)


def test_connectivity_and_forest():
    assert path_graph(6).is_connected()
    assert not disjoint_union(path_graph(2), path_graph(2)).is_connected()
    assert path_graph(6).is_forest()
    assert disjoint_union(path_graph(3), star_graph(4)).is_forest()
    assert not cycle_graph(3).is_forest()


def test_connectivity_and_forest_with_isolated_vertices_and_components():
    isolated = Graph(range(3))
    assert not isolated.is_connected()
    assert isolated.is_forest()
    assert Graph([5]).is_connected() and Graph([5]).is_forest()
    assert Graph([]).is_connected() and Graph([]).is_forest()
    # a triangle, a path and three isolated vertices (2, 3, 6), labels interleaved
    mixed = Graph(range(9), [(0, 4), (4, 8), (8, 0), (1, 5), (5, 7)])
    assert len(mixed.components()) == 5
    assert not mixed.is_connected()
    assert not mixed.is_forest()
    forest = mixed.delete_edge(0, 4)
    assert forest.is_forest() and not forest.is_connected()
    assert not is_cycle_shaped(disjoint_union(cycle_graph(4), cycle_graph(5)))
    assert not is_cycle_shaped(disjoint_union(cycle_graph(3), Graph([0])))


# -- classification ----------------------------------------------------------


def test_classify_path():
    cls = classify_vertices(path_graph(4))
    assert cls.pendant == frozenset({0, 3})
    assert cls.supporting == frozenset({1, 2})
    assert cls.degree2 == frozenset({1, 2})
    assert cls.isolated == frozenset()


def test_classify_star():
    cls = classify_vertices(star_graph(5))
    assert cls.pendant == frozenset({1, 2, 3, 4})
    assert cls.supporting == frozenset({0})
    assert cls.degree2 == frozenset()


def test_classify_cycle():
    cls = classify_vertices(cycle_graph(4))
    assert cls.pendant == frozenset()
    assert cls.supporting == frozenset()
    assert cls.degree2 == frozenset(range(4))


def test_classify_isolated():
    assert classify_vertices(Graph([0, 1], [])).isolated == frozenset({0, 1})


# -- generators ---------------------------------------------------------------


def test_family_generators():
    assert cycle_graph(3) == Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    assert star_graph(4).degree(0) == 3
    assert path_graph(1) == Graph([0])
    assert path_graph(0).order == 0
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        star_graph(1)


def test_union_merges_shared_labels():
    merged = union(path_graph(2), path_graph(3))
    assert merged == path_graph(3)


def test_join_adds_all_cross_edges():
    j = join(path_graph(2), path_graph(2))
    assert j.order == 4 and j.size == 2 + 4


def test_two_corona_structure():
    g = two_corona(cycle_graph(3))
    assert g.order == 9
    assert g.size == 3 + 6
    for v in range(3):
        mids = [w for w in g.neighbors(v) if w >= 3]
        assert len(mids) == 1
        (mid,) = mids
        tips = g.neighbors(mid) - {v}
        assert len(tips) == 1 and g.degree(next(iter(tips))) == 1


def test_two_corona_of_single_vertex_is_path():
    assert two_corona(Graph([0])) == path_graph(3)


def test_random_tree_is_tree():
    for seed in range(5):
        for n in (1, 2, 7, 12):
            t = random_tree(n, seed)
            assert t.order == n and t.size == n - 1 and t.is_connected()
    assert random_tree(2, 123) == path_graph(2)
    with pytest.raises(ValueError):
        random_tree(0, 1)


def test_random_tree_deterministic_per_seed():
    assert random_tree(9, 5) == random_tree(9, 5)
    assert any(random_tree(9, 5) != random_tree(9, s) for s in range(6, 12))


def test_random_connected_graph_extremes():
    t = random_connected_graph(8, 0.0, 3)
    assert t.size == 7 and t.is_connected()
    k = random_connected_graph(6, 1.0, 3)
    assert k.size == 15
    c = random_connected_graph(3, 1.0, 0)
    assert c == cycle_graph(3)
    assert random_connected_graph(1, 0.5, 0).order == 1


def test_random_forest_is_forest():
    for seed in range(8):
        f = random_forest(10, seed)
        assert f.order == 10 and f.is_forest()


def test_all_labeled_trees_counts():
    assert sum(1 for _ in all_labeled_trees(1)) == 1
    assert sum(1 for _ in all_labeled_trees(2)) == 1
    assert sum(1 for _ in all_labeled_trees(3)) == 3
    trees = list(all_labeled_trees(4))
    assert len(trees) == 16
    assert all(t.is_forest() and t.is_connected() for t in trees)
    assert len(set(trees)) == 16


def test_all_labeled_trees_budget():
    with pytest.raises(BudgetError):
        next(all_labeled_trees(10))


def test_fixed_small_corpus_contents():
    corpus = fixed_small_corpus()
    assert len(corpus) == 5 + 4 + 3
    assert sum(g.order for g in corpus) == (2 + 3 + 4 + 5 + 6) + (3 + 4 + 5 + 6) + (4 + 5 + 6)
    assert all(g.is_connected() for g in corpus)


def test_random_connected_corpus_reproducible():
    a = random_connected_corpus(12, 9, 42)
    b = random_connected_corpus(12, 9, 42)
    assert a == b
    assert all(g.is_connected() and 2 <= g.order <= 9 for g in a)
    assert a != random_connected_corpus(12, 9, 43)


# -- shape predicates ---------------------------------------------------------


def test_shape_predicates():
    assert is_path_shaped(path_graph(5))
    assert not is_path_shaped(cycle_graph(5))
    assert is_cycle_shaped(cycle_graph(7))
    assert not is_cycle_shaped(path_graph(7))
    assert is_star_shaped(star_graph(6))
    assert is_star_shaped(path_graph(3))  # P_3 = S_3
    assert not is_star_shaped(path_graph(4))
    assert not is_cycle_shaped(disjoint_union(cycle_graph(3), cycle_graph(3)))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_tree_property(n, seed):
    t = random_tree(n, seed)
    assert t.order == n and t.size == n - 1 and t.is_connected()


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_connected_graph_property(n, p, seed):
    g = random_connected_graph(n, p, seed)
    assert g.order == n and g.is_connected()
    assert g.size >= n - 1


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_two_corona_order_property(n, seed):
    base = random_connected_graph(n, 0.4, seed)
    g = two_corona(base)
    assert g.order == 3 * base.order
    assert g.size == base.size + 2 * base.order


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 2)])
