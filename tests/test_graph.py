import random
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpoly.errors import GraphParseError
from tdpoly.extremal import free_trees
from tdpoly.graph import (
    Graph,
    _prufer_edges,
    classify_vertices,
    cycle_graph,
    disjoint_union,
    fixed_small_corpus,
    is_cycle_shaped,
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
from tdpoly.polynomial import IntPoly

from helpers import all_labeled_trees, is_path_shaped, join, random_tree, union


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


# The parser is the boundary for edge-list text: it checks the text and
# words each error itself, then builds the graph through the public
# constructor, whose own checks the parsed edges always pass (the benchmark
# harness times that constructor on every `poly --in`). The messages are
# written out here by hand.
@pytest.mark.parametrize(
    "text, message",
    [
        ("", "missing 'n <count>' header line"),
        ("# only a comment\n\n", "missing 'n <count>' header line"),
        ("0 1\n", "line 1: expected header 'n <count>', got '0 1'"),
        ("# header next\nn\n", "line 2: expected header 'n <count>', got 'n'"),
        ("n 3 4\n", "line 1: expected header 'n <count>', got 'n 3 4'"),
        ("n x\n0 1", "line 1: vertex count 'x' is not an integer"),
        ("n -2\n", "line 1: vertex count must be nonnegative"),
        ("n 3\n0 1 2", "line 2: expected '<u> <v>', got '0 1 2'"),
        ("n 3\n0\n", "line 2: expected '<u> <v>', got '0'"),
        ("n 3\n0 a", "line 2: non-integer vertex in '0 a'"),
        ("n 3\n0 1\n\n2 2", "line 4: self-loop at vertex 2"),
        ("n 2\n0 3", "line 2: vertex index out of range [0, 2) in '0 3'"),
        ("n 2\n0 -1", "line 2: vertex index out of range [0, 2) in '0 -1'"),
        ("n 3\n0 1\n0 1", "line 3: duplicate edge (0, 1)"),
        ("n 3\n0 1\n1 0", "line 3: duplicate edge (1, 0)"),
        ("n 3\n2 1\n# again\n1 2", "line 4: duplicate edge (1, 2)"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(GraphParseError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


def test_parse_crlf_comments_and_blank_lines():
    text = "# a path\r\nn 4\r\n\r\n1 0\r\n  # indented comment\r\n1 2\r\n 3 2 \r\n"
    assert_same_graph(parse_edge_list(text), Graph(range(4), [(0, 1), (1, 2), (2, 3)]))
    assert_same_graph(parse_edge_list("n 3\r\n"), Graph(range(3)))


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


def test_disjoint_union_keeps_the_sides_apart():
    # g2 moves as a block to just above g1's largest label, so a label below
    # g2's smallest cannot land on one of g1's: shifted by g1's largest + 1
    # alone, (-1, 0) became (1, 2) and the union was P_3
    both = disjoint_union(Graph([0, 1], [(0, 1)]), Graph([-1, 0], [(-1, 0)]))
    assert both == Graph(range(4), [(0, 1), (2, 3)])
    assert [c.order for c in both.components()] == [2, 2]
    assert disjoint_union(path_graph(2), Graph([5, 7], [(5, 7)])) == Graph([0, 1, 2, 4], [(0, 1), (2, 4)])


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
    # ==, hash and size come first, while got's edge tuple may be unread
    assert got == want and hash(got) == hash(want)
    assert got.order == want.order and got.size == want.size
    assert got.vertices == want.vertices and got.edges == want.edges
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
            kept = [tuple(e) for e in pairs if e <= vs and keep(e)] + list(extra)
            want = Graph(vs, kept)
            # labels ascending, edges as ascending (min, max) pairs
            assert want.vertices == tuple(sorted(vs))
            assert want.edges == tuple(sorted({(min(e), max(e)) for e in kept}))
            return want

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
        # the parent, whose edge tuple was never read, is untouched
        assert all(g.neighbors(v) == before[v] for v in labels)
        assert g == Graph(labels, edges) and g.size == len(pairs)
        assert g.edges == tuple(sorted((min(e), max(e)) for e in pairs))


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


def test_classify_mixed_graph():
    # 0 isolated; the P_2 1-2, whose ends are each pendant and supporting; the
    # spider with centre 3 (degree 3) and legs 3-4-5, 3-6-7 and 3-8
    g = Graph(range(9), [(1, 2), (3, 4), (4, 5), (3, 6), (6, 7), (3, 8)])
    cls = classify_vertices(g)
    assert cls.pendant == frozenset({1, 2, 5, 7, 8})
    assert cls.supporting == frozenset({1, 2, 3, 4, 6})
    assert cls.degree2 == frozenset({4, 6})
    assert cls.isolated == frozenset({0})


def test_queries_on_a_dead_label_raise():
    g = path_graph(10).delete_vertex(9)
    for query in (g.neighbors, g.degree):
        with pytest.raises(ValueError, match="^vertex 9 is not live in this graph$"):
            query(9)


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
    # two edges joined are K_4, also when the second one's labels reach
    # below the first one's
    for second in (path_graph(2), Graph([-1, 0], [(-1, 0)])):
        j = join(path_graph(2), second)
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


def test_random_forest_thins_its_pruefer_tree_in_edge_order():
    # reference: the same draws, thinning the edges of the tree built as a Graph
    for n in range(2, 15):
        for seed in range(20):
            rng = random.Random(seed)
            tree = Graph(range(n), _prufer_edges([rng.randrange(n) for _ in range(n - 2)], n))
            drop = rng.uniform(0.0, 0.5)
            kept = [e for e in tree.edges if rng.random() >= drop]
            assert random_forest(n, seed) == Graph(range(n), kept), (n, seed)


def test_all_labeled_trees_counts():
    assert sum(1 for _ in all_labeled_trees(1)) == 1
    assert sum(1 for _ in all_labeled_trees(2)) == 1
    assert sum(1 for _ in all_labeled_trees(3)) == 3
    trees = list(all_labeled_trees(4))
    assert len(trees) == 16
    assert all(t.is_forest() and t.is_connected() for t in trees)
    assert len(set(trees)) == 16


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


def test_star_shape_needs_two_vertices():
    assert not is_star_shaped(Graph([], []))
    assert not is_star_shaped(Graph([0], []))


def test_graph_equality_and_repr():
    g = Graph([0, 1, 2], [(1, 0), (1, 2)])
    assert g != [[1], [0, 2], [1]] and g != "Graph"  # a non-Graph is never equal
    assert g.__eq__(None) is NotImplemented
    assert repr(g) == "Graph(vertices=[0, 1, 2], edges=[(0, 1), (1, 2)])"


# generators and counters that refuse their arguments, each with its message
@pytest.mark.parametrize(
    ("call", "message"),
    [
        pytest.param(lambda: path_graph(-1), "path order must be nonnegative", id="path_graph n<0"),
        pytest.param(lambda: random_connected_graph(0, 0.5, 1), "order must be at least 1", id="connected n<1"),
        pytest.param(
            lambda: random_connected_graph(4, -0.1, 1), "edge probability must lie in [0, 1]", id="connected p<0"
        ),
        pytest.param(
            lambda: random_connected_graph(4, 1.5, 1), "edge probability must lie in [0, 1]", id="connected p>1"
        ),
        pytest.param(lambda: random_forest(0, 1), "order must be at least 1", id="random_forest n<1"),
        pytest.param(lambda: random_connected_corpus(-1, 5, 1), "count must be nonnegative", id="corpus count<0"),
        pytest.param(
            lambda: random_connected_corpus(3, 4, 1, n_min=5), "need 1 <= n_min <= n_max", id="corpus n_min>n_max"
        ),
        pytest.param(lambda: free_trees(0), "tree order must be at least 1", id="free_trees n<1"),
        pytest.param(
            lambda: IntPoly((0, 1)).coeff(-1), "coefficient index must be nonnegative", id="IntPoly.coeff i<0"
        ),
    ],
)
def test_refusals_name_the_bad_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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
    # the public constructor is the boundary for user-given graphs
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 2)])
    with pytest.raises(ValueError) as info:
        Graph([3, 5], [(5, 5)])
    assert str(info.value) == "self-loop at vertex 5"
    with pytest.raises(ValueError) as info:
        Graph([3, 5], [(3, 5), (7, 3)])
    assert str(info.value) == "edge (7, 3) references an unknown vertex"


def test_graph_rejects_labels_that_are_not_ints():
    # int() would truncate: [0, 0.9] would be one vertex, and the edge to
    # the non-vertex 1.2 the edge (0, 1)
    for vertices, edges, name in (
        ([0, 0.9], [], "float"),
        ([0, 1.7], [(0, 1.2)], "float"),
        ([0, 1], [(0, 1.2)], "float"),
        ([0, 1], [(0.5, 1)], "float"),
        ([0, "1"], [], "str"),
    ):
        with pytest.raises(TypeError) as info:
            Graph(vertices, edges)
        assert str(info.value) == f"vertex labels must be exact ints, got {name}"
    # numpy's ints are exact, and read as Python ints
    g = Graph(np.arange(3), [(np.int64(0), np.int32(1))])
    assert_same_graph(g, Graph(range(3), [(0, 1)]))
    assert {type(v) for v in g.vertices} == {int}


def test_generators_match_the_validating_constructor():
    # the generators build through the unchecked constructor; each graph must
    # be the one the validating constructor builds from the same neighbours,
    # compared before the generated graph's edge tuple is first read
    def checked(g):
        return Graph(range(g.order), [(v, w) for v in range(g.order) for w in g.neighbors(v)])

    for n in range(0, 12):
        assert_same_graph(path_graph(n), checked(path_graph(n)))
        assert_same_graph(path_graph(n), Graph(range(n), [(i + 1, i) for i in range(n - 1)]))
    for n in range(3, 12):
        assert_same_graph(cycle_graph(n), Graph(range(n), [(i, (i + 1) % n) for i in range(n)]))
    for n in range(2, 12):
        assert_same_graph(star_graph(n), Graph(range(n), [(i, 0) for i in range(1, n)]))
    rng = random.Random(31)
    for _ in range(150):
        n, seed = rng.randint(1, 14), rng.randrange(2**32)
        g = random_connected_graph(n, rng.random(), seed)
        assert_same_graph(g, checked(g))
        assert g.is_connected()
        f = random_forest(n, seed)
        assert_same_graph(f, checked(f))
        assert f.is_forest()
    # the tree scans' example walk builds its trees from Pruefer edge lists
    for n in range(2, 7):
        for seq in product(range(n), repeat=n - 2):
            edges = _prufer_edges(seq, n)
            assert_same_graph(Graph._from_edges(range(n), edges), Graph(range(n), edges))
    for n in range(1, 8):
        for edges, _, _ in free_trees(n):
            assert_same_graph(Graph._from_edges(range(n), edges), Graph(range(n), edges))
    # gapped labels in shuffled order, edges either way round
    for _ in range(40):
        labels = rng.sample(range(50), rng.randint(1, 12))
        edges = [(a, b) if rng.random() < 0.5 else (b, a)
                 for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < 0.4]
        assert_same_graph(Graph._from_edges(labels, edges), Graph(labels, edges))
    assert_same_graph(disjoint_union(cycle_graph(3), path_graph(2)), Graph(range(5), [(0, 1), (1, 2), (2, 0), (3, 4)]))
    assert_same_graph(disjoint_union(Graph([]), path_graph(2)), path_graph(2))
    gapped = cycle_graph(5).delete_vertex(2)  # labels 0, 1, 3, 4
    assert_same_graph(
        disjoint_union(gapped, gapped),
        Graph([0, 1, 3, 4, 5, 6, 8, 9], [(0, 1), (3, 4), (4, 0), (5, 6), (8, 9), (9, 5)]),
    )
    assert_same_graph(two_corona(path_graph(2)), Graph(range(6), [(0, 1), (0, 2), (2, 3), (1, 4), (4, 5)]))
    assert_same_graph(two_corona(gapped), Graph(
        [0, 1, 3, 4, *range(5, 13)],
        [(0, 1), (3, 4), (4, 0), (0, 5), (5, 6), (1, 7), (7, 8), (3, 9), (9, 10), (4, 11), (11, 12)],
    ))
    assert_same_graph(two_corona(Graph([])), Graph([]))
