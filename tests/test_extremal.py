import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, permutations
from math import factorial

import pytest

from tdpoly import cli, extremal, oracle
from tdpoly.extremal import (
    _gamma_by_cover_search,
    degree2_row,
    free_trees,
    gamma_bounds_row,
    gamma_scan_corpus,
    is_two_corona,
    minimal_element,
    minimal_tree_scan,
    scan_degree2,
    scan_gamma_bounds,
    scan_tree_bound,
    tree_signature,
    verify_basic_identities,
)
from tdpoly.graph import (
    Graph,
    cycle_graph,
    disjoint_union,
    fixed_small_corpus,
    path_graph,
    random_connected_graph,
    random_forest,
    star_graph,
    to_edge_list,
    two_corona,
)
from tdpoly.polynomial import IntPoly

from helpers import (
    labeled_tree_census,
    naive_gamma,
    non_supporting_pair_set,
    pairwise_minimal_flags,
    random_tree,
    supporting_identity,
    tree_bound_row,
    two_corona_by_partition,
)


# -- tree coefficient bound ----------------------------------------------------


def test_tree_bound_rows():
    row = tree_bound_row(star_graph(6))
    assert row["bound_holds"] and row["equals_star_poly"] and row["is_star"]
    row = tree_bound_row(path_graph(4))
    assert row["bound_holds"] and not row["equals_star_poly"]
    row = tree_bound_row(path_graph(2))
    assert row["bound_holds"] and row["equals_star_poly"]  # P_2 = S_2


def test_tree_bound_row_rejects_non_trees():
    with pytest.raises(ValueError):
        tree_bound_row(cycle_graph(4))
    with pytest.raises(ValueError):
        tree_bound_row(disjoint_union(path_graph(2), path_graph(2)))


def test_scan_tree_bound_order_four():
    report = scan_tree_bound(4)
    assert report.summary["labeled_trees"] == 16
    assert report.summary["distinct_polys"] == 2
    assert report.summary["all_bound_hold"]
    assert report.summary["equality_exactly_stars"]
    assert report.summary["max_count_at_one"] == 7  # 2^(4-1) - 1, the star
    assert report.summary["max_attained_only_by_star_poly"]
    polys = [row["poly"] for row in report.rows]
    assert polys == [IntPoly((0, 0, 1, 2, 1)), IntPoly((0, 0, 3, 3, 1))]


def test_scan_tree_bound_rejects_tiny():
    with pytest.raises(ValueError):
        scan_tree_bound(1)


def test_minimal_tree_scan_order_four():
    report = minimal_tree_scan(4)
    assert report.summary["labeled_trees"] == 16
    assert report.summary["distinct_polys"] == 2
    assert report.summary["minimal_exists"] is True
    assert report.summary["minimal_poly"] == IntPoly((0, 0, 1, 2, 1))
    flags = {str(row["poly"]): row["is_minimal"] for row in report.rows}
    assert flags == {"x^4 + 2x^3 + x^2": True, "x^4 + 3x^3 + 3x^2": False}


def test_minimal_tree_scan_order_five():
    report = minimal_tree_scan(5)
    assert report.summary["distinct_polys"] == 3
    assert report.summary["minimal_exists"] is True
    assert report.summary["minimal_poly"] == IntPoly((0, 0, 0, 1, 3, 1))


# -- unlabeled tree census -------------------------------------------------------

# Free trees of order n = 1..14 (OEIS A000055) and Cayley's n^(n-2) for n = 2..9.
FREE_TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159,
}
CAYLEY = {2: 1, 3: 3, 4: 16, 5: 125, 6: 1296, 7: 16807, 8: 262144, 9: 4782969}


# orders past 10 are counted by test_tree_bound_scan_past_the_example_walk_cap,
# so the largest census runs once
@pytest.mark.parametrize("n", range(1, 11))
def test_free_tree_counts(n):
    trees = free_trees(n)
    assert len(trees) == FREE_TREE_COUNTS[n]
    assert len({form for _, form, _ in trees}) == len(trees)
    for edges, _, _ in trees:
        t = Graph(range(n), edges)
        assert t.is_connected() and t.is_forest()


@pytest.mark.parametrize("n", sorted(CAYLEY))
def test_tree_scans_count_cayley_labeled_trees(n):
    report = scan_tree_bound(n)
    assert report.summary["labeled_trees"] == CAYLEY[n]
    assert sum(row["labeled_count"] for row in report.rows) == CAYLEY[n]


# sha256 of the stdout of `scan --suite tree-bound --n N` (JSON), frozen from
# the census that weighted each class by n!/|Aut(T)|, before the labelings were
# counted while growing the trees
TREE_BOUND_DIGESTS = {
    10: "ff08195ed965626fdf903826d9f14acffca8d21e83c63d21c98a100592edbdad",
    11: "3c695a37e3d86d927417e2c7f67746aecdecf3df22a9f2f7ae30f809c9c8d6fc",
    12: "463ece26bfdcbfebff1a4b609bdc593a90fe5de0f17c13bc99b51e31a4d4e157",
    13: "6569955ac62588ae71cae8a1e50cf529aa07c2a40173542a3179929a40120b72",
    14: "67f74ff7b3731e08209fc430719f2a4a03cf6aee7172c2adf9de88f6df655747",
}


@pytest.mark.parametrize("n", range(10, 15))
def test_tree_bound_scan_past_the_example_walk_cap(capsys, monkeypatch, n):
    # tree-bound has no example walk, so it runs past minimal-tree's cap of 9
    censuses = []
    honest = extremal.free_trees
    monkeypatch.setattr(extremal, "free_trees", lambda k: censuses.append(honest(k)) or censuses[-1])
    code = cli.main(["scan", "--suite", "tree-bound", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""  # exit 0: every check holds
    summary = json.loads(captured.out)["summary"]
    assert [len(trees) for trees in censuses] == [FREE_TREE_COUNTS[n]]
    assert summary["labeled_trees"] == str(n ** (n - 2))  # Cayley's formula
    for flag in ("all_bound_hold", "equality_exactly_stars", "max_attained_only_by_star_poly"):
        assert summary[flag] is True, flag
    # every row's labeled_count too, not only their total
    assert hashlib.sha256(captured.out.encode()).hexdigest() == TREE_BOUND_DIGESTS[n]


def automorphism_count(n, edges):
    """Vertex permutations that map the edge set onto itself, by enumeration."""
    edge_set = {frozenset(e) for e in edges}
    return sum(
        all(frozenset((perm[u], perm[v])) in edge_set for u, v in edges)
        for perm in permutations(range(n))
    )


def test_tree_signature_automorphisms_match_enumeration():
    # a class's labelings and its automorphisms multiply to n! (orbit-stabilizer)
    for n in range(1, 8):
        for edges, _, count in free_trees(n):
            assert count * automorphism_count(n, edges) == factorial(n), edges


def test_tree_signature_names_isomorphism_classes():
    assert tree_signature(4, path_graph(4).edges) == "[(())(())]"  # symmetric bicentre
    star_form = tree_signature(5, star_graph(5).edges)
    assert [count for _, form, count in free_trees(5) if form == star_form] == [5]  # one label per centre
    # relabelings of one tree share a form; the path and the star of order 5 differ
    rng = random.Random(7)
    for n in (5, 8, 11):
        t = random_tree(n, rng.randrange(2**32))
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(perm[u], perm[v]) for u, v in t.edges]
        assert tree_signature(n, relabeled) == tree_signature(n, t.edges)
    assert tree_signature(5, path_graph(5).edges) != star_form


@pytest.mark.parametrize("n", range(2, 8))
def test_census_matches_labeled_route(n):
    labeled = labeled_tree_census(n)
    bound_rows = scan_tree_bound(n).rows
    minimal_rows = minimal_tree_scan(n).rows
    assert [row["poly"] for row in bound_rows] == sorted(labeled, key=lambda p: p.coeffs)
    for bound_row, minimal_row in zip(bound_rows, minimal_rows):
        want = labeled[bound_row["poly"]]
        assert minimal_row["poly"] == bound_row["poly"]
        assert bound_row["labeled_count"] == minimal_row["labeled_count"] == want["labeled_count"]
        assert bound_row["star_count"] == want["star_count"]
        assert minimal_row["example"] == want["example"]


# -- coefficient-wise minimum ------------------------------------------------------


def test_minimal_element_matches_pairwise_rule():
    rng = random.Random(20261018)
    for trial in range(400):
        width = rng.randint(1, 6)
        top = rng.choice((2, 5, 9))
        polys = [
            IntPoly(rng.randint(0, top) for _ in range(rng.randint(1, width)))
            for _ in range(rng.randint(2, 7))
        ]
        if trial % 3 == 0:
            polys.append(rng.choice(polys))  # a tie: the same polynomial twice
        if trial % 5 == 0:
            low = [min(p.coeff(i) for p in polys) for i in range(width)]
            polys.append(IntPoly(low))  # the family's minimum, so a minimal member exists
        least = minimal_element(polys)
        assert [p == least for p in polys] == pairwise_minimal_flags(polys), polys
    incomparable = [IntPoly((0, 0, 1, 3)), IntPoly((0, 0, 2, 2))]
    assert minimal_element(incomparable) is None
    assert pairwise_minimal_flags(incomparable) == [False, False]
    assert minimal_element([]) is None


# -- coefficient identities ------------------------------------------------------


def test_supporting_identity_examples():
    assert supporting_identity(path_graph(4))  # 2 = 4 - 2
    assert supporting_identity(cycle_graph(6))  # 6 = 6 - 0
    assert supporting_identity(star_graph(5))  # 4 = 5 - 1


def test_supporting_identity_rejects_isolated():
    with pytest.raises(ValueError):
        supporting_identity(Graph([0]))
    with pytest.raises(ValueError):
        supporting_identity(disjoint_union(path_graph(2), Graph([0])))


def test_non_supporting_pairs():
    assert non_supporting_pair_set(cycle_graph(4)) == ((0, 2), (1, 3))
    assert non_supporting_pair_set(path_graph(3)) == ((0, 2),)
    assert non_supporting_pair_set(star_graph(5)) == ()


def test_degree2_row_cycle_four():
    row = degree2_row(cycle_graph(4))
    assert row["supporting_count"] == 0
    assert row["coeff_n_minus_2"] == 4
    assert row["bound"] == 2  # 6 - 0 - 0 - 4
    assert row["degree2_count"] == 4
    assert row["bound_holds"]
    assert row["pair_count"] == 2
    assert row["identity_holds"]


def test_degree2_row_path_three():
    row = degree2_row(path_graph(3))
    assert row["supporting_count"] == 1
    assert row["coeff_n_minus_2"] == 0
    assert row["bound"] == 1  # 3 - 0 - 2 - 0
    assert row["degree2_count"] == 1  # equality
    assert row["bound_holds"] and row["identity_holds"]
    assert row["pair_count"] == 1


def test_degree2_row_star_five():
    row = degree2_row(star_graph(5))
    assert row["supporting_count"] == 1
    assert row["coeff_n_minus_2"] == 6  # C(4, 2)
    assert row["bound"] == 0  # 10 - 0 - 4 - 6
    assert row["degree2_count"] == 0
    assert row["bound_holds"] and row["identity_holds"]


def test_degree2_row_rejects_isolated():
    with pytest.raises(ValueError):
        degree2_row(Graph([0, 1]))


def test_scan_degree2_small_corpus():
    report = scan_degree2(trials=30, n_max=9, seed=42)
    assert report.summary["instances"] == 30
    assert report.summary["all_bounds_hold"]
    assert report.summary["all_identities_hold"]


# -- gamma bounds -----------------------------------------------------------------


def test_is_two_corona_examples():
    assert is_two_corona(two_corona(cycle_graph(3)))
    assert is_two_corona(path_graph(3))  # 2-corona of a single vertex
    assert is_two_corona(path_graph(6))  # 2-corona of P_2
    assert not is_two_corona(cycle_graph(6))
    assert not is_two_corona(path_graph(4))
    assert not is_two_corona(star_graph(6))
    assert not is_two_corona(Graph([]))


@pytest.mark.parametrize("n", [3, 6])
def test_is_two_corona_matches_a_partition_search_on_every_graph(n):
    pairs = list(combinations(range(n), 2))
    coronas = 0
    for mask in range(1 << len(pairs)):
        g = Graph(range(n), [e for i, e in enumerate(pairs) if mask >> i & 1])
        found = two_corona_by_partition(g)
        assert is_two_corona(g) == found, g
        coronas += found
    # 3 labeled P_3; on 6 vertices, 2-coronas of K_1 + K_1 (P_3 + P_3) and of K_2 (P_6)
    assert coronas == {3: 3, 6: 10 * 9 + 360}[n]


def test_gamma_bounds_rows():
    row = gamma_bounds_row(cycle_graph(6))
    assert row["gamma_t"] == 4 and row["equality"] and row["equality_shape"] == "C6"
    assert row["consistent"]
    row = gamma_bounds_row(two_corona(cycle_graph(3)))
    assert row["gamma_t"] == 6 and row["equality"] and row["equality_shape"] == "two-corona"
    assert row["consistent"]
    row = gamma_bounds_row(path_graph(5))
    assert row["gamma_t"] == 3 and not row["equality"] and row["equality_shape"] is None
    assert row["lower_ok"] and row["upper_ok"] and row["consistent"]
    row = gamma_bounds_row(cycle_graph(3))
    assert row["equality"] and row["equality_shape"] == "C3" and row["consistent"]


def test_gamma_bounds_row_rejects_small_or_disconnected():
    with pytest.raises(ValueError):
        gamma_bounds_row(path_graph(2))
    with pytest.raises(ValueError):
        gamma_bounds_row(disjoint_union(cycle_graph(3), cycle_graph(3)))


def test_scan_gamma_bounds():
    graphs = gamma_scan_corpus(trials=10, n_max=8, seed=42)
    report = scan_gamma_bounds(graphs, {"seed": 42})
    assert report.summary["instances"] == len(graphs)
    assert report.summary["all_ok"]
    # the generated coronas guarantee equality cases appear
    assert report.summary["equality_instances"] >= 10


def test_scan_report_csv_shape():
    report = scan_gamma_bounds([cycle_graph(3)])
    text = report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("graph,n,gamma_t")
    assert len(lines) == 2
    assert "true" in lines[1]


# -- structural identity suite -----------------------------------------------------


def test_gamma_row_fails_on_a_wrong_min_degree(monkeypatch):
    # the gamma-is-min-degree row compares the oracle's least degree with an
    # independent cover search, so a broken min_degree must show as a failure
    corpus = fixed_small_corpus()
    assert verify_basic_identities(corpus).passed
    real = IntPoly.min_degree
    monkeypatch.setattr(IntPoly, "min_degree", lambda p: None if real(p) is None else real(p) + 1)
    report = verify_basic_identities(corpus)
    failed = {f["param"] for f in report.failures}
    assert failed == {"gamma-is-min-degree"}
    assert len(report.failures) == len(corpus)


def test_cover_search_matches_plain_enumeration():
    rng = random.Random(29)
    graphs = [Graph([]), Graph([0]), Graph([3, 8], [(3, 8)]), disjoint_union(path_graph(2), Graph([0]))]
    for _ in range(60):
        n = rng.randint(1, 11)
        g = random_connected_graph(n, rng.uniform(0.0, 0.5), rng.randrange(2**32))
        graphs += [g, random_forest(n, rng.randrange(2**32)), disjoint_union(g, cycle_graph(rng.randint(3, 5)))]
    for g in graphs:
        assert _gamma_by_cover_search(g) == naive_gamma(g), g.edges


def test_cover_search_on_long_paths_and_cycles():
    # gamma_t(P_n) = gamma_t(C_n) = floor(n/2) + ceil(n/4) - floor(n/4), n >= 3;
    # at these orders a search over all k-subsets would not finish
    for n in range(3, 61):
        expected = n // 2 + (n % 4 != 0)
        assert _gamma_by_cover_search(path_graph(n)) == expected, n
        assert _gamma_by_cover_search(cycle_graph(n)) == expected, n


def test_prop1_enumerates_each_graph_once(monkeypatch):
    # the component-product row counts copies of the components and the
    # supporting-vertex row reads the recorded polynomial, so each corpus
    # graph itself goes through one unconditioned enumeration
    corpus = fixed_small_corpus() + [
        Graph([]),
        Graph([0]),
        disjoint_union(path_graph(2), Graph([0])),
        disjoint_union(path_graph(3), cycle_graph(4)),
        random_connected_graph(9, 0.3, 5),
    ]
    calls = Counter()
    real = oracle.brute_force_tdp

    def counting(g, **conditions):
        if not conditions:
            calls[id(g)] += 1
        return real(g, **conditions)

    monkeypatch.setattr(extremal, "brute_force_tdp", counting)
    monkeypatch.setattr(oracle, "brute_force_tdp", counting)
    assert verify_basic_identities(corpus).passed
    assert [calls[id(g)] for g in corpus] == [1] * len(corpus)


def test_prop1_supporting_row_fails_on_a_wrong_support_count(monkeypatch):
    # the row compares n - |supporting| with the recorded d_t(G, n-1), so a
    # classification that misses the supporting vertices must show
    corpus = [path_graph(4), cycle_graph(5), star_graph(5)]
    real = extremal.classify_vertices
    monkeypatch.setattr(extremal, "classify_vertices", lambda g: replace(real(g), supporting=frozenset()))
    report = verify_basic_identities(corpus)
    assert [(f["graph"], f["param"]) for f in report.failures] == [
        (to_edge_list(path_graph(4)), "supporting-identity"),
        (to_edge_list(star_graph(5)), "supporting-identity"),
    ]


def test_verify_basic_identities_passes():
    corpus = fixed_small_corpus() + [
        Graph([0]),
        Graph([]),
        disjoint_union(path_graph(2), Graph([0])),
        disjoint_union(path_graph(3), cycle_graph(4)),
    ]
    report = verify_basic_identities(corpus)
    assert report.suite == "prop1"
    assert report.passed
    assert report.instances > len(corpus)
