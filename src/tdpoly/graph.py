"""Immutable labeled simple graphs and the reduction operators on them.

Vertex labels are stable: a derived graph (vertex/edge deletion,
contraction, closed-neighborhood removal) keeps the surviving labels of its
parent, so a condition like "v is in the dominating set" stays meaningful
across the derivation. The empty graph (no live vertices) is a valid value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, GraphParseError

# all_labeled_trees(n) decodes n^(n-2) sequences; 9^7 is the desk-scale limit.
# The tree scans keep the same cap for their example walk.
MAX_TREE_ENUM_ORDER = 9


class Graph:
    """Simple undirected graph over an arbitrary set of integer labels."""

    __slots__ = ("_adj", "_key")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, set[int]] = {int(v): set() for v in vertices}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}
        self._key = (
            tuple(sorted(self._adj)),
            tuple(sorted((min(u, v), max(u, v)) for u, v in self._iter_edges())),
        )

    def _iter_edges(self) -> Iterator[tuple[int, int]]:
        for v, nbrs in self._adj.items():
            for w in nbrs:
                if v < w:
                    yield (v, w)

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        """Number of live vertices."""
        return len(self._adj)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Live labels in ascending order."""
        return self._key[0]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (min, max) pairs in ascending order."""
        return self._key[1]

    @property
    def size(self) -> int:
        """Number of edges."""
        return len(self._key[1])

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        self._require_live(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def _require_live(self, v: int) -> None:
        if v not in self._adj:
            raise ValueError(f"vertex {v} is not live in this graph")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Graph(vertices={list(self.vertices)!r}, edges={list(self.edges)!r})"

    # -- derived graphs ---------------------------------------------------

    @classmethod
    def _derived(cls, adj: dict[int, frozenset[int]], edges: list[tuple[int, int]]) -> "Graph":
        """Graph from a valid graph's adjacency after a derivation, with its
        edges as ascending (min, max) pairs: the constructor's checks are
        skipped, since a derivation keeps the graph simple and symmetric.

        ``edges`` is a list: built from generators instead, these tuples
        raised the peak RSS of 16 scan-verify benchmark cycles by 2 MB."""
        g = object.__new__(cls)
        g._adj = adj
        g._key = (tuple(sorted(adj)), tuple(edges))
        return g

    def _induced(self, keep: set[int]) -> "Graph":
        return Graph._derived(
            {v: self._adj[v] & keep for v in keep},
            [(u, v) for u, v in self.edges if u in keep and v in keep],
        )

    def delete_vertex(self, u: int) -> "Graph":
        """Induced subgraph on the live vertices minus u."""
        self._require_live(u)
        return self._induced(set(self._adj) - {u})

    def contract_vertex(self, u: int) -> "Graph":
        """Remove u and make its neighborhood a clique.

        For deg(u) <= 1 this coincides with plain deletion.
        """
        self._require_live(u)
        nu = self._adj[u]
        adj = {v: (nbrs | nu) - {u, v} if v in nu else nbrs for v, nbrs in self._adj.items() if v != u}
        edges = {(a, b) for a, b in self.edges if a != u and b != u}
        edges.update(combinations(sorted(nu), 2))
        return Graph._derived(adj, sorted(edges))

    def delete_edge(self, u: int, v: int) -> "Graph":
        """Remove the edge uv, both endpoints stay."""
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) is not present")
        adj = dict(self._adj)
        adj[u] -= {v}
        adj[v] -= {u}
        edge = (min(u, v), max(u, v))
        return Graph._derived(adj, [e for e in self.edges if e != edge])

    def without_closed_neighborhoods(self, sources: Sequence[int]) -> "Graph":
        """Induced subgraph on V minus the union of N[s] over the sources.

        All closed neighborhoods are taken in this graph as it stands;
        callers wanting e.g. "delete the edge first" must derive first.
        """
        removed: set[int] = set()
        for s in sources:
            self._require_live(s)
            removed |= self._adj[s]
            removed.add(s)
        return self._induced(set(self._adj) - removed)

    def _component_sets(self) -> Iterator[set[int]]:
        """Vertex sets of the connected components, by their smallest label."""
        seen: set[int] = set()
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for w in self._adj[v]:
                    if w not in comp:
                        comp.add(w)
                        frontier.append(w)
            seen |= comp
            yield comp

    def components(self) -> list["Graph"]:
        """Connected components ordered by their smallest label."""
        return [self._induced(comp) for comp in self._component_sets()]

    def _component_count(self) -> int:
        return sum(1 for _ in self._component_sets())

    def is_connected(self) -> bool:
        return self.order <= 1 or self._component_count() == 1

    def is_forest(self) -> bool:
        return self.size == self.order - self._component_count()


@dataclass(frozen=True)
class VertexClassification:
    """Degree-based vertex classes used throughout the bound checks."""

    pendant: frozenset[int]
    supporting: frozenset[int]
    degree2: frozenset[int]
    isolated: frozenset[int]


def classify_vertices(g: Graph) -> VertexClassification:
    """Pendants (degree 1), their neighbors (supporting), degree-2, isolated."""
    pendant = frozenset(v for v in g.vertices if g.degree(v) == 1)
    supporting = frozenset(next(iter(g.neighbors(p))) for p in pendant)
    degree2 = frozenset(v for v in g.vertices if g.degree(v) == 2)
    isolated = frozenset(v for v in g.vertices if g.degree(v) == 0)
    return VertexClassification(pendant, supporting, degree2, isolated)


# -- edge-list text format -------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: optional '#' comments, 'n <count>' header,
    then one '<u> <v>' line per edge with 0 <= u, v < n and u != v.

    Isolated vertices are simply declared by the header and never mentioned
    again. Self-loops and duplicate edges are rejected.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphParseError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: vertex count {parts[1]!r} is not an integer") from None
            if n < 0:
                raise GraphParseError(f"line {lineno}: vertex count must be nonnegative")
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected '<u> <v>', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex index out of range [0, {n}) in {raw!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
    if n is None:
        raise GraphParseError("missing 'n <count>' header line")
    return Graph(range(n), edges)


def to_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list for graphs labeled 0..n-1.

    Graphs with gaps in their labels (derived graphs) are relabeled by
    ascending position first, so the output always re-parses.
    """
    pos = {v: i for i, v in enumerate(g.vertices)}
    lines = [f"n {g.order}"]
    lines += [f"{pos[u]} {pos[v]}" for u, v in g.edges]
    return "\n".join(lines)


# -- generators -------------------------------------------------------------


def path_graph(n: int) -> Graph:
    """P_n on labels 0..n-1 in order; P_0 is the empty graph."""
    if n < 0:
        raise ValueError("path order must be nonnegative")
    return Graph(range(n), ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """C_n on labels 0..n-1 with the closing edge (n-1, 0)."""
    if n < 3:
        raise ValueError("cycle order must be at least 3")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """S_n = K_{1,n-1}: center 0, leaves 1..n-1."""
    if n < 2:
        raise ValueError("star order must be at least 2")
    return Graph(range(n), ((0, i) for i in range(1, n)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Union after shifting g2's labels above g1's."""
    offset = (max(g1.vertices) + 1) if g1.order else 0
    shifted_v = [v + offset for v in g2.vertices]
    shifted_e = [(u + offset, v + offset) for u, v in g2.edges]
    return Graph(list(g1.vertices) + shifted_v, list(g1.edges) + shifted_e)


def two_corona(base: Graph) -> Graph:
    """Attach a fresh path of length 2 to every vertex of the base.

    The result has 3|V(base)| vertices; base labels are kept and each base
    vertex v gains a middle and a tip, allocated in ascending order of v.
    """
    vertices = list(base.vertices)
    edges = list(base.edges)
    nxt = (max(base.vertices) + 1) if base.order else 0
    for v in base.vertices:
        mid, tip = nxt, nxt + 1
        nxt += 2
        vertices += [mid, tip]
        edges += [(v, mid), (mid, tip)]
    return Graph(vertices, edges)


# -- Pruefer-sequence machinery ---------------------------------------------


def _prufer_decode(seq: Sequence[int], n: int) -> Graph:
    """Labeled tree on 0..n-1 from a Pruefer sequence of length n-2 (n >= 2)."""
    if n == 2:
        return Graph(range(2), [(0, 1)])
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq:
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Graph(range(n), edges)


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Random tree skeleton plus each remaining pair independently with prob. p."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    if n == 1:
        return Graph([0])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    tree = _prufer_decode(seq, n)
    edges = set(tree.edges)
    for pair in combinations(range(n), 2):
        if pair not in edges and rng.random() < p:
            edges.add(pair)
    return Graph(range(n), edges)


def all_labeled_trees(n: int) -> Iterator[Graph]:
    """Yield every labeled tree on 0..n-1, one per Pruefer sequence.

    Exactly n^(n-2) trees for n >= 2; a single one-vertex graph for n = 1.
    The tree scans count labeled trees through unlabeled ones; they walk
    this generator only to find the first tree in Pruefer order with each
    polynomial (the minimal-tree example column). The tests use it as the
    labeled reference route.
    """
    if n < 1:
        raise ValueError("tree order must be at least 1")
    if n > MAX_TREE_ENUM_ORDER:
        raise BudgetError(
            f"all_labeled_trees is capped at n <= {MAX_TREE_ENUM_ORDER} "
            f"({MAX_TREE_ENUM_ORDER}^{MAX_TREE_ENUM_ORDER - 2} decodes)"
        )
    if n == 1:
        yield Graph([0])
        return
    if n == 2:
        yield Graph(range(2), [(0, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
        yield _prufer_decode(seq, n)


def random_forest(n: int, seed: int) -> Graph:
    """Random forest on 0..n-1: a random tree with a seeded fraction of edges dropped."""
    if n < 1:
        raise ValueError("order must be at least 1")
    rng = random.Random(seed)
    if n == 1:
        return Graph([0])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    tree = _prufer_decode(seq, n)
    drop = rng.uniform(0.0, 0.5)
    edges = [e for e in tree.edges if rng.random() >= drop]
    return Graph(range(n), edges)


# -- verification corpora -----------------------------------------------------


def fixed_small_corpus() -> list[Graph]:
    """Paths P_2..P_6, cycles C_3..C_6, stars S_4..S_6: the fixed differential corpus."""
    graphs = [path_graph(n) for n in range(2, 7)]
    graphs.extend(cycle_graph(n) for n in range(3, 7))
    graphs.extend(star_graph(n) for n in range(4, 7))
    return graphs


def random_connected_corpus(count: int, n_max: int, seed: int, n_min: int = 2) -> list[Graph]:
    """Seeded list of random connected graphs with orders drawn from [n_min, n_max].

    A single master generator drives the order, density and per-graph seed,
    so the corpus is a pure function of (count, n_max, seed, n_min).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    master = random.Random(seed)
    out = []
    for _ in range(count):
        n = master.randint(n_min, n_max)
        p = master.uniform(0.0, 0.6)
        out.append(random_connected_graph(n, p, master.randrange(2**32)))
    return out


# -- shape recognizers (used for method dispatch) ----------------------------


def is_path_shaped(g: Graph) -> bool:
    """True for P_n as an unlabeled shape, any n >= 1."""
    if g.order == 0 or not g.is_connected():
        return False
    if g.order == 1:
        return True
    degs = sorted(g.degree(v) for v in g.vertices)
    return degs[0] == 1 and degs[1] == 1 and all(d == 2 for d in degs[2:])


def is_cycle_shaped(g: Graph) -> bool:
    """True for C_n as an unlabeled shape, n >= 3."""
    return g.order >= 3 and all(g.degree(v) == 2 for v in g.vertices) and g.is_connected()


def is_star_shaped(g: Graph) -> bool:
    """True for S_n as an unlabeled shape, n >= 2 (one center, n-1 leaves)."""
    n = g.order
    if n < 2:
        return False
    degs = sorted(g.degree(v) for v in g.vertices)
    return degs[:-1] == [1] * (n - 1) and degs[-1] == n - 1
