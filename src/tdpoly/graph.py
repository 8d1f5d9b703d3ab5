"""Immutable labeled simple graphs and the reduction operators on them.

Vertex labels are stable: a derived graph (vertex/edge deletion,
contraction, closed-neighborhood removal) keeps the surviving labels of its
parent, so a condition like "v is in the dominating set" stays meaningful
across the derivation. The empty graph (no live vertices) is a valid value.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import GraphParseError


class Graph:
    """Simple undirected graph over an arbitrary set of integer labels.

    The graph is its adjacency map, label -> frozenset of neighbours; the
    sorted vertex and edge tuples are derived from it when first read.
    """

    __slots__ = ("_adj", "_vertices", "_edges")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        # operator.index takes ints and numpy's ints; int() would read the label 0.9 as 0
        index = operator.index
        adj: dict[int, list[int]] = {}
        for v in vertices:
            try:
                adj[index(v)] = []
            except TypeError:
                raise TypeError(f"vertex labels must be exact ints, got {type(v).__name__}") from None
        for u, v in edges:
            try:
                u = index(u)
                v = index(v)
            except TypeError:
                bad = v if type(u) is int else u  # u is an int once read
                raise TypeError(f"vertex labels must be exact ints, got {type(bad).__name__}") from None
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            adj[u].append(v)
            adj[v].append(u)
        self._adj = dict(zip(adj, map(frozenset, adj.values())))
        self._vertices = self._edges = None

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        """Number of live vertices."""
        return len(self._adj)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Live labels in ascending order."""
        if self._vertices is None:
            self._vertices = tuple(sorted(self._adj))
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (min, max) pairs in ascending order."""
        if self._edges is None:
            self._edges = tuple(sorted([(v, w) for v, nbrs in self._adj.items() for w in nbrs if v < w]))
        return self._edges

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(map(len, self._adj.values())) // 2

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} is not live in this graph") from None

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
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(frozenset(self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(vertices={list(self.vertices)!r}, edges={list(self.edges)!r})"

    # -- derived graphs ---------------------------------------------------

    @classmethod
    def _derived(cls, adj: dict[int, frozenset[int]]) -> "Graph":
        """Graph on a simple, symmetric adjacency map built by tdpoly itself
        (a derivation of a valid graph, or a generator): the constructor's
        checks are skipped."""
        g = object.__new__(cls)
        g._adj = adj
        g._vertices = g._edges = None
        return g

    @classmethod
    def _from_edges(cls, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on distinct labels from distinct edges between distinct
        labels among them, either way round: the constructor's checks are
        skipped, so only tdpoly's own generators call this."""
        adj: dict[int, list[int]] = {v: [] for v in vertices}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return cls._derived(dict(zip(adj, map(frozenset, adj.values()))))

    def _induced(self, keep: set[int]) -> "Graph":
        return Graph._derived({v: self._adj[v] & keep for v in keep})

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
        return Graph._derived(
            {v: (nbrs | nu) - {u, v} if v in nu else nbrs for v, nbrs in self._adj.items() if v != u}
        )

    def delete_edge(self, u: int, v: int) -> "Graph":
        """Remove the edge uv, both endpoints stay."""
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) is not present")
        adj = dict(self._adj)
        adj[u] -= {v}
        adj[v] -= {u}
        return Graph._derived(adj)

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
        # a forest has n minus its component count edges, so m >= n >= 1 rules one out
        n, m = self.order, self.size
        if m >= n >= 1:
            return False
        return m == n - self._component_count()


@dataclass(frozen=True)
class VertexClassification:
    """Degree-based vertex classes used throughout the bound checks."""

    pendant: frozenset[int]
    supporting: frozenset[int]
    degree2: frozenset[int]
    isolated: frozenset[int]


def classify_vertices(g: Graph) -> VertexClassification:
    """Pendants (degree 1), their neighbors (supporting), degree-2, isolated."""
    pendant, supporting, degree2, isolated = set(), set(), set(), set()
    for v, nbrs in g._adj.items():  # one pass over the adjacency
        d = len(nbrs)
        if d == 1:
            pendant.add(v)
            supporting |= nbrs
        elif d == 2:
            degree2.add(v)
        elif not d:
            isolated.add(v)
    return VertexClassification(frozenset(pendant), frozenset(supporting), frozenset(degree2), frozenset(isolated))


# -- edge-list text format -------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: optional '#' comments, 'n <count>' header,
    then one '<u> <v>' line per edge with 0 <= u, v < n and u != v.

    Isolated vertices are simply declared by the header and never mentioned
    again. Self-loops and duplicate edges are rejected.
    """
    n, edges = _parse_edge_lines(text)
    return Graph(range(n), edges)


def _parse_edge_lines(text: str) -> tuple[int, dict[tuple[int, int], None]]:
    """parse_edge_list's order and edges, every line checked, no graph built."""
    n: int | None = None
    edges: dict[tuple[int, int], None] = {}
    text = text.removeprefix("\ufeff")  # a byte-order mark, as some editors save UTF-8
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
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
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise GraphParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        edges[key] = None
    if n is None:
        raise GraphParseError("missing 'n <count>' header line")
    return n, edges


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
    return Graph._from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """C_n on labels 0..n-1 with the closing edge (n-1, 0)."""
    if n < 3:
        raise ValueError("cycle order must be at least 3")
    return Graph._from_edges(range(n), [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """S_n = K_{1,n-1}: center 0, leaves 1..n-1."""
    if n < 2:
        raise ValueError("star order must be at least 2")
    return Graph._from_edges(range(n), [(0, i) for i in range(1, n)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Union after shifting g2's labels so that its smallest lands just above
    g1's largest."""
    offset = (max(g1.vertices) + 1 - min(g2.vertices)) if g1.order and g2.order else 0
    shifted_v = [v + offset for v in g2.vertices]
    shifted_e = [(u + offset, v + offset) for u, v in g2.edges]
    return Graph._from_edges(list(g1.vertices) + shifted_v, list(g1.edges) + shifted_e)


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
    return Graph._from_edges(vertices, edges)


# -- Pruefer-sequence machinery ---------------------------------------------


def _prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """The n-1 edges of the labeled tree on 0..n-1 with Pruefer sequence
    ``seq`` (length n-2, n >= 2), in decoding order, either way round."""
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
    return edges


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Random tree skeleton plus each remaining pair independently with prob. p."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    if n == 1:
        return Graph._from_edges([0], ())
    seq = [rng.randrange(n) for _ in range(n - 2)]
    tree = {(min(e), max(e)) for e in _prufer_edges(seq, n)}
    # a draw only for the pairs the tree lacks
    edges = [e for e in combinations(range(n), 2) if e in tree or rng.random() < p]
    return Graph._from_edges(range(n), edges)


def random_forest(n: int, seed: int) -> Graph:
    """Random forest on 0..n-1: a random tree with a seeded fraction of edges dropped."""
    if n < 1:
        raise ValueError("order must be at least 1")
    rng = random.Random(seed)
    if n == 1:
        return Graph._from_edges([0], ())
    seq = [rng.randrange(n) for _ in range(n - 2)]
    tree = sorted((min(e), max(e)) for e in _prufer_edges(seq, n))  # Graph.edges order
    drop = rng.uniform(0.0, 0.5)
    edges = [e for e in tree if rng.random() >= drop]
    return Graph._from_edges(range(n), edges)


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


# -- shape recognizers ---------------------------------------------------------


def is_cycle_shaped(g: Graph) -> bool:
    """True for C_n as an unlabeled shape, n >= 3."""
    # as many edges as vertices rules out most graphs before a degree is read
    return (
        g.order >= 3
        and g.size == g.order
        and all(len(nbrs) == 2 for nbrs in g._adj.values())
        and g.is_connected()
    )


def is_star_shaped(g: Graph) -> bool:
    """True for S_n as an unlabeled shape, n >= 2 (one center, n-1 leaves)."""
    n = g.order
    if n < 2:
        return False
    degs = sorted(g.degree(v) for v in g.vertices)
    return degs[:-1] == [1] * (n - 1) and degs[-1] == n - 1
