"""The three request mixes the benchmark sends to ``tdpoly.cli.main``.

Every workload is one fixed cycle of requests that the benchmark repeats until
its time is up. The seed changes only the generated graphs and the seeds passed
to seeded suites; which request types run, and at which sizes, is fixed, so two
seeds load the same layers by the same amounts.

Sizes are chosen so that the median and the tail request of each cycle fall on
a group of requests of similar cost that does not depend on the seed (see
README.md in this directory). Graphs are generated here, not with tdpoly's own
generators, so a change to the program cannot change the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus the facts the correctness gate checks it against.

    ``kind`` selects the gate's check; ``facts`` holds what the benchmark knows
    about the input independently of the program (order, support vertices).
    """

    argv: tuple[str, ...]
    kind: str
    facts: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(a if "/" not in a else Path(a).name for a in self.argv)


@dataclass(frozen=True)
class Outcome:
    """What one request returned: exit code (None if it raised), stdout, exception text."""

    rc: int | None
    stdout: str
    error: str = ""


# -- input generators ---------------------------------------------------------


def prufer_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree on 0..n-1, decoded from a random Pruefer sequence."""
    if n < 2:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return edges


def connected_graph_edges(n: int, density: float, rng: random.Random) -> list[tuple[int, int]]:
    """A random spanning tree plus every other pair independently with probability ``density``."""
    edges = set(prufer_tree_edges(n, rng))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < density:
                edges.add((u, v))
    return sorted(edges)


def _graph_request(workdir: Path, tag: str, n: int, edges, forest: bool) -> Request:
    """``poly --in`` on an edge-list file written to ``workdir``."""
    path = workdir / f"{tag}.txt"
    path.write_text("\n".join([f"n {n}"] + [f"{u} {v}" for u, v in edges]) + "\n", encoding="utf-8")
    adjacency = [0] * n
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    return Request(("poly", "--in", str(path)), "poly-graph", {"n": n, "adjacency": adjacency, "forest": forest})


# -- workloads ------------------------------------------------------------------

# (order, edge density) per slot. Kernel time is set by the order, so the
# median falls among the three n = 20 graphs and the p90 tail among the two
# n = 22 graphs whatever the seed draws.
ORACLE_SLOTS = (
    (18, 0.10), (18, 0.35), (18, 0.60),
    (19, 0.20), (19, 0.40), (19, 0.55),
    (20, 0.15), (20, 0.30), (20, 0.50),
    (21, 0.25), (21, 0.45),
    (22, 0.20), (22, 0.50),
)

# Costs measured when this benchmark was written place these in four groups:
# the trees (whose cost varies tenfold with their shape), eval 200/400 and
# path 100 below ~100 ms; family 110/115, path 200 and eval 800 near 330 ms,
# where the median falls; family 125, eval 950/1000 and path 250 near 490 ms,
# where the p75 tail falls; path 300 and the two failing requests above 700 ms.
TREE_ORDERS = (20, 24, 28, 32)
PATH_ORDERS = (100, 200, 250, 300)
FAMILY_CYCLE_N_MAX = (110, 115, 125)
EVAL_CYCLE_ORDERS = (200, 400, 800, 950, 1000)
EVAL_POINTS = ("-1", "2", "0.5", "1+2i")
# Known failures of tdpoly when this benchmark was written, kept on purpose:
# the tree engine recurses once per vertex and passes Python's default
# recursion limit on long paths, and evaluating a long cycle at a non-integer
# real point converts an integer too large for a float.
DEFECT_PATH_ORDER = 1100
DEFECT_EVAL_ORDER = 1500

# scan-verify, by cost when this benchmark was written: closed forms,
# recurrences to n = 18, degree2, gamma-bounds and prop1 below ~130 ms; the
# n = 6 census scans in JSON and CSV near 150 ms, where the median falls;
# recurrences to n = 19/20, claim1 to n = 20 and minus-one near 320 ms, where
# the p75 tail falls; then theorem1, theorem3 and the n = 7 census scans.
# prop1 runs to n = 8: at n = 10 its disjoint unions reach 20 vertices and its
# cost varies sixfold with the seed.
# (subcommand, suite, size, format)
SCAN_UNSEEDED = (
    ("verify", "closedform", None, None), ("verify", "recurrence", None, None),
    ("scan", "tree-bound", 6, None), ("scan", "minimal-tree", 6, None),
    ("scan", "tree-bound", 6, "csv"), ("scan", "minimal-tree", 6, "csv"),
    ("verify", "recurrence", 19, None), ("verify", "recurrence", 20, None), ("verify", "claim1", 20, None),
    ("scan", "tree-bound", 7, None), ("scan", "minimal-tree", 7, None),
)
# (subcommand, suite, size, copies with distinct seeds)
SCAN_SEEDED = (
    ("scan", "degree2", 12, 4),
    ("scan", "gamma-bounds", 10, 2),
    ("verify", "prop1", 8, 2),
    ("verify", "minus-one", None, 3),
    ("verify", "theorem1", 10, 1),
    ("verify", "theorem3", 10, 1),
)


def _oracle_dense(rng: random.Random, workdir: Path) -> list[Request]:
    return [
        _graph_request(workdir, f"dense{i}", n, connected_graph_edges(n, p, rng), forest=False)
        for i, (n, p) in enumerate(ORACLE_SLOTS)
    ]


def _scan_request(sub: str, suite: str, size: int | None, seed: int | None = None, fmt: str | None = None) -> Request:
    argv = [sub, "--suite", suite]
    if size is not None:
        argv += ["--n" if sub == "scan" else "--n-max", str(size)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if fmt is not None:
        argv += ["--format", fmt]
    return Request(tuple(argv), f"{sub}-{fmt}" if fmt else sub, {"suite": suite, "n": size})


def _scan_verify(rng: random.Random, workdir: Path) -> list[Request]:
    out = [_scan_request(sub, suite, size, fmt=fmt) for sub, suite, size, fmt in SCAN_UNSEEDED]
    for sub, suite, size, copies in SCAN_SEEDED:
        out += [_scan_request(sub, suite, size, rng.randrange(2**31)) for _ in range(copies)]
    return out


def _forest_recurrence(rng: random.Random, workdir: Path) -> list[Request]:
    out = [
        _graph_request(workdir, f"tree{i}", n, prufer_tree_edges(n, rng), forest=True)
        for i, n in enumerate(TREE_ORDERS)
    ]
    out += [
        Request(("poly", "--family", "path", "--n", str(n)), "poly-path", {"n": n})
        for n in PATH_ORDERS + (DEFECT_PATH_ORDER,)
    ]
    out += [
        Request(
            ("family", "--family", "cycle", "--n-min", "3", "--n-max", str(n)),
            "family-cycle",
            {"n_min": 3, "n_max": n},
        )
        for n in FAMILY_CYCLE_N_MAX
    ]
    out += [
        Request(("eval", "--family", "cycle", "--n", str(n), "--at") + EVAL_POINTS, "eval-cycle", {"n": n})
        for n in EVAL_CYCLE_ORDERS + (DEFECT_EVAL_ORDER,)
    ]
    return out


# The fewest cycles a run sends, even when its time is up sooner. The tail
# percentile is the one these many requests support (metrics.tail), so that
# every run of a workload reports the same percentile: p90 on oracle-dense,
# p75 on the other two.
MIN_CYCLES = {
    "oracle-dense": 8,
    "scan-verify": 3,
    "forest-recurrence": 3,
}

WORKLOADS = {
    "oracle-dense": _oracle_dense,
    "scan-verify": _scan_verify,
    "forest-recurrence": _forest_recurrence,
}


def build(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Generate the workload's request cycle for ``seed``, writing input files to ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    requests = WORKLOADS[workload](rng, workdir)
    # a fixed interleaving, so no run sends all of its heavy requests back to back
    random.Random(workload).shuffle(requests)
    return requests
