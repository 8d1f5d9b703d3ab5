"""Times tdpoly's layers from outside the program.

``Tracer.install`` wraps the public functions and methods of each tdpoly
module (a module is a layer) and replaces every binding of a wrapped function
across the package, since functions such as ``brute_force_tdp`` are imported by
name into several modules. Each call records a span -- name, start, end,
parent span, request id -- in memory; ``Tracer.remove`` puts every original
binding back. ``layer_metrics`` turns the spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "graph", "oracle", "kernels", "polynomial", "reduction", "closedform", "extremal", "reports")

# O(1) accessors called in every inner loop: wrapping them would multiply the
# tracer's cost, so their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "Graph.neighbors", "Graph.closed_neighborhood", "Graph.degree", "Graph.has_edge",
    "IntPoly.coeff", "IntPoly.degree", "IntPoly.min_degree",
})
WRAPPED_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__and__"})

GRAPH_DERIVE = frozenset(
    f"graph.Graph.{m}"
    for m in ("delete_vertex", "contract_vertex", "delete_edge", "without_closed_neighborhoods", "components")
)
SMALL_KERNEL_MASKS = 1 << 10  # kernel calls with n <= 10

REQUEST = "request"


def _kernel_probe(args, result):
    return 1 << len(args[0]), int(result.sum())


def _first_size_probe(args, result):
    return 1 << len(args[0]), 0


def _mul_probe(args, result):
    return len(args[0].coeffs) * len(args[1].coeffs), 0


# span name -> probe(args, result) giving (work, hits) for that call
PROBES = {
    "kernels.size_counts": _kernel_probe,
    "kernels.first_dominating_size": _first_size_probe,
    "polynomial.IntPoly.__mul__": _mul_probe,
}


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = [REQUEST]
        self._ids = {REQUEST: 0}
        self._start, self._end, self._parent = array("q"), array("q"), array("q")
        self._name, self._req, self._work, self._hits = array("q"), array("q"), array("q"), array("q")
        self._stack = [-1]
        self._rid = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _begin(self, nid: int) -> int:
        i = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._req.append(self._rid)
        self._work.append(0)
        self._hits.append(0)
        self._end.append(-1)
        self._stack.append(i)
        self._start.append(perf_counter_ns())
        return i

    def _finish(self, i: int) -> None:
        # Spans above i on the stack never finished (a RecursionError can stop
        # their own bookkeeping); they end with the span that encloses them.
        t = perf_counter_ns()
        end, stack = self._end, self._stack
        while True:
            j = stack.pop()
            end[j] = t
            if j == i:
                return

    @contextmanager
    def request(self, rid: int):
        """Root span of one request; spans opened inside carry its id."""
        self._rid = rid
        i = self._begin(0)
        try:
            yield
        finally:
            self._finish(i)
            self._stack = [-1]

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        probe = PROBES.get(name)
        begin, finish, work, hits = self._begin, self._finish, self._work, self._hits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
                if probe is not None:
                    work[i], hits[i] = probe(args, out)
                return out
            finally:
                finish(i)

        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and class methods."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            wrappers = {}
            for layer in LAYERS:
                mod = importlib.import_module(f"tdpoly.{layer}")
                for name, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj) and not name.startswith("_"):
                        wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
                    elif inspect.isclass(obj):
                        self._wrap_class(layer, obj)
            for mod in [m for n, m in list(sys.modules.items()) if n == "tdpoly" or n.startswith("tdpoly.")]:
                for name, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._restore.append((mod, name, obj))
                        setattr(mod, name, hit[1])
        except BaseException:
            self.remove()
            raise

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            if f"{cls.__name__}.{attr}" in UNWRAPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, f"{layer}.{cls.__name__}.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{layer}.{cls.__name__}.{attr}")
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def remove(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        cols = {"start": self._start, "end": self._end, "parent": self._parent,
                "name": self._name, "request": self._req, "work": self._work, "hits": self._hits}
        return {k: np.frombuffer(v, dtype=np.int64).copy() if len(v) else np.zeros(0, np.int64)
                for k, v in cols.items()}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


# -- analysis -------------------------------------------------------------------


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover (children of
    one span never overlap: calls nest on a single thread)."""
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def outermost(start: np.ndarray, end: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Indices of the spans in ``mask`` that no other span in ``mask`` encloses.

    Spans are stored in the order they began, so a span is enclosed exactly
    when it starts before some earlier span of the set has ended.
    """
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return idx
    reach = np.maximum.accumulate(end[idx])
    top = np.ones(idx.size, dtype=bool)
    top[1:] = start[idx][1:] >= reach[:-1]
    return idx[top]


def layer_metrics(spans: dict[str, np.ndarray], names: list[str], requests: int) -> dict[str, float]:
    """Per-layer work and time per request (ms), plus ratios, from one traced run."""
    start, end, name = spans["start"], spans["end"], spans["name"]
    dur = (end - start).astype(np.float64)
    self_ns = self_times(start, end, spans["parent"])
    name_layer = np.array([n.split(".")[0] for n in names])
    span_layer = name_layer[name] if len(name) else np.zeros(0, dtype=name_layer.dtype)

    def mask_of(*wanted: str) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if n in wanted]
        return np.isin(name, ids)

    def inclusive_ms(mask: np.ndarray) -> float:
        return float(dur[outermost(start, end, mask)].sum()) / 1e6

    per_req = 1.0 / max(requests, 1)
    request_ms = float(dur[name == 0].sum()) / 1e6
    m: dict[str, float] = {"request.ms": request_ms * per_req, "trace.spans": len(name) * per_req}
    for layer in LAYERS:
        layer_ms = float(self_ns[span_layer == layer].sum()) / 1e6
        m[f"{layer}.self_ms"] = layer_ms * per_req
        m[f"{layer}.share"] = layer_ms / request_ms if request_ms else 0.0

    kern = span_layer == "kernels"
    kern_ns = float(dur[kern].sum())
    masks = int(spans["work"][kern].sum())
    counted = mask_of("kernels.size_counts")
    counted_masks = int(spans["work"][counted].sum())
    small = kern & (spans["work"] <= SMALL_KERNEL_MASKS)
    m.update({
        "kernels.calls": int(kern.sum()) * per_req,
        "kernels.ms": kern_ns / 1e6 * per_req,
        "kernels.masks": masks * per_req,
        "kernels.ns_per_mask": kern_ns / masks if masks else 0.0,
        "kernels.hit_ratio": int(spans["hits"][counted].sum()) / counted_masks if counted_masks else 0.0,
        "kernels.small_call_us": float(dur[small].mean()) / 1e3 if small.any() else 0.0,
        "oracle.calls": len(outermost(start, end, span_layer == "oracle")) * per_req,
        "graph.builds": int(mask_of("graph.Graph.__init__").sum()) * per_req,
        "graph.build_ms": inclusive_ms(mask_of("graph.Graph.__init__")) * per_req,
        "graph.derive_ms": float(self_ns[mask_of(*GRAPH_DERIVE)].sum()) / 1e6 * per_req,
        "reports.ms": inclusive_ms(span_layer == "reports") * per_req,
        "polynomial.mul_calls": int(mask_of("polynomial.IntPoly.__mul__").sum()) * per_req,
        "polynomial.mul_ms": inclusive_ms(mask_of("polynomial.IntPoly.__mul__")) * per_req,
        "polynomial.mul_coeff_products": int(spans["work"][mask_of("polynomial.IntPoly.__mul__")].sum()) * per_req,
        "polynomial.add_ms": inclusive_ms(
            mask_of("polynomial.IntPoly.__add__", "polynomial.IntPoly.__sub__", "polynomial.IntPoly.__neg__")
        ) * per_req,
        "polynomial.eval_ms": inclusive_ms(mask_of("polynomial.IntPoly.evaluate")) * per_req,
        "reduction.tree_calls": int(mask_of("reduction.tree_tdp").sum()) * per_req,
        "reduction.tree_self_ms": float(self_ns[mask_of("reduction.tree_tdp")].sum()) / 1e6 * per_req,
        "reduction.recurrence_ms": inclusive_ms(mask_of("reduction.path_tdp", "reduction.cycle_tdp")) * per_req,
    })
    return m
