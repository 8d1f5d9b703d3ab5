"""Tests of the benchmark harness itself (not of tdpoly).

Run from the root of the tree: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import metrics
import pace
import tracer
import workloads
from workloads import Outcome, Request

ROOT = Path(__file__).resolve().parents[2]


def _cli_output(argv: list[str]) -> str:
    cli = importlib.import_module("tdpoly.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


# -- span arithmetic -------------------------------------------------------------


def test_self_times_on_synthetic_span_tree():
    # request [0, 100] -> a [10, 40] -> b [15, 25]; request -> c [50, 90]
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    parent = np.array([-1, 0, 1, 0])
    assert tracer.self_times(start, end, parent).tolist() == [30.0, 20.0, 10.0, 40.0]


def test_outermost_skips_spans_nested_in_the_same_set():
    start = np.array([0, 10, 15, 50, 60])
    end = np.array([100, 40, 25, 90, 70])
    mask = np.array([False, True, True, True, True])
    assert tracer.outermost(start, end, mask).tolist() == [1, 3]


def test_layer_metrics_split_time_by_layer():
    names = ["request", "oracle.brute_force_tdp", "kernels.size_counts"]
    spans = {
        "start": np.array([0, 1_000_000, 2_000_000]),
        "end": np.array([10_000_000, 9_000_000, 8_000_000]),
        "parent": np.array([-1, 0, 1]),
        "name": np.array([0, 1, 2]),
        "request": np.array([0, 0, 0]),
        "work": np.array([0, 0, 1 << 20]),
        "hits": np.array([0, 0, 1 << 18]),
    }
    m = tracer.layer_metrics(spans, names, requests=1)
    assert m["request.ms"] == pytest.approx(10.0)
    assert m["kernels.self_ms"] == pytest.approx(6.0)
    assert m["oracle.self_ms"] == pytest.approx(2.0)
    assert m["kernels.share"] == pytest.approx(0.6)
    assert m["kernels.ns_per_mask"] == pytest.approx(6e6 / (1 << 20))
    assert m["kernels.hit_ratio"] == pytest.approx(0.25)
    assert m["oracle.calls"] == 1


def test_unfinished_spans_end_with_their_enclosing_span():
    tr = tracer.Tracer()
    with tr.request(0):
        tr._begin(0)  # never finished, as when a RecursionError stops the bookkeeping
    sp = tr.spans()
    assert sp["end"].tolist()[1] == sp["end"].tolist()[0]
    assert sp["parent"].tolist() == [-1, 0]


# -- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(100, 90.0, 10), (99, 75.0, 24), (40, 75.0, 10), (39, 50.0, 19), (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_tail_takes_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    samples = [float(i) for i in range(1, n + 1)]
    random.Random(n).shuffle(samples)
    p, value, got_beyond = metrics.tail(samples)
    assert (p, got_beyond) == (percentile, beyond)
    assert value == n - beyond  # nearest rank: exactly `beyond` samples lie above it
    assert sum(s > value for s in samples) == beyond


def test_tail_falls_back_to_median_when_samples_are_few():
    assert metrics.tail([3.0, 1.0, 2.0]) == (50.0, 2.0, 1)


def test_tail_percentile_is_set_by_the_guaranteed_sample_count():
    samples = [float(i) for i in range(1, 121)]
    assert metrics.tail(samples) == (90.0, 108.0, 12)
    assert metrics.tail(samples, guaranteed=72) == (75.0, 90.0, 30)
    assert metrics.tail(samples[:72], guaranteed=72) == (75.0, 54.0, 18)


# -- machine-speed scaling ---------------------------------------------------------


def test_scaling_cancels_a_machine_slowdown_but_not_a_slower_program():
    nominal = pace.NOMINAL_S
    assert pace.scale([0.1, 0.3, 0.2], [nominal] * 4) == pytest.approx([0.1, 0.3, 0.2])
    # the machine runs at half speed throughout: scaling cancels it
    assert pace.scale([0.2, 0.6, 0.4], [2 * nominal] * 4) == pytest.approx([0.1, 0.3, 0.2])
    # the machine slows to half speed during the third request: each request is
    # scaled by the mean of the two reference times on each side of it
    refs = [nominal, nominal, nominal, 2 * nominal]
    assert pace.scale([0.1, 0.3, 0.2], refs) == pytest.approx([0.1, 0.3 * 4 / 5, 0.2 * 3 / 4])
    # the program itself is twice as slow: scaled times double
    assert pace.scale([0.2, 0.6, 0.4], [nominal] * 4) == pytest.approx([0.2, 0.6, 0.4])
    with pytest.raises(ValueError):
        pace.scale([0.1, 0.2], [nominal] * 2)


def test_reference_loop_is_timed():
    assert pace.reference() == pace.reference()
    assert 0 < pace.time_reference(3) < 1


# -- correctness gate --------------------------------------------------------------


def _corrupt_first_nonzero(doc: dict) -> None:
    env = doc["items"][0] if "items" in doc else doc
    i = next(i for i, c in enumerate(env["coeffs"]) if c != "0")
    env["coeffs"][i] = str(int(env["coeffs"][i]) + 1)


def _requests(tmp_path):
    rng = random.Random(5)
    tree = workloads._graph_request(tmp_path, "t", 12, workloads.prufer_tree_edges(12, rng), forest=True)
    dense = workloads._graph_request(tmp_path, "d", 9, workloads.connected_graph_edges(9, 0.4, rng), forest=False)
    return [
        tree,
        dense,
        Request(("poly", "--family", "path", "--n", "30"), "poly-path", {"n": 30}),
        Request(("family", "--family", "cycle", "--n-min", "3", "--n-max", "12"), "family-cycle",
                {"n_min": 3, "n_max": 12}),
        Request(("eval", "--family", "cycle", "--n", "40", "--at") + workloads.EVAL_POINTS, "eval-cycle", {"n": 40}),
    ]


def test_gate_accepts_true_outputs_and_flags_one_corrupted_coefficient(tmp_path):
    for req in _requests(tmp_path):
        stdout = _cli_output(list(req.argv))
        assert gate.check(req, Outcome(0, stdout)) == (gate.OK, ""), req.label
        doc = json.loads(stdout)
        _corrupt_first_nonzero(doc)
        status, reason = gate.check(req, Outcome(0, json.dumps(doc)))
        assert status == gate.WRONG and reason, req.label


def test_gate_flags_a_wrong_evaluation_and_a_nan(tmp_path):
    req = _requests(tmp_path)[-1]
    doc = json.loads(_cli_output(list(req.argv)))
    doc["evaluations"]["0.5"] *= 1.001
    assert gate.check(req, Outcome(0, json.dumps(doc)))[0] == gate.WRONG
    doc["evaluations"]["0.5"] = float("nan")
    assert gate.check(req, Outcome(0, json.dumps(doc)))[0] == gate.ERROR


def test_gate_checks_scan_reports_against_known_counts():
    req = Request(("scan", "--suite", "tree-bound", "--n", "5"), "scan", {"suite": "tree-bound", "n": 5})
    doc = json.loads(_cli_output(list(req.argv)))
    assert gate.check(req, Outcome(0, json.dumps(doc)))[0] == gate.OK
    doc["summary"]["labeled_trees"] = "124"
    assert gate.check(req, Outcome(0, json.dumps(doc)))[0] == gate.WRONG
    assert gate.check(req, Outcome(1, ""))[0] == gate.ERROR
    assert gate.check(req, Outcome(None, "", "RecursionError: deep"))[0] == gate.ERROR

    req = Request(req.argv + ("--format", "csv"), "scan-csv", req.facts)
    text = _cli_output(list(req.argv))
    assert gate.check(req, Outcome(0, text))[0] == gate.OK
    corrupted = text.replace(",60,", ",61,", 1)
    assert corrupted != text and gate.check(req, Outcome(0, corrupted))[0] == gate.WRONG


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gate_checks_the_minimal_tree_census(fmt):
    argv = ("scan", "--suite", "minimal-tree", "--n", "6", "--format", fmt)
    req = Request(argv, "scan-csv" if fmt == "csv" else "scan", {"suite": "minimal-tree", "n": 6})
    text = _cli_output(list(argv))
    assert gate.check(req, Outcome(0, text))[0] == gate.OK
    marked = text.replace('"is_minimal":false', '"is_minimal":true', 1) if fmt == "json" else text.replace(",false", ",true", 1)
    assert marked != text and gate.check(req, Outcome(0, marked))[0] == gate.WRONG


# -- tracer installation -----------------------------------------------------------


def _bindings() -> dict:
    """Every module global of the package and every attribute of its classes."""
    importlib.import_module("tdpoly.cli")
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "tdpoly" or name.startswith("tdpoly."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if inspect.isclass(value) and value.__module__.startswith("tdpoly"):
                    for cattr, cvalue in vars(value).items():
                        snap[(value.__module__, value.__qualname__, cattr)] = cvalue
    return snap


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    original = sys.modules["tdpoly.oracle"].brute_force_tdp
    tr = tracer.Tracer()
    tr.install()
    try:
        for mod in ("tdpoly.cli", "tdpoly.extremal", "tdpoly.reduction", "tdpoly.oracle", "tdpoly"):
            assert sys.modules[mod].brute_force_tdp is not original, mod
            assert sys.modules[mod].brute_force_tdp.__wrapped__ is original
        req = _requests(tmp_path)[1]
        with tr.request(0):
            _cli_output(list(req.argv))
    finally:
        tr.remove()
    assert _bindings() == before

    sp = tr.spans()
    names = [tr.names[i] for i in sp["name"]]
    assert names[0] == "request" and sp["parent"][0] == -1
    assert {"cli.main", "oracle.brute_force_tdp", "kernels.size_counts", "graph.Graph.__init__"} <= set(names)
    k = names.index("kernels.size_counts")
    assert sp["work"][k] == 1 << 9
    assert all(p < i for i, p in enumerate(sp["parent"]))
    assert (sp["end"] >= sp["start"]).all()


# -- benchmark definition ------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS) == sorted(workloads.MIN_CYCLES)


def test_seed_changes_only_the_generated_inputs(tmp_path):
    def cycle(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        reqs = workloads.build("forest-recurrence", seed, d)
        return [r.label for r in reqs], sorted(p.read_text() for p in d.iterdir())

    assert cycle(3, "a") == cycle(3, "b")
    labels3, graphs3 = cycle(3, "c")
    labels4, graphs4 = cycle(4, "d")
    assert labels3 == labels4 and graphs3 != graphs4
