"""Metric names, units and the statistics the benchmark reports.

BENCHMARK.json lists the same names and units; tests/test_harness.py checks
that the two agree.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

# name -> (unit, better, bound as a share of the parent's median). Timings are
# scaled to a fixed machine speed (pace.py); the timing bounds are still the
# widest allowed, because what scaling leaves of a shared host's drift can be
# a tenth of the median or more from one run to the next.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "req_per_s": ("1/s", "higher", 0.25),
    "req_p50_ms": ("ms", "lower", 0.25),
    "req_tail_ms": ("ms", "lower", 0.25),
    "ok_ratio": ("ratio", "higher", 0.02),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_LAYER_NAMED = {
    "request.ms": ("ms/req", "lower"),
    "trace.spans": ("spans/req", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "kernels.calls": ("count/req", "lower"),
    "kernels.ms": ("ms/req", "lower"),
    "kernels.masks": ("masks/req", "lower"),
    "kernels.ns_per_mask": ("ns/mask", "lower"),
    "kernels.hit_ratio": ("ratio", "higher"),
    "kernels.small_call_us": ("us", "lower"),
    "oracle.calls": ("count/req", "lower"),
    "graph.builds": ("count/req", "lower"),
    "graph.build_ms": ("ms/req", "lower"),
    "graph.derive_ms": ("ms/req", "lower"),
    "reports.ms": ("ms/req", "lower"),
    "polynomial.mul_calls": ("count/req", "lower"),
    "polynomial.mul_ms": ("ms/req", "lower"),
    "polynomial.mul_coeff_products": ("count/req", "lower"),
    "polynomial.add_ms": ("ms/req", "lower"),
    "polynomial.eval_ms": ("ms/req", "lower"),
    "reduction.tree_calls": ("count/req", "lower"),
    "reduction.tree_self_ms": ("ms/req", "lower"),
    "reduction.recurrence_ms": ("ms/req", "lower"),
    "cli.dispatch.tree": ("count/req", "higher"),
    "cli.dispatch.recurrence": ("count/req", "higher"),
    "cli.dispatch.brute": ("count/req", "lower"),
}

# name -> (unit, better)
PER_LAYER = {
    **{f"{layer}.self_ms": ("ms/req", "lower") for layer in LAYERS},
    **{f"{layer}.share": ("ratio", "lower") for layer in LAYERS},
    **_LAYER_NAMED,
}

# Tail percentiles in per mille, highest first; the reported tail is the
# highest one with at least MIN_BEYOND samples above its nearest rank.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def _rank(per_mille: int, n: int) -> int:
    return -(-per_mille * n // 1000)  # nearest rank: ceil without float rounding


def tail(latencies: list[float], guaranteed: int | None = None) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) by the nearest-rank method.

    The percentile is the highest of the ladder with MIN_BEYOND samples
    beyond it in a run of ``guaranteed`` samples (default: this run's count),
    the fewest a run of the workload sends; so every run of a workload
    reports the same percentile however many requests fit in its time. When
    no percentile of the ladder has MIN_BEYOND samples beyond it, the median
    is reported with the count it has.
    """
    if not latencies:
        raise ValueError("no samples")
    ordered = sorted(latencies)
    n = len(ordered)
    m = n if guaranteed is None else min(guaranteed, n)
    per_mille = next((p for p in TAIL_LADDER if m - _rank(p, m) >= MIN_BEYOND), 500)
    rank = _rank(per_mille, n)
    return per_mille / 10, ordered[rank - 1], n - rank


def end_to_end(setup_samples: list[float], latencies: list[float], failed: int,
               peak_rss_mb: float, guaranteed: int | None = None) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of one untraced run, plus how the tail was taken.

    Throughput is requests per second of request time: the closed loop's one
    client sends the next request as soon as the last one returns.
    """
    percentile, tail_s, beyond = tail(latencies, guaranteed)
    values = {
        "setup_s": statistics.median(setup_samples),
        "req_per_s": len(latencies) / sum(latencies),
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_tail_ms": tail_s * 1e3,
        "ok_ratio": (len(latencies) - failed) / len(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    return values, {"percentile": percentile, "samples": len(latencies), "beyond": beyond}


def as_result(values: dict[str, float], spec: dict) -> dict:
    return {name: {"value": values[name], "unit": spec[name][0]} for name in spec}
