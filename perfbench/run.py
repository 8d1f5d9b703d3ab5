"""Benchmark of the tdpoly command line, run from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends a workload's cycle of requests to ``tdpoly.cli.main``
in-process, back to back (a closed loop), with stdout captured, repeating the
cycle until S seconds have passed and the workload's fewest cycles were sent;
the cycle in progress is always finished.
Outputs are checked after the timed loop (gate.py). Timings are scaled to a
fixed machine speed by reference loops timed around every request (pace.py).

--trace 0 reports the end-to-end metrics. --trace 1 first runs untraced for
S/2 seconds, then traced for S/2 seconds, and reports per-layer metrics from
the traced part; the spans are written to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The line before it describes the run: environment, how the tail
percentile was taken, and every failed request.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pace
import workloads
from metrics import END_TO_END, PER_LAYER, as_result, end_to_end
from tracer import Tracer, layer_metrics
from workloads import Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
# reference loops a set-up probe times, for their median, once it is ready
PROBE_REFERENCE_LOOPS = 3


def import_tdpoly():
    """Import tdpoly from this tree's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "tdpoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tdpoly sources under {src}; run from the root of a tdpoly tree")
    sys.path.insert(0, str(src))
    tdpoly = importlib.import_module("tdpoly")
    if Path(tdpoly.__file__).resolve().parent != src / "tdpoly":
        raise SystemExit(f"perfbench: imported tdpoly from {tdpoly.__file__}, not from {src}")
    return importlib.import_module("tdpoly.cli")


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first request being ready, per probe.

    Returns the wall times and the same times scaled to the nominal machine
    speed by the reference loops each probe times in its own process.
    """
    samples, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed),
             "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append(probe["ready"] - t0)
        scaled.append(pace.scaled(samples[-1], probe["reference_s"]))
    return samples, scaled


def send(cli, argv: tuple[str, ...]):
    """One request; returns (seconds, Outcome)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
        error = ""
    except Exception as exc:  # a request that raises is a failed request, not a failed benchmark
        rc, error = None, f"{type(exc).__name__}: {exc}"[:300]
    return time.perf_counter() - t0, Outcome(rc, out.getvalue(), error)


def run_cycles(cli, requests, seconds: float, min_cycles: int = 1, tracer=None):
    """Repeat the request cycle until ``seconds`` have passed and at least ``min_cycles`` were sent.

    Returns (elapsed, records, refs): one record per request sent, and the
    reference loop times taken before every request and after the last one.
    """
    records, refs = [], []
    t0 = time.perf_counter()
    while True:
        for i, req in enumerate(requests):
            refs.append(pace.time_reference())
            if tracer is None:
                latency, outcome = send(cli, req.argv)
            else:
                with tracer.request(len(records)):
                    latency, outcome = send(cli, req.argv)
            records.append((i, latency, outcome))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(records) >= min_cycles * len(requests):
            refs.append(pace.time_reference())
            return elapsed, records, refs


def judge(requests, records):
    """Gate every record; repeats of a request must match its first output byte for byte.

    Returns (statuses per record, failures listed by request).
    """
    import gate

    first = {}
    statuses = []
    failures: dict[int, dict] = {}
    for i, _, outcome in records:
        if i not in first:
            first[i] = (outcome, *gate.check(requests[i], outcome))
            status, reason = first[i][1:]
        elif (outcome.rc, outcome.stdout) != (first[i][0].rc, first[i][0].stdout):
            status, reason = gate.WRONG, "output differs from the first run of this request"
        else:
            status, reason = first[i][1:]
        statuses.append(status)
        if status != gate.OK:
            entry = failures.setdefault(i, {"request": requests[i].label, "status": status, "reason": reason, "count": 0})
            entry["count"] += 1
    return statuses, [failures[i] for i in sorted(failures)]


def dispatch_counts(requests, records) -> dict[str, int]:
    """How often each method was dispatched, read from the outputs' method field."""
    counts = {"tree": 0, "recurrence": 0, "brute": 0}
    for i, _, outcome in records:
        if outcome.rc != 0 or requests[i].argv[0] not in ("poly", "eval", "family"):
            continue
        doc = json.loads(outcome.stdout)
        for env in doc.get("items", [doc]):
            counts[env["method"]] = counts.get(env["method"], 0) + 1
    return counts


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    kernels = importlib.import_module("tdpoly.kernels")
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        backend = kernels.active_backend() if hasattr(kernels, "active_backend") else None
    except (RuntimeError, ValueError) as exc:
        backend = f"error: {exc}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": has_numba,
        "TDPOLY_BACKEND": os.environ.get("TDPOLY_BACKEND"),
        "active_backend": backend,
        "git_commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # set-up, as the probes time it: imports, then the inputs
    cli = import_tdpoly()
    import gate  # noqa: F401  (the tdpoly modules the gate checks with)

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        requests = workloads.build(args.workload, args.seed, workdir)
        if args.setup_probe:
            ready = time.monotonic()
            print(json.dumps({"ready": ready, "reference_s": pace.time_reference(PROBE_REFERENCE_LOOPS)}))
            return 0
        if args.trace:
            result, info = traced_run(cli, requests, args)
        else:
            result, info = timed_run(cli, requests, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "requests_per_cycle": len(requests), "env": environment(), **info}
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({**info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def _summary(requests, records, statuses, failures) -> tuple[dict, dict]:
    failed = sum(s != "ok" for s in statuses)
    base = {"correct": all(s != "wrong" for s in statuses), "attempted": len(records), "failed": failed}
    latencies = {}
    for i, latency, _ in records:
        latencies.setdefault(i, []).append(latency * 1e3)
    per_request = {requests[i].label: statistics.median(v) for i, v in sorted(latencies.items())}
    return base, {"error_ratio": failed / len(records), "failures": failures, "request_median_ms": per_request}


def timed_run(cli, requests, args):
    setup_wall, setup_scaled = measure_setup(args.workload, args.seed)
    min_cycles = workloads.MIN_CYCLES[args.workload]
    elapsed, records, refs = run_cycles(cli, requests, args.seconds, min_cycles)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    statuses, failures = judge(requests, records)
    base, info = _summary(requests, records, statuses, failures)
    wall = [r[1] for r in records]
    guaranteed = min_cycles * len(requests)
    values, tail = end_to_end(setup_scaled, pace.scale(wall, refs), base["failed"], peak_rss_mb, guaranteed)
    wall_values, wall_tail = end_to_end(setup_wall, wall, base["failed"], peak_rss_mb, guaranteed)
    info.update(tail=tail, setup_samples_s=setup_scaled, elapsed_s=elapsed, cycles=len(records) // len(requests),
                wall={**{k: wall_values[k] for k in ("setup_s", "req_per_s", "req_p50_ms", "req_tail_ms")},
                      "tail": wall_tail, "setup_samples_s": setup_wall},
                reference_ms={"nominal": pace.NOMINAL_S * 1e3, "min": min(refs) * 1e3,
                              "median": statistics.median(refs) * 1e3, "max": max(refs) * 1e3})
    return {**base, "metrics": as_result(values, END_TO_END)}, info


def traced_run(cli, requests, args):
    plain_s, plain, plain_refs = run_cycles(cli, requests, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced, traced_refs = run_cycles(cli, requests, args.seconds / 2, tracer=tracer)
    finally:
        tracer.remove()
    records = plain + traced
    statuses, failures = judge(requests, records)
    base, info = _summary(requests, records, statuses, failures)

    values = layer_metrics(tracer.spans(), tracer.names, len(traced))
    plain_scaled = pace.scale([r[1] for r in plain], plain_refs)
    traced_scaled = pace.scale([r[1] for r in traced], traced_refs)
    values["trace.overhead_ratio"] = statistics.fmean(traced_scaled) / statistics.fmean(plain_scaled)
    for method, count in dispatch_counts(requests, traced).items():
        values[f"cli.dispatch.{method}"] = count / len(traced)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    info.update(untraced_s=plain_s, traced_s=traced_s, traced_requests=len(traced))
    return {**base, "metrics": as_result(values, PER_LAYER)}, info


if __name__ == "__main__":
    sys.exit(main())
