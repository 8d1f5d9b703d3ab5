"""Command-line front end.

Subcommands: poly (one polynomial), family (a table over an order range),
eval (values at points), verify (identity suites), scan (extremal scans).
Output is deterministic for a fixed request and seed; elapsed time is only
emitted when --timing is passed, precisely so byte-identity holds without it.

Exit codes: 0 success, 1 a verify/scan suite found failures, 2 usage or
parse error (an evaluation beyond the float range included), 3 enumeration
budget exceeded, 4 internal inconsistency or any other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from functools import cache

from .closedform import verify_closed_forms, verify_minus_one
from .errors import BudgetError, GraphParseError, InternalConsistencyError
from .extremal import (
    gamma_scan_corpus,
    minimal_tree_scan,
    scan_degree2,
    scan_gamma_bounds,
    scan_tree_bound,
    verify_basic_identities,
)
from .graph import (
    Graph,
    cycle_graph,
    disjoint_union,
    fixed_small_corpus,
    is_cycle_shaped,
    is_path_shaped,
    parse_edge_list,
    path_graph,
    random_connected_corpus,
    star_graph,
    two_corona,
)
from .oracle import brute_force_tdp
from .polynomial import IntPoly
from .reduction import (
    cycle_tdp,
    path_tdp,
    tree_tdp,
    verify_conditioned_path_recurrence,
    verify_edge_reduction,
    verify_recurrences,
    verify_vertex_reduction,
)
from .reports import ScanReport, VerificationReport

DEFAULT_SEED = 42

_VERIFY_DEFAULTS = {
    # suite: (n_max, trials)
    "theorem1": (10, 100),
    "theorem3": (10, 100),
    "claim1": (14, 0),
    "prop1": (10, 50),
    "recurrence": (18, 0),
    "closedform": (30, 0),
    "minus-one": (60, 500),
}

# The smallest order each suite checks: a smaller --n-max (--n for scan)
# would run no instance and pass vacuously, so it is a usage error.
_SMALLEST_ORDER = {
    "theorem1": 2,
    "theorem3": 2,
    "claim1": 5,
    "prop1": 2,
    "recurrence": 1,
    "closedform": 1,
    "degree2": 2,
}

_SCAN_DEFAULT_TRIALS = {
    "tree-bound": 0,
    "minimal-tree": 0,
    "degree2": 200,
    "gamma-bounds": 30,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (GraphParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a defect: one line, never a traceback
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing keeps no state in the parser, so every main() call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="tdpoly", description="Total domination polynomial toolkit."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_graph_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--in", dest="infile", metavar="FILE", help="edge-list file")
        p.add_argument(
            "--family", choices=("path", "cycle", "star", "two-corona"), help="named family"
        )
        p.add_argument("--n", type=int, help="family order parameter")
        p.add_argument("--base", metavar="FILE", help="base graph file (two-corona only)")

    p_poly = sub.add_parser("poly", help="compute one polynomial")
    add_graph_source(p_poly)
    p_poly.add_argument("--method", choices=("auto", "brute", "tree", "recurrence"), default="auto")
    p_poly.add_argument("--format", choices=("json", "text"), default="json")
    p_poly.add_argument("--timing", action="store_true", help="include elapsed milliseconds")

    p_family = sub.add_parser("family", help="tabulate a family over an order range")
    p_family.add_argument("--family", choices=("path", "cycle", "star"), required=True)
    p_family.add_argument("--n-min", type=int, required=True)
    p_family.add_argument("--n-max", type=int, required=True)
    p_family.add_argument("--method", choices=("auto", "brute", "tree", "recurrence"), default="auto")
    p_family.add_argument("--format", choices=("json", "text"), default="json")
    p_family.add_argument("--timing", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate at one or more points")
    add_graph_source(p_eval)
    p_eval.add_argument("--at", nargs="+", required=True, metavar="POINT",
                        help="evaluation points; complex accepted as a+bi")
    p_eval.add_argument("--method", choices=("auto", "brute", "tree", "recurrence"), default="auto")
    p_eval.add_argument("--format", choices=("json", "text"), default="json")
    p_eval.add_argument("--timing", action="store_true")

    p_verify = sub.add_parser("verify", help="run a differential identity suite")
    p_verify.add_argument(
        "--suite",
        choices=("theorem1", "theorem3", "claim1", "prop1", "recurrence", "closedform", "minus-one"),
        required=True,
    )
    p_verify.add_argument("--n-max", type=int)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_scan = sub.add_parser("scan", help="run an extremal scan")
    p_scan.add_argument(
        "--suite", choices=("tree-bound", "minimal-tree", "degree2", "gamma-bounds"), required=True
    )
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--trials", type=int)
    p_scan.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.subcommand == "poly":
        return _cmd_poly(args)
    if args.subcommand == "family":
        return _cmd_family(args)
    if args.subcommand == "eval":
        return _cmd_eval(args)
    if args.subcommand == "verify":
        return _cmd_verify(args)
    if args.subcommand == "scan":
        return _cmd_scan(args)
    raise ValueError(f"unknown subcommand {args.subcommand!r}")


# -- graph sources -------------------------------------------------------------


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.infile is not None and args.family is not None:
        raise ValueError("give either --in or --family, not both")
    if args.infile is not None:
        if args.n is not None or args.base is not None:
            raise ValueError("--n/--base only apply to --family")
        with open(args.infile, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    if args.family is None:
        raise ValueError("give a graph via --in FILE or --family NAME")
    if args.family == "two-corona":
        if (args.base is None) == (args.n is None):
            raise ValueError("two-corona takes exactly one of --base FILE or --n N")
        if args.base is not None:
            with open(args.base, encoding="utf-8") as fh:
                return two_corona(parse_edge_list(fh.read()))
        return two_corona(path_graph(args.n))
    if args.base is not None:
        raise ValueError("--base only applies to --family two-corona")
    if args.n is None:
        raise ValueError(f"--family {args.family} requires --n")
    maker = {"path": path_graph, "cycle": cycle_graph, "star": star_graph}[args.family]
    return maker(args.n)


def compute_poly(g: Graph, method: str) -> tuple[IntPoly, str]:
    """Resolve the method selector and return (polynomial, method actually used)."""
    if method == "auto":
        if g.is_forest():
            return tree_tdp(g), "tree"
        if is_cycle_shaped(g):
            return cycle_tdp(g.order), "recurrence"
        return brute_force_tdp(g), "brute"
    if method == "brute":
        return brute_force_tdp(g), "brute"
    if method == "tree":
        return tree_tdp(g), "tree"
    if method == "recurrence":
        if is_path_shaped(g):
            return path_tdp(g.order), "recurrence"
        if is_cycle_shaped(g):
            return cycle_tdp(g.order), "recurrence"
        raise ValueError("recurrence method applies only to path- or cycle-shaped graphs")
    raise ValueError(f"unknown method {method!r}")


# -- envelopes ------------------------------------------------------------------


def make_envelope(g: Graph, poly: IntPoly, method: str) -> dict:
    gamma = poly.min_degree()
    return {"n": g.order, "method": method, "gamma_t": gamma, "coeffs": poly.to_coeff_strings()}


def envelope_to_poly(envelope: dict) -> IntPoly:
    """Inverse of the coeffs part of make_envelope (round-trip contract)."""
    return IntPoly.from_coeff_strings(envelope["coeffs"])


def _envelope_text(env: dict) -> str:
    lines = [f"n = {env['n']}", f"method = {env['method']}", f"gamma_t = {env['gamma_t']}"]
    lines.append(f"D_t = {IntPoly.from_coeff_strings(env['coeffs'])}")
    if "evaluations" in env:
        for point, value in env["evaluations"].items():
            lines.append(f"D_t({point}) = {value}")
    if "timing_ms" in env:
        lines.append(f"timing_ms = {env['timing_ms']}")
    return "\n".join(lines)


def _emit_envelope(env: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(env, separators=(",", ":")))
    else:
        print(_envelope_text(env))


def parse_point(text: str) -> int | float | complex:
    """Parse an evaluation point: integer, float, or complex written as a+bi."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty evaluation point")
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    u = t.replace("i", "j").replace("I", "j")
    u = re.sub(r"(?<![\d.])j", "1j", u)
    try:
        return complex(u)
    except ValueError:
        raise ValueError(f"cannot parse evaluation point {text!r}") from None


def _value_for_output(value: int | float | complex):
    # exact integers travel as decimal strings, like coefficients do
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        return str(value)
    return value


# -- subcommands ----------------------------------------------------------------


def _cmd_poly(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    g = _load_graph(args)
    poly, used = compute_poly(g, args.method)
    env = make_envelope(g, poly, used)
    if args.timing:
        env["timing_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    _emit_envelope(env, args.format)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    if args.n_min > args.n_max:
        raise ValueError("--n-min must not exceed --n-max")
    lower = {"path": 1, "cycle": 3, "star": 2}[args.family]
    if args.n_min < lower:
        raise ValueError(f"family {args.family} starts at n = {lower}")
    maker = {"path": path_graph, "cycle": cycle_graph, "star": star_graph}[args.family]
    items = []
    for n in range(args.n_min, args.n_max + 1):
        g = maker(n)
        poly, used = compute_poly(g, args.method)
        items.append(make_envelope(g, poly, used))
    out = {"family": args.family, "n_min": args.n_min, "n_max": args.n_max, "items": items}
    if args.timing:
        out["timing_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    if args.format == "json":
        print(json.dumps(out, separators=(",", ":")))
    else:
        for env in items:
            poly = IntPoly.from_coeff_strings(env["coeffs"])
            print(f"n={env['n']} method={env['method']} gamma_t={env['gamma_t']} D_t = {poly}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    g = _load_graph(args)
    poly, used = compute_poly(g, args.method)
    env = make_envelope(g, poly, used)
    env["evaluations"] = {
        token: _value_for_output(poly.evaluate(parse_point(token))) for token in args.at
    }
    if args.timing:
        env["timing_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    _emit_envelope(env, args.format)
    return 0


def _check_smallest_order(args: argparse.Namespace, flag: str, n: int) -> None:
    smallest = _SMALLEST_ORDER.get(args.suite)
    if smallest is not None and n < smallest:
        raise ValueError(
            f"{args.subcommand} --suite {args.suite} starts at n = {smallest}; got {flag} {n}"
        )


def _verify_corpus(trials: int, n_max: int, seed: int) -> list[Graph]:
    return fixed_small_corpus() + random_connected_corpus(trials, n_max, seed)


def _prop1_corpus(trials: int, n_max: int, seed: int) -> list[Graph]:
    """Connected corpus plus structured members exercising the edge cases:
    a lone vertex (undominatable), and disconnected unions of corpus graphs."""
    graphs = _verify_corpus(trials, n_max, seed)
    extras: list[Graph] = [Graph([0]), disjoint_union(path_graph(2), Graph([0]))]
    for a, b in zip(graphs[0::7], graphs[1::7]):
        extras.append(disjoint_union(a, b))
    return graphs + extras


def _cmd_verify(args: argparse.Namespace) -> int:
    default_n, default_trials = _VERIFY_DEFAULTS[args.suite]
    n_max = args.n_max if args.n_max is not None else default_n
    trials = args.trials if args.trials is not None else default_trials
    seed = args.seed
    _check_smallest_order(args, "--n-max", n_max)
    params = {"n_max": n_max, "trials": trials, "seed": seed}

    if args.suite == "theorem1":
        report = verify_vertex_reduction(_verify_corpus(trials, n_max, seed), params)
    elif args.suite == "theorem3":
        report = verify_edge_reduction(_verify_corpus(trials, n_max, seed), params)
    elif args.suite == "claim1":
        report = verify_conditioned_path_recurrence(n_max=n_max)
    elif args.suite == "prop1":
        report = verify_basic_identities(_prop1_corpus(trials, n_max, seed), params)
    elif args.suite == "recurrence":
        report = verify_recurrences(n_max=n_max)
    elif args.suite == "closedform":
        report = verify_closed_forms(n_max=n_max)
    else:
        report = verify_minus_one(path_n_max=n_max, forest_trials=trials, seed=seed)
    print(report.to_json())
    return 0 if report.passed else 1


def _scan_passed(suite: str, report: ScanReport) -> bool:
    checks = {
        "tree-bound": ("all_bound_hold", "equality_exactly_stars", "max_attained_only_by_star_poly"),
        "minimal-tree": (),  # descriptive census; nothing to fail
        "degree2": ("all_bounds_hold", "all_identities_hold"),
        "gamma-bounds": ("all_ok",),
    }[suite]
    return all(report.summary[key] for key in checks)


def _cmd_scan(args: argparse.Namespace) -> int:
    trials = args.trials if args.trials is not None else _SCAN_DEFAULT_TRIALS[args.suite]
    _check_smallest_order(args, "--n", args.n)
    if args.suite == "tree-bound":
        report = scan_tree_bound(args.n)
    elif args.suite == "minimal-tree":
        report = minimal_tree_scan(args.n)
    elif args.suite == "degree2":
        report = scan_degree2(trials, args.n, args.seed)
    else:
        corpus = gamma_scan_corpus(trials, max(args.n, 3), args.seed)
        report = scan_gamma_bounds(corpus, {"n_max": args.n, "trials": trials, "seed": args.seed})
    if args.format == "csv":
        print(report.to_csv(), end="")  # to_csv already terminates the last row
    else:
        print(report.to_json())
    return 0 if _scan_passed(args.suite, report) else 1


if __name__ == "__main__":
    sys.exit(main())
