"""Command-line front end.

Subcommands: poly (one polynomial), family (a table over an order range),
eval (values at points), verify (identity suites), scan (extremal scans).
Output is deterministic for a fixed request and seed; elapsed time is only
emitted when --timing is passed, precisely so byte-identity holds without it.

verify and scan share one runner. Each suite is one row of _SUITES, keyed by
subcommand and suite name: its runner(order, trials, seed), default order,
default trials, smallest order and fewest trials; the --suite choices come
from that table. An order or a --trials below those is a usage error, and
so is --trials or --seed on a suite that draws nothing at random (its
default trials is 0). A verify suite passes when it records no failure, a
scan when every summary flag its report names in `checks` holds.

Exit codes: 0 success, 1 a verify/scan suite found failures, 2 usage or
parse error (an evaluation beyond the float range included), 3 enumeration
budget exceeded or out of memory, 4 internal inconsistency or any other
unexpected error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from functools import cache
from typing import Callable, NamedTuple

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
from .oracle import MAX_ENUM_ORDER, brute_force_tdp
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


class _Suite(NamedTuple):
    run: Callable[[int, int, int], VerificationReport | ScanReport]  # (order, trials, seed)
    n: int | None  # default order; None where the order flag is required
    trials: int  # default trials
    smallest: int  # a smaller order would check nothing and pass vacuously
    fewest_trials: int = 0  # likewise for fewer trials


def _params(n: int, trials: int, seed: int) -> dict:
    return {"n_max": n, "trials": trials, "seed": seed}


# subcommand -> suite -> how to run it. The runners look their suite
# functions up at call time, so a rebinding of those names (as a tracer does)
# reaches them.
_SUITES: dict[str, dict[str, _Suite]] = {
    "verify": {
        "theorem1": _Suite(lambda n, t, s: verify_vertex_reduction(_verify_corpus(t, n, s), _params(n, t, s)), 10, 100, 2),
        "theorem3": _Suite(lambda n, t, s: verify_edge_reduction(_verify_corpus(t, n, s), _params(n, t, s)), 10, 100, 2),
        "claim1": _Suite(lambda n, t, s: verify_conditioned_path_recurrence(n_max=n), 14, 0, 5),
        "prop1": _Suite(lambda n, t, s: verify_basic_identities(_prop1_corpus(t, n, s), _params(n, t, s)), 10, 50, 2),
        "recurrence": _Suite(lambda n, t, s: verify_recurrences(n_max=n), 18, 0, 1),
        "closedform": _Suite(lambda n, t, s: verify_closed_forms(n_max=n), 30, 0, 1),
        "minus-one": _Suite(lambda n, t, s: verify_minus_one(path_n_max=n, forest_trials=t, seed=s), 60, 500, 1),
    },
    "scan": {
        "tree-bound": _Suite(lambda n, t, s: scan_tree_bound(n), None, 0, 2),
        "minimal-tree": _Suite(lambda n, t, s: minimal_tree_scan(n), None, 0, 2),
        # every degree2 instance is drawn at random, so 0 trials check nothing
        "degree2": _Suite(lambda n, t, s: scan_degree2(t, n, s), None, 200, 2, 1),
        "gamma-bounds": _Suite(lambda n, t, s: scan_gamma_bounds(gamma_scan_corpus(t, n, s), _params(n, t, s)), None, 30, 3),
    },
}

# family name -> (maker, smallest order); makers are looked up at call time too
_FAMILIES = {
    "path": (lambda n: path_graph(n), 1),
    "cycle": (lambda n: cycle_graph(n), 3),
    "star": (lambda n: star_graph(n), 2),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (GraphParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # a resource limit, like a budget, not a defect
        print("error: out of memory", file=sys.stderr)
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
        p.add_argument("--family", choices=(*_FAMILIES, "two-corona"), help="named family")
        p.add_argument("--n", type=int, help="family order parameter")
        p.add_argument("--base", metavar="FILE", help="base graph file (two-corona only)")

    def add_output_options(p: argparse.ArgumentParser, timing_help: str | None = None) -> None:
        p.add_argument("--method", choices=("auto", "brute", "tree", "recurrence"), default="auto")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true", help=timing_help)

    p_poly = sub.add_parser("poly", help="compute one polynomial")
    add_graph_source(p_poly)
    add_output_options(p_poly, "include elapsed milliseconds")
    p_poly.set_defaults(run=_cmd_poly, at=None)

    p_family = sub.add_parser("family", help="tabulate a family over an order range")
    p_family.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p_family.add_argument("--n-min", type=int, required=True)
    p_family.add_argument("--n-max", type=int, required=True)
    add_output_options(p_family)
    p_family.set_defaults(run=_cmd_family)

    p_eval = sub.add_parser("eval", help="evaluate at one or more points")
    add_graph_source(p_eval)
    p_eval.add_argument("--at", nargs="+", required=True, metavar="POINT",
                        help="evaluation points; complex accepted as a+bi")
    add_output_options(p_eval)
    p_eval.set_defaults(run=_cmd_poly)

    p_verify = sub.add_parser("verify", help="run a differential identity suite")
    p_verify.add_argument("--suite", choices=tuple(_SUITES["verify"]), required=True)
    p_verify.add_argument("--n-max", dest="n", metavar="N_MAX", type=int)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(run=_cmd_suite, order_flag="--n-max", format="json")

    p_scan = sub.add_parser("scan", help="run an extremal scan")
    p_scan.add_argument("--suite", choices=tuple(_SUITES["scan"]), required=True)
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--trials", type=int)
    p_scan.add_argument("--seed", type=int)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.set_defaults(run=_cmd_suite, order_flag="--n")
    return parser


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
    elif args.base is not None:
        raise ValueError("--base only applies to --family two-corona")
    elif args.n is None:
        raise ValueError(f"--family {args.family} requires --n")
    return _family_member(args.family, args.n)


def _family_member(family: str, n: int) -> Graph:
    """The member of a named family at order parameter n; two-corona's is
    the 2-corona of P_n. An n below the family's smallest order (its base
    path's, for two-corona) is a usage error."""
    maker, lower = _FAMILIES["path" if family == "two-corona" else family]
    if n < lower:
        raise ValueError(f"family {family} starts at n = {lower}")
    return two_corona(maker(n)) if family == "two-corona" else maker(n)


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
    """poly, and eval when --at gives points."""
    start = time.perf_counter()
    g = _load_graph(args)
    poly, used = compute_poly(g, args.method)
    env = make_envelope(g, poly, used)
    if args.at is not None:
        env["evaluations"] = {
            token: _value_for_output(poly.evaluate(parse_point(token))) for token in args.at
        }
    if args.timing:
        env["timing_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    _emit_envelope(env, args.format)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    if args.n_min > args.n_max:
        raise ValueError("--n-min must not exceed --n-max")
    items = []
    for n in range(args.n_min, args.n_max + 1):
        g = _family_member(args.family, n)
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


def _verify_corpus(trials: int, n_max: int, seed: int) -> list[Graph]:
    return fixed_small_corpus() + random_connected_corpus(trials, n_max, seed)


def _prop1_corpus(trials: int, n_max: int, seed: int) -> list[Graph]:
    """Connected corpus plus structured members exercising the edge cases:
    a lone vertex (undominatable), and disconnected unions of corpus graphs
    (a pair whose union is past the oracle's cap is left out)."""
    graphs = _verify_corpus(trials, n_max, seed)
    extras: list[Graph] = [Graph([0]), disjoint_union(path_graph(2), Graph([0]))]
    for a, b in zip(graphs[0::7], graphs[1::7]):
        if a.order + b.order <= MAX_ENUM_ORDER:
            extras.append(disjoint_union(a, b))
    return graphs + extras


def _cmd_suite(args: argparse.Namespace) -> int:
    """verify and scan: run the suite named in _SUITES and exit 1 if it failed."""
    suite = _SUITES[args.subcommand][args.suite]
    n = suite.n if args.n is None else args.n
    trials = suite.trials if args.trials is None else args.trials
    name = f"{args.subcommand} --suite {args.suite}"
    if suite.trials == 0:
        for flag, value in (("--trials", args.trials), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{name} draws nothing at random, so it takes no {flag}")
    if n < suite.smallest:
        raise ValueError(f"{name} starts at n = {suite.smallest}; got {args.order_flag} {n}")
    if trials < suite.fewest_trials:
        raise ValueError(f"{name} needs --trials >= {suite.fewest_trials}; got --trials {trials}")
    report = suite.run(n, trials, DEFAULT_SEED if args.seed is None else args.seed)
    if args.format == "csv":
        print(report.to_csv(), end="")  # to_csv already terminates the last row
    else:
        print(report.to_json())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
