"""Command-line front end.

Subcommands: poly (one polynomial), family (a table over an order range),
eval (values at points), verify (identity suites), scan (extremal scans).
Output is deterministic for a fixed request and seed.

poly, eval and family answer each graph by the one route its class picks,
and the output's "method" names it: tree (the tree fold) for a forest,
recurrence (the order-4 walk) for a cycle and brute (the oracle) for any
other graph. A named family's route follows from its name; a graph read
from a file or built as a 2-corona is routed by _route.

verify and scan share one runner. Each suite is one row of _SUITES, keyed by
subcommand and suite name: its runner(order, trials, seed), default order,
default trials, smallest order, largest order, fewest trials and most
trials; the --suite choices come from that table. An order or a --trials
below those is a usage error, and so is --trials or --seed on a suite that
draws nothing at random (its default trials is 0). An order or a --trials
above the largest is refused before any work, with exit 3: there the
oracle would pass its budget (claim1, recurrence), or a tree scan, a walk
(closedform, minus-one) or a suite's random trials would run for more than
a few seconds.
A verify suite passes when it records no failure, a scan when every summary
flag its report names in `checks` holds.

Exit codes: 0 success, 1 a verify/scan suite found failures, 2 usage or
parse error (an evaluation beyond the float range included), 3 enumeration
or output budget exceeded or out of memory, 4 internal inconsistency or any
other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import cache
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

from .closedform import verify_closed_forms, verify_minus_one
from .errors import BudgetError, InternalConsistencyError
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
    _parse_edge_lines,
    cycle_graph,
    disjoint_union,
    fixed_small_corpus,
    is_cycle_shaped,
    path_graph,
    random_connected_corpus,
    star_graph,
    two_corona,
)
from .oracle import MAX_ENUM_ORDER, brute_force_tdp
from .polynomial import IntPoly, _binary_point
from .reduction import (
    _recurrence_terms,
    tree_tdp,
    verify_conditioned_path_recurrence,
    verify_edge_reduction,
    verify_recurrences,
    verify_vertex_reduction,
)
from .reports import ScanReport, VerificationReport, _jsonable

DEFAULT_SEED = 42


class _Suite(NamedTuple):
    run: Callable[[int, int, int], VerificationReport | ScanReport]  # (order, trials, seed)
    n: int | None  # default order; None where the order flag is required
    trials: int  # default trials
    smallest: int  # a smaller order would check nothing and pass vacuously
    largest: int = MAX_ENUM_ORDER  # a larger one is refused before any work
    fewest_trials: int = 0  # fewer --trials would check nothing too
    # more --trials are refused before any work (exit 3); a suite with no
    # default trials takes no --trials at all
    most_trials: int = 0


def _params(n: int, trials: int, seed: int) -> dict:
    return {"n_max": n, "trials": trials, "seed": seed}


# subcommand -> suite -> how to run it. The runners look their suite
# functions up at call time, so a rebinding of those names (as a tracer does)
# reaches them. claim1 and recurrence run the oracle at every order up to
# theirs; prop1, theorem1, theorem3, degree2 and gamma-bounds draw orders up
# to theirs and send each graph whole to the oracle, so all seven take the
# oracle's cap as their largest order; closedform stops about where its
# walk and exact checks run 1.6 s. Those five and minus-one also take
# as their most trials about the count that runs 1.6 s at the largest order
# on the slowest seed tried; theorem1 gets there at its default of 100,
# and theorem3 (3-5 s at n = 26) is past it already, so both stop at 100.
_SUITES: dict[str, dict[str, _Suite]] = {
    "verify": {
        "theorem1": _Suite(
            lambda n, t, s: verify_vertex_reduction(_verify_corpus(t, n, s), _params(n, t, s)), 10, 100, 2, most_trials=100
        ),
        "theorem3": _Suite(
            lambda n, t, s: verify_edge_reduction(_verify_corpus(t, n, s), _params(n, t, s)), 10, 100, 2, most_trials=100
        ),
        "claim1": _Suite(lambda n, t, s: verify_conditioned_path_recurrence(n_max=n), 14, 0, 5),
        "prop1": _Suite(
            lambda n, t, s: verify_basic_identities(_prop1_corpus(t, n, s), _params(n, t, s)), 10, 50, 2, most_trials=1000
        ),
        "recurrence": _Suite(lambda n, t, s: verify_recurrences(n_max=n), 18, 0, 1),
        "closedform": _Suite(lambda n, t, s: verify_closed_forms(n_max=n), 30, 0, 1, 950),
        "minus-one": _Suite(
            lambda n, t, s: verify_minus_one(path_n_max=n, forest_trials=t, seed=s), 60, 500, 1, 10**6, most_trials=50_000
        ),
    },
    "scan": {
        # the census of free trees bounds both tree scans; minimal-tree's
        # example walk also decodes up to n^(n-2) Pruefer sequences
        "tree-bound": _Suite(lambda n, t, s: scan_tree_bound(n), None, 0, 2, 14),
        "minimal-tree": _Suite(lambda n, t, s: minimal_tree_scan(n), None, 0, 2, 9),
        # every degree2 instance is drawn at random, so 0 trials check nothing
        "degree2": _Suite(lambda n, t, s: scan_degree2(t, n, s), None, 200, 2, fewest_trials=1, most_trials=4000),
        "gamma-bounds": _Suite(
            lambda n, t, s: scan_gamma_bounds(gamma_scan_corpus(t, n, s), _params(n, t, s)), None, 30, 3, most_trials=3500
        ),
    },
}

# family name -> (maker, smallest order, route): paths and stars are forests,
# so the tree engine answers them, and cycles take the walk; makers are looked
# up at call time too
_FAMILIES = {
    "path": (lambda n: path_graph(n), 1, "tree"),
    "cycle": (lambda n: cycle_graph(n), 3, "recurrence"),
    "star": (lambda n: star_graph(n), 2, "tree"),
}

# a request may print this many digits, summed over its members: a graph of
# order m prints m + 1 coefficients, each below 2^m, and at an integer x a
# value |D_t(x)| <= (1 + |x|)^m, as each coefficient is at most C(m, k)
_MAX_DIGITS = 3_000_000
# and one value this many: an int's decimal digits take time quadratic in
# their number (0.2 s at 100 000 digits, 19 s at 10^6 on Python 3.11), and
# so does Horner's exact numerator at a float or complex point
_MAX_VALUE_DIGITS = 100_000


class _Member(NamedTuple):  # one graph to solve
    order: int
    route: str | None  # tree, recurrence or brute; None: read off the graph by _route
    graph: Callable[[], Graph]  # a named family's is built only when an engine reads it


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in subparsers:
            # the subcommand's own parser reads the rest, as the full parser
            # would hand it on, and what it leaves is refused the same way
            args, extra = subparsers[argv[0]].parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.subcommand = argv[0]
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # a resource limit, like a budget, not a defect
        print("error: out of memory", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # GraphParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a defect: one line, never a traceback
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each subcommand's parser by name, built once
    per process.

    Parsing keeps no state in the parsers, so every main() call can share them.
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

    def add_output_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_poly = sub.add_parser("poly", help="compute one polynomial")
    add_graph_source(p_poly)
    add_output_options(p_poly)
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
    # argparse takes only -N and -N.N for negative numbers; every other point
    # that starts with "-" and a digit, "." or "i" (-1e3, -1+2i, -i) is a value too
    p_eval._negative_number_matcher = re.compile(r"^-[\d.i]")
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
    subparsers = {"poly": p_poly, "family": p_family, "eval": p_eval, "verify": p_verify, "scan": p_scan}
    return parser, subparsers


# -- graph sources -------------------------------------------------------------


def _load_member(args: argparse.Namespace) -> _Member:
    if args.infile is not None and args.family is not None:
        raise ValueError("give either --in or --family, not both")
    if args.infile is not None:
        if args.n is not None or args.base is not None:
            raise ValueError("--n/--base only apply to --family")
        n, edges = _read_edge_list(args.infile)
        return _lazy_member(n, lambda: Graph(range(n), edges))
    if args.family is None:
        raise ValueError("give a graph via --in FILE or --family NAME")
    if args.family == "two-corona":
        if (args.base is None) == (args.n is None):
            raise ValueError("two-corona takes exactly one of --base FILE or --n N")
        if args.base is not None:
            n, edges = _read_edge_list(args.base)
            return _lazy_member(3 * n, lambda: two_corona(Graph(range(n), edges)))
    elif args.base is not None:
        raise ValueError("--base only applies to --family two-corona")
    elif args.n is None:
        raise ValueError(f"--family {args.family} requires --n")
    return _family_member(args.family, args.n)


def _read_edge_list(path: str) -> tuple[int, dict[tuple[int, int], None]]:
    # one unbuffered bytes read and one decode cost less than a text-mode or
    # buffered read (no buffer to build, no isatty probe); the parser splits
    # "\r\n" and "\r" as text mode would, and drops a leading byte-order mark
    with open(path, "rb", buffering=0) as fh:
        return _parse_edge_lines(fh.read().decode("utf-8"))


def _lazy_member(order: int, build: Callable[[], Graph]) -> _Member:
    """A graph whose order is known before it is built: from a file's header,
    or as the 2-corona (order 3n) of one. It is built once, when its route
    is read, so the digit budget refuses it unbuilt."""
    return _Member(order, None, cache(build))


def _route(g: Graph) -> str:
    """The engine for a graph read from a file or built as a 2-corona: the
    tree fold for a forest, the walk for a cycle and the oracle for every
    other graph."""
    if g.is_forest():
        return "tree"
    return "recurrence" if is_cycle_shaped(g) else "brute"


def _family_member(family: str, n: int) -> _Member:
    """The member of a named family at order parameter n; two-corona's is
    the 2-corona of P_n, routed by its graph. An n below the family's
    smallest order (its base path's, for two-corona) is a usage error."""
    maker, lower, route = _FAMILIES["path" if family == "two-corona" else family]
    if n < lower:
        raise ValueError(f"family {family} starts at n = {lower}")
    if family == "two-corona":
        return _lazy_member(3 * n, lambda: two_corona(maker(n)))
    return _Member(n, route, lambda: maker(n))


def _value_digits(order: int, points: Iterable[int | float | complex]) -> Iterator[int]:
    """Predicted digits of D_t(x) at each point for a graph of this order:
    at x = (a + bi)/q, Horner's exact numerator is at most (|a| + |b| + q)^m
    in size. A point past _MAX_VALUE_DIGITS is refused; only an integer
    point's count is yielded, since a float or complex value prints as a float."""
    for x in points:
        a, b, q = (x, 0, 1) if isinstance(x, int) else _binary_point(x)
        count = math.floor(order * math.log10(abs(a) + abs(b) + q)) + 1
        if count > _MAX_VALUE_DIGITS:
            raise BudgetError(f"a value is capped at {_MAX_VALUE_DIGITS} predicted digits, got {count} by n = {order}")
        if isinstance(x, int):
            yield count


def _solve(
    members: Iterable[_Member], points: Iterable[int | float | complex] = ()
) -> Iterator[tuple[IntPoly, dict]]:
    """(D_t, output envelope) of each member in turn, once the digits all of
    them may print, their coefficients and their values at the points, are
    known to fit _MAX_DIGITS. The walk answers cycles only, and a family's
    members come in consecutive orders, so they take the terms of one walk;
    only the tree and brute engines read a member's graph."""
    admitted, digits = [], 0
    for m in members:
        coefficients = (m.order + 1) * (math.floor(m.order * math.log10(2)) + 1)
        for count in chain([coefficients], _value_digits(m.order, points)):
            digits += count
            if digits > _MAX_DIGITS:
                raise BudgetError(f"output is capped at {_MAX_DIGITS} predicted digits, got {digits} by n = {m.order}")
        admitted.append(m)
    walk = None
    for m in admitted:
        route = m.route or _route(m.graph())
        if route == "tree":
            poly = tree_tdp(m.graph())
        elif route == "brute":
            poly = brute_force_tdp(m.graph())
        else:
            if walk is None:
                walk = _recurrence_terms("cycle", m.order)
            poly = next(walk)
        yield poly, {"n": m.order, "method": route, "gamma_t": poly.min_degree(), "coeffs": poly.to_coeff_strings()}


# -- evaluation points ------------------------------------------------------------


def parse_point(text: str) -> int | float | complex:
    """Parse an evaluation point: integer, float, or complex written as a+bi.
    A float or complex point must be finite."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty evaluation point")
    try:
        return int(t)
    except ValueError:
        pass
    if re.fullmatch(r"[+-]?[0-9]+", t):  # an integer past Python's int-from-str limit
        from decimal import Decimal  # imported here: only such a point needs it

        return int(Decimal(t))
    try:
        value = float(t)
    except ValueError:
        u = t.replace("i", "j").replace("I", "j")
        u = re.sub(r"(?<![\d.])j", "1j", u)
        try:
            value = complex(u)
        except ValueError:
            raise ValueError(f"cannot parse evaluation point {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"evaluation point {text!r} is not finite")
    return value


# -- subcommands ----------------------------------------------------------------


def _cmd_poly(args: argparse.Namespace) -> int:
    """poly, and eval when --at gives points: the one-graph case of family."""
    member = _load_member(args)
    points = {token: parse_point(token) for token in args.at or ()}
    poly, env = next(_solve([member], points.values()))
    if args.at is not None:
        env["evaluations"] = {token: _jsonable(poly.evaluate(x)) for token, x in points.items()}
    if args.format == "json":
        print(json.dumps(env, separators=(",", ":")))
        return 0
    lines = [f"n = {env['n']}", f"method = {env['method']}", f"gamma_t = {env['gamma_t']}", f"D_t = {poly}"]
    lines += [f"D_t({point}) = {value}" for point, value in env.get("evaluations", {}).items()]
    print("\n".join(lines))
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    if args.n_min > args.n_max:
        raise ValueError("--n-min must not exceed --n-max")
    members = (_family_member(args.family, n) for n in range(args.n_min, args.n_max + 1))
    solved = list(_solve(members))
    out = {"family": args.family, "n_min": args.n_min, "n_max": args.n_max, "items": [env for _, env in solved]}
    if args.format == "json":
        print(json.dumps(out, separators=(",", ":")))
    else:
        for poly, env in solved:
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
    if n > suite.largest:
        raise BudgetError(f"{name} is capped at n <= {suite.largest}, got n = {n}")
    if trials > suite.most_trials:
        raise BudgetError(f"{name} is capped at --trials <= {suite.most_trials}, got --trials {trials}")
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
