"""Correctness gate: checks every request's output by a route independent of
the one the CLI took, or against a known fact. It runs after the timed loop.

A request's outcome is one of
  ok     -- the output passed every check;
  error  -- no answer: an exception, a nonzero exit code, or a non-finite
            number (nan or inf) in place of a value;
  wrong  -- an answer that disagrees with the independent route.
Both error and wrong count as failed requests; only wrong makes the run
incorrect.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from tdpoly.closedform import cycle_closed_eval, path_at_minus_one
from tdpoly.reduction import path_tdp

from workloads import EVAL_POINTS, Outcome, Request

OK, ERROR, WRONG = "ok", "error", "wrong"

# Census facts over all labeled trees (README, "Findings from the scans"):
# n -> (distinct polynomials, a coefficient-wise minimal one exists)
MINIMAL_TREE_CENSUS = {4: (2, True), 5: (3, True), 6: (5, False), 7: (9, True), 8: (15, False)}

SCAN_FLAGS = {
    "tree-bound": ("all_bound_hold", "equality_exactly_stars", "max_attained_only_by_star_poly"),
    "minimal-tree": (),
    "degree2": ("all_bounds_hold", "all_identities_hold"),
    "gamma-bounds": ("all_ok",),
}

# graphs up to this order are checked against the benchmark's own full
# enumeration; d_t(n-k) for k <= TOP_CHECK_K is checked on every graph
FULL_CHECK_MAX_N = 22
TOP_CHECK_K = 3
CLOSED_FORM_REL_TOL = 1e-6
UNIT_ROUNDOFF = 2.0**-53


class Mismatch(Exception):
    """An answer disagreed with the independent route."""


class NoAnswer(Exception):
    """The program produced no usable answer."""


def check(req: Request, out: Outcome) -> tuple[str, str]:
    """Return (status, reason) for one request's outcome."""
    if out.rc is None:
        return ERROR, out.error
    if out.rc != 0:
        return ERROR, f"exit code {out.rc}"
    try:
        _CHECKS[req.kind](req.facts, out.stdout if req.kind == "scan-csv" else json.loads(out.stdout))
    except NoAnswer as exc:
        return ERROR, str(exc)
    except (Mismatch, KeyError, TypeError, ValueError) as exc:
        return WRONG, f"{type(exc).__name__}: {exc}"
    return OK, ""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _coeffs(env: dict, n: int) -> list[int]:
    """Decode an envelope's coefficients and check the facts every polynomial obeys."""
    _expect(int(env["n"]) == n, f"envelope n={env['n']}, expected {n}")
    coeffs = [int(c) for c in env["coeffs"]]
    nonzero = [i for i, c in enumerate(coeffs) if c]
    gamma = nonzero[0] if nonzero else None
    _expect(env["gamma_t"] == gamma, f"gamma_t {env['gamma_t']} but lowest nonzero degree {gamma}")
    _expect(len(coeffs) <= n + 1, f"degree {len(coeffs) - 1} exceeds n={n}")
    _expect(all(c >= 0 for c in coeffs), "negative coefficient")
    return coeffs


def _coeff(coeffs: list[int], i: int) -> int:
    return coeffs[i] if 0 <= i < len(coeffs) else 0


def _check_top(coeffs: list[int], n: int, supports: int) -> None:
    """For a graph without isolated vertices: V totally dominates, and V - v
    does unless v is the only neighbour of some leaf."""
    _expect(_coeff(coeffs, n) == 1, f"d_t(n) = {_coeff(coeffs, n)}")
    got = _coeff(coeffs, n - 1)
    _expect(got == n - supports, f"d_t(n-1) = {got}, expected n - #supports = {n - supports}")


def _horner(coeffs: list[int], x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def count_by_size(adjacency: list[int]) -> list[int]:
    """Totally dominating sets of every size by full subset enumeration, in
    chunks of 2^20 masks (the benchmark's own route, for n <= FULL_CHECK_MAX_N)."""
    n = len(adjacency)
    full = (1 << n) - 1
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, 1 << n, 1 << 20):
        masks = np.arange(start, min(start + (1 << 20), 1 << n), dtype=np.int64)
        cover = np.zeros_like(masks)
        for v, nbrs in enumerate(adjacency):
            cover |= np.where((masks >> v) & 1 == 1, nbrs, 0)
        counts += np.bincount(np.bitwise_count(masks[cover == full]), minlength=n + 1)
    return counts.tolist()


def count_complements(adjacency: list[int], k: int) -> int:
    """d_t(n - k): k-sets S whose complement dominates, i.e. no vertex has all
    of its neighbours in S."""
    count = 0
    for removed in combinations(range(len(adjacency)), k):
        s = sum(1 << v for v in removed)
        count += all(nbrs & ~s for nbrs in adjacency)
    return count


def _check_poly_graph(facts: dict, env: dict) -> None:
    n, adjacency = facts["n"], facts["adjacency"]
    coeffs = _coeffs(env, n)
    if n <= FULL_CHECK_MAX_N:
        want = count_by_size(adjacency)
        _expect(coeffs + [0] * (n + 1 - len(coeffs)) == want, "differs from full subset enumeration")
    for k in range(min(TOP_CHECK_K, n) + 1):
        want = count_complements(adjacency, k)
        _expect(_coeff(coeffs, n - k) == want, f"d_t(n-{k}) = {_coeff(coeffs, n - k)}, expected {want}")
    if facts["forest"]:
        at_minus_one = _horner(coeffs, -1)
        _expect(at_minus_one in (0, 1), f"forest value at -1 is {at_minus_one}")


def _check_poly_path(facts: dict, env: dict) -> None:
    n = facts["n"]
    coeffs = _coeffs(env, n)
    _check_top(coeffs, n, 2 if n >= 4 else 1)
    _expect(coeffs == list(path_tdp(n).coeffs), "differs from the path recurrence")
    _expect(_horner(coeffs, -1) == path_at_minus_one(n), "value at -1 breaks the period-6 rule")


def _check_cycle_coeffs(env: dict, n: int) -> list[int]:
    coeffs = _coeffs(env, n)
    _check_top(coeffs, n, 0)
    _expect(_horner(coeffs, -1) == round(cycle_closed_eval(n, -1.0)), "value at -1 off the closed form")
    return coeffs


def _check_family_cycle(facts: dict, doc: dict) -> None:
    items = doc["items"]
    want = list(range(facts["n_min"], facts["n_max"] + 1))
    _expect([int(env["n"]) for env in items] == want, "rows do not cover the order range")
    for env in items:
        n = int(env["n"])
        exact = _horner(_check_cycle_coeffs(env, n), 2)
        closed = cycle_closed_eval(n, 2.0)
        _expect(abs(exact - closed) <= CLOSED_FORM_REL_TOL * closed, f"C_{n} at x=2 is {exact}, closed form {closed}")


def _as_float(x) -> float | None:
    """float(x), or None when x is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _exact_at(coeffs: list[int], token: str):
    """D(x) at an evaluation point by exact arithmetic, as int or as a complex
    (None when a float cannot hold it)."""
    if token in ("-1", "2"):
        return _horner(coeffs, int(token))
    if token == "0.5":
        value = _as_float(_horner(coeffs, Fraction(1, 2)))
        return None if value is None else complex(value)
    re_, im_ = 0, 0
    for c in reversed(coeffs):  # Gaussian-integer Horner at 1 + 2i
        re_, im_ = re_ - 2 * im_ + c, 2 * re_ + im_
    re_f, im_f = _as_float(re_), _as_float(im_)
    return None if re_f is None or im_f is None else complex(re_f, im_f)


def _abs_sum(coeffs: list[int], r: float) -> float:
    """sum |c_i| r^i in floats, inf when beyond the float range."""
    shift = max(0, max(abs(c).bit_length() for c in coeffs) - 900)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r + float(abs(c) >> shift)
    try:
        return math.ldexp(acc, shift)
    except OverflowError:
        return math.inf


def _check_eval_cycle(facts: dict, env: dict) -> None:
    n = facts["n"]
    coeffs = _check_cycle_coeffs(env, n)
    values = env["evaluations"]
    _expect(list(values) == list(EVAL_POINTS), f"evaluated points {list(values)}")
    for token, got in values.items():
        exact = _exact_at(coeffs, token)
        if isinstance(exact, int):
            _expect(int(got) == exact, f"value at {token} is {got}, exact value {exact}")
            continue
        value = complex(got)
        if not cmath.isfinite(value):
            raise NoAnswer(f"non-finite value {got} at x={token}")
        _expect(exact is not None, f"finite value {got} at x={token}, but the exact value overflows a float")
        # forward error bound of floating-point Horner (Higham, Accuracy and
        # Stability of Numerical Algorithms, sec. 5.1), doubled for complex products
        bound = 4 * len(coeffs) * UNIT_ROUNDOFF * _abs_sum(coeffs, abs(complex(token.replace("i", "j"))))
        _expect(abs(value - exact) <= bound, f"value at x={token} is {got}, exact {exact}, error bound {bound:.3g}")


def _check_census_rows(suite: str, n: int, rows: list[dict]) -> None:
    """Rows of a tree-bound or minimal-tree scan, from JSON or CSV."""
    cayley = n ** (n - 2)
    total = sum(int(row["labeled_count"]) for row in rows)
    _expect(total == cayley, f"rows count {total} labeled trees, expected n^(n-2) = {cayley}")
    if suite == "minimal-tree" and n in MINIMAL_TREE_CENSUS:
        distinct, exists = MINIMAL_TREE_CENSUS[n]
        _expect(len(rows) == distinct, f"{len(rows)} distinct polynomials")
        minimal = sum(row["is_minimal"] in (True, "true") for row in rows)
        _expect(minimal == int(exists), f"{minimal} rows marked minimal")


def _check_scan(facts: dict, doc: dict) -> None:
    suite, n = facts["suite"], facts["n"]
    summary = doc["summary"]
    for flag in SCAN_FLAGS[suite]:
        _expect(summary[flag] is True, f"summary flag {flag} is {summary[flag]}")
    if suite in ("tree-bound", "minimal-tree"):
        _expect(int(summary["labeled_trees"]) == n ** (n - 2), f"labeled_trees {summary['labeled_trees']} != n^(n-2)")
        _check_census_rows(suite, n, doc["rows"])
    if suite == "minimal-tree" and n in MINIMAL_TREE_CENSUS:
        distinct, exists = MINIMAL_TREE_CENSUS[n]
        _expect(int(summary["distinct_polys"]) == distinct, f"distinct_polys {summary['distinct_polys']}")
        _expect(summary["minimal_exists"] is exists, f"minimal_exists {summary['minimal_exists']}")


def _check_scan_csv(facts: dict, text: str) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if facts["suite"] == "tree-bound":
        _expect(all(row["bound_holds"] == "true" for row in rows), "a row breaks the coefficient bound")
    _check_census_rows(facts["suite"], facts["n"], rows)


def _check_verify(facts: dict, doc: dict) -> None:
    _expect(doc["suite"] == facts["suite"], f"report of suite {doc['suite']}")
    _expect(doc["passed"] is True and doc["failures"] == [], "suite reported failures")
    _expect(doc["instances"] > 0, "suite checked no instances")


_CHECKS = {
    "poly-graph": _check_poly_graph,
    "poly-path": _check_poly_path,
    "family-cycle": _check_family_cycle,
    "eval-cycle": _check_eval_cycle,
    "scan": _check_scan,
    "scan-csv": _check_scan_csv,
    "verify": _check_verify,
}

