"""Closed-form evaluation for paths and cycles, and exact values at -1.

Both closed forms ride on the quartic L^4 - x*L^3 - x^2*L - x^2, which
factors as (L^2 + x)(L^2 - x*L - x): the path value is a weighted sum of
n-th powers of its four roots s, -s, (x + t)/2, (x - t)/2, where s^2 = -x
and t^2 = x(x + 4); the cycle value is the plain power sum. The quartic has
a double root at x = 0 and the weights blow up at x = -4, so those two
points are rejected rather than patched around.

The sum is exact. A point is the binary fraction X/q it stores (X a Gaussian
integer, q a power of two), so 2q times the roots are +-2s and X +- t with
s^2 = -Xq and t^2 = X(X + 4q). One root of each pair is an element of
Z[i][r]/(r^2 - R), powered by squaring; the conjugate r -> -r gives the
other, so the pair adds up to twice the rational part. The float routes
round the exact value once per part, as ``IntPoly.evaluate`` does; the
closed-form suite compares the exact values themselves.
"""

from __future__ import annotations

import math
import operator
import random
from itertools import islice

from .errors import InternalConsistencyError
from .graph import Graph, random_forest
from .polynomial import IntPoly, _binary_point, _round_parts
from .reduction import _fold_forest, _order4_walk, _recurrence_terms
from .reports import VerificationReport

#: D_t(P_n, -1) depends only on n mod 6: residues 1 and 4 give 0, the rest 1.
_PATH_MINUS_ONE = {0: 1, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1}


def _ring_mul(u: tuple, v: tuple, r2: tuple) -> tuple:
    """Product in Z[i][r]/(r^2 - r2); (a, b, c, d) is (a + bi) + (c + di)r."""
    a, b, c, d = u
    e, f, g, h = v
    cg, ci = c * g - d * h, c * h + d * g  # the r^2 coefficient
    return (
        a * e - b * f + cg * r2[0] - ci * r2[1],
        a * f + b * e + cg * r2[1] + ci * r2[0],
        a * g - b * h + c * e - d * f,
        a * h + b * g + c * f + d * e,
    )


def _root_sum(n: int, x: complex | float, path: bool) -> tuple[int, int, int]:
    """Sum of alpha_i lambda_i^n over the four roots, exactly: (re, im, den)
    with the value (re + im*i) / den."""
    a, b, q = _binary_point(x)  # x = X/q with X = a + bi
    if b == 0 and a in (0, -4 * q):
        raise ValueError(f"closed form is singular at x = {x}")
    # (base, r^2, weight) per pair of roots: the roots are base/2q at r and
    # at -r, and the path weight is their alpha scaled by 2q^2(x + 4)
    pairs = (
        ((0, 0, 2, 0), (-a * q, -b * q), (2 * q * q, 0, a + 3 * q, b)),
        (
            (a, b, 1, 0),
            (a * (a + 4 * q) - b * b, b * (2 * a + 4 * q)),
            (q * (a + 2 * q), q * b, q, 0),
        ),
    )
    num_re = num_im = 0
    for base, r2, weight in pairs:
        power = base
        for bit in bin(n)[3:]:
            power = _ring_mul(power, power, r2)
            if bit == "1":
                power = _ring_mul(power, base, r2)
        if path:
            power = _ring_mul(weight, power, r2)
        num_re += power[0]
        num_im += power[1]
    if not path:
        # twice the rational parts over (2q)^n
        return num_re, num_im, 2 ** (n - 1) * q**n
    # twice the rational parts over 2q^2(x + 4)(2q)^n; times conj(X + 4q)
    c, d = a + 4 * q, -b
    return num_re * c - num_im * d, num_re * d + num_im * c, q * (c * c + d * d) * (2 * q) ** n


def path_closed_eval(n: int, x: complex | float) -> complex | float:
    """D_t(P_n, x) from the root expansion; real for real x, x not in {0, -4}."""
    if n < 1:
        raise ValueError("path order must be positive")
    return _round_parts(*_root_sum(n, x, path=True), x)


def cycle_closed_eval(n: int, x: complex | float) -> complex | float:
    """D_t(C_n, x) as the power sum of the four roots; x not in {0, -4}."""
    if n < 3:
        raise ValueError("cycle order must be at least 3")
    return _round_parts(*_root_sum(n, x, path=False), x)


def path_at_minus_one(n: int) -> int:
    """Exact D_t(P_n, -1) in {0, 1} by the period-6 residue rule.

    Cross-checked against the equivalent trigonometric expression
    (2 + cos(2n*pi/3) - sqrt(3)*sin(2n*pi/3)) / 3 on every call. The
    expression has period 3 in n, so it is taken at n mod 3, where the
    float angle is exact enough for any n.
    """
    if n < 1:
        raise ValueError("path order must be positive")
    value = _PATH_MINUS_ONE[n % 6]
    angle = 2 * math.pi * (n % 3) / 3
    trig = (2 + math.cos(angle) - math.sqrt(3) * math.sin(angle)) / 3
    if abs(trig - value) > 1e-9:
        raise InternalConsistencyError(
            f"residue rule gives {value} but trigonometric form gives {trig} at n = {n}"
        )
    return value


def star_tdp(n: int) -> IntPoly:
    """D_t(S_n, x) = sum over i >= 2 of C(n-1, i-1) x^i.

    Every totally dominating set of a star contains the center plus any
    nonempty leaf subset, hence the shifted binomial coefficients.
    """
    if n < 2:
        raise ValueError("a star needs at least 2 vertices")
    coeffs = [0] * (n + 1)
    for i in range(2, n + 1):
        coeffs[i] = math.comb(n - 1, i - 1)
    return IntPoly(coeffs)


def _start_at_minus_one(k: int) -> tuple:
    """(A, B, C, D) at x = -1 of a vertex after its k leaf children: the
    leaf's (0, 1, 0, -1), and for k >= 1 x((1+x)^k - 1) = 1 and x(1+x)^k = 0."""
    return (0, 0, 1, 0) if k else (0, 1, 0, -1)


def forest_at_minus_one(g: Graph) -> int:
    """Exact D_t(F, -1), which is 0 or 1 for every forest.

    The forest fold of ``tree_tdp`` runs on ints at x = -1, so the
    polynomial is never expanded: O(n) integer operations, and none for
    a vertex's leaves. Raises ValueError on a cycle. The value is returned
    unchecked; the minus-one suite's forest rows are what compare it against
    {0, 1}.
    """
    return _fold_forest(g, operator.add, operator.mul, _start_at_minus_one)


# -- verification suites ------------------------------------------------------

# the closed-form suite's grid of points
CLOSED_FORM_POINTS = (1.0, 2.0, -2.0, 0.5, -1.0, -0.5)
# the minus-one suite's largest star and largest random forest
MINUS_ONE_STAR_N_MAX = 20
MINUS_ONE_FOREST_ORDER_MAX = 16


def verify_closed_forms(n_max: int = 30) -> VerificationReport:
    """Closed forms against exact recurrence values on a grid of points.

    At every (n, x) with x in CLOSED_FORM_POINTS, the exact value of the
    recurrence's polynomial (Horner on the binary fraction x) must equal
    the closed form's exact root sum; nothing is rounded, so the values past
    the float range are checked too. A failure records both values as
    reduced fractions in decimal.
    """
    report = VerificationReport("closedform", {"n_max": n_max, "points": list(CLOSED_FORM_POINTS)})
    # family -> smallest order; one recurrence walk per family
    families = {"path": 1, "cycle": 3}
    walks = {name: _recurrence_terms(name, lower) for name, lower in families.items()}
    for n in range(1, n_max + 1):
        exact_polys = [(name, next(walks[name])) for name, lower in families.items() if n >= lower]
        for x in CLOSED_FORM_POINTS:
            for name, poly in exact_polys:
                (re, im, den), (cre, cim, cden) = poly._exact_at(x), _root_sum(n, x, name == "path")
                ok = re * cden == cre * den and im * cden == cim * den
                sides = ("", "") if ok else (_fraction_text(re, im, den), _fraction_text(cre, cim, cden))
                report.record_check("", f"{name} n={n} x={x}", ok, *sides)
    return report


def _fraction_text(re: int, im: int, den: int) -> str:
    """(re + im*i) / den in lowest terms, as decimal text: "p/q", or "p/q+r/si"."""
    from fractions import Fraction  # imported here: only a failure needs it

    real = str(Fraction(re, den))
    return real if im == 0 else f"{real}{'+' if im > 0 else ''}{Fraction(im, den)}i"


def verify_minus_one(path_n_max: int = 60, forest_trials: int = 500, seed: int = 42) -> VerificationReport:
    """Exact values at -1: path residue rule, star constancy, forest range."""
    report = VerificationReport(
        "minus-one",
        {
            "path_n_max": path_n_max,
            "star_n_max": MINUS_ONE_STAR_N_MAX,
            "forest_trials": forest_trials,
            "forest_order_max": MINUS_ONE_FOREST_ORDER_MAX,
            "seed": seed,
        },
    )
    # the path walk on ints at x = -1 (P_-2..P_1 there are 0, 1, 1, 0), as
    # ``forest_at_minus_one`` runs the fold: O(1) integer operations per order
    exact_values = islice(_order4_walk((0, 1, 1, 0), operator.add, operator.neg), 3, None)
    for n, exact in zip(range(1, path_n_max + 1), exact_values):
        rule = path_at_minus_one(n)
        report.record_check("", f"path n={n}", exact == rule, exact, rule)
    for n in range(2, MINUS_ONE_STAR_N_MAX + 1):
        value = star_tdp(n).evaluate(-1)
        report.record_check("", f"star n={n}", value == 1, 1, value)
    master = random.Random(seed)
    for trial in range(forest_trials):
        n = master.randint(1, MINUS_ONE_FOREST_ORDER_MAX)
        g = random_forest(n, master.randrange(2**32))
        value = forest_at_minus_one(g)
        report.record_check("", f"forest trial={trial} n={n}", value in (0, 1), "0 or 1", value)
    return report
