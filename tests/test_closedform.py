import operator
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpoly import closedform
from tdpoly.closedform import (
    CLOSED_FORM_POINTS,
    _fraction_text,
    _root_sum,
    cycle_closed_eval,
    forest_at_minus_one,
    path_at_minus_one,
    path_closed_eval,
    star_tdp,
    verify_closed_forms,
    verify_minus_one,
)
from tdpoly.errors import InternalConsistencyError
from tdpoly.graph import Graph, cycle_graph, disjoint_union, path_graph, star_graph
from tdpoly.polynomial import IntPoly
from tdpoly.reduction import _SEEDS, _order4_walk, _recurrence_terms, cycle_tdp, path_tdp


#: The closed forms' two singular points: the quartic's double root at 0,
#: and -4, where the path weights blow up.
SINGULAR_POINTS = (0.0, -4.0)

#: Points for the bit-for-bit comparison: real and complex, near both
#: singular points, and x = -2, where all four roots have modulus sqrt(2).
GRID = (
    2.0, -2.0, 1.0, -1.0, 0.5, -0.5, 3 / 7, -2.5, 0.75, 1e-3, -3.999,
    1 + 2j, -0.3 + 0.1j, 3 + 1j, -4 + 1j, 2j,
)


def assert_same_as_evaluate(closed, poly, x):
    """closed(x) is poly.evaluate(x) to the bit, or both raise ValueError."""
    try:
        want = poly.evaluate(x)
    except ValueError:
        with pytest.raises(ValueError):
            closed(x)
        return
    assert repr(closed(x)) == repr(want), x  # repr tells -0.0 and 0.0 apart


def test_path_closed_eval_examples():
    assert path_closed_eval(4, 1.0) == 4.0
    assert path_closed_eval(5, 1.0) == 5.0
    assert path_closed_eval(7, -1.0) == 0.0


def test_cycle_closed_eval_examples():
    assert cycle_closed_eval(4, 1.0) == 9.0
    assert cycle_closed_eval(5, 1.0) == 11.0
    assert cycle_closed_eval(6, 1.0) == 16.0


def test_singular_points_rejected():
    for x in SINGULAR_POINTS:
        with pytest.raises(ValueError):
            path_closed_eval(5, x)
        with pytest.raises(ValueError):
            cycle_closed_eval(5, x)
    with pytest.raises(ValueError):
        path_closed_eval(5, 0)  # integer zero counts too


def test_domain_errors():
    with pytest.raises(ValueError):
        path_closed_eval(0, 1.0)
    with pytest.raises(ValueError):
        cycle_closed_eval(2, 1.0)


def test_real_input_gives_real_output():
    v = path_closed_eval(9, -2.5)
    assert isinstance(v, float)
    w = cycle_closed_eval(9, 0.75)
    assert isinstance(w, float)


def test_complex_input_gives_complex_output():
    z = path_closed_eval(6, 1 + 2j)
    assert isinstance(z, complex)
    assert z == path_tdp(6).evaluate(1 + 2j)


def test_closed_forms_track_exact_values():
    # n = 57, 59 and 60 at x = -2 failed the float form's tolerance, and
    # n = 200 there left an imaginary part of -6.46 on a real point
    for n in [*range(1, 65), 200]:
        path, cycle = path_tdp(n), cycle_tdp(n) if n >= 3 else None
        for x in GRID:
            assert_same_as_evaluate(lambda x: path_closed_eval(n, x), path, x)
            if cycle is not None:
                assert_same_as_evaluate(lambda x: cycle_closed_eval(n, x), cycle, x)
    assert cycle_closed_eval(200, -2.0) == 2.0**102


def test_beyond_float_range_raises_value_error():
    with pytest.raises(ValueError):
        cycle_closed_eval(3000, 1.5)
    with pytest.raises(ValueError):
        path_closed_eval(700, 1 + 2j)
    for bad in (float("inf"), float("nan"), complex(1, float("inf"))):
        with pytest.raises(ValueError):
            path_closed_eval(5, bad)


def test_closed_form_cap_is_the_last_order_within_float_range():
    # every grid point fits a float at n = 706; one order past it, x = 2.0
    # does not (D_t(C_706, 2) is about 1.45e308, D_t(P_706, 2) 9.0e307)
    for closed in (path_closed_eval, cycle_closed_eval):
        for x in CLOSED_FORM_POINTS:
            closed(706, x)
        with pytest.raises(ValueError, match="beyond the float range"):
            closed(707, 2.0)


def test_exact_values_agree_past_the_float_range():
    # the suite compares exact values, so it checks orders whose floats overflow
    for poly, path in ((path_tdp(707), True), (cycle_tdp(707), False)):
        re, im, den = poly._exact_at(2.0)
        cre, cim, cden = _root_sum(707, 2.0, path)
        assert im == cim == 0 and Fraction(re, den) == Fraction(cre, cden) == poly.evaluate(2)


def test_fraction_text_reduces_each_part():
    assert _fraction_text(6, 0, 4) == "3/2"
    assert _fraction_text(8, 0, 4) == "2"
    assert _fraction_text(6, -2, 4) == "3/2-1/2i"
    assert _fraction_text(0, 3, 9) == "0+1/3i"


def test_path_at_minus_one_residue_table():
    assert path_at_minus_one(6) == 1
    assert path_at_minus_one(4) == 0
    assert path_at_minus_one(2) == 1
    assert path_at_minus_one(7) == 0  # 7 = 1 mod 6
    for n in range(1, 40):
        assert path_at_minus_one(n) == path_tdp(n).evaluate(-1), n
    with pytest.raises(ValueError):
        path_at_minus_one(0)


def test_path_at_minus_one_checks_the_residue_table(monkeypatch):
    # n = 10 is 4 mod 6, where D_t(P_n, -1) = 0; a table that says 1 fails the cross-check
    monkeypatch.setattr(closedform, "_PATH_MINUS_ONE", {**closedform._PATH_MINUS_ONE, 4: 1})
    message = r"^residue rule gives 1 but trigonometric form gives \S+ at n = 10$"
    with pytest.raises(InternalConsistencyError, match=message):
        path_at_minus_one(10)
    assert path_at_minus_one(9) == 1  # other residues are untouched


def test_path_at_minus_one_huge_orders():
    # 10^12 = 4, 10^12 + 1 = 5 and 10^15 + 2 = 0 mod 6; P_4, P_5 and P_6
    # take the values 0, 1 and 1 at -1. The trigonometric cross-check is
    # taken at n mod 3, so it holds at any order.
    assert path_at_minus_one(10**12) == 0
    assert path_at_minus_one(10**12 + 1) == 1
    assert path_at_minus_one(10**15 + 2) == 1


def walk_at_minus_one(family):
    """The family's recurrence walk on ints at x = -1, from its first order
    (P_1, C_3) on; the seeds are the coefficient seeds evaluated at -1."""
    seeds, _ = _SEEDS[family]
    at_minus_one = tuple(IntPoly(s).evaluate(-1) for s in seeds)
    return islice(_order4_walk(at_minus_one, operator.add, operator.neg), 3, None)


def test_int_walk_at_minus_one_matches_the_polynomials():
    # evaluation at -1 is a ring homomorphism: walking the ints gives the
    # polynomials' values, and the path values follow the residue rule. The
    # n-th term of a polynomial walk is path_tdp(n) or cycle_tdp(n); one walk
    # per family keeps the check O(n^2) in all.
    paths = zip(range(1, 301), walk_at_minus_one("path"), _recurrence_terms("path", 1))
    for n, value, poly in paths:
        assert value == poly.evaluate(-1) == path_at_minus_one(n), n
    cycles = zip(range(3, 301), walk_at_minus_one("cycle"), _recurrence_terms("cycle", 3))
    for n, value, poly in cycles:
        assert value == poly.evaluate(-1), n
    assert poly == cycle_tdp(300)


def test_star_tdp_binomial_coefficients():
    assert star_tdp(2) == IntPoly((0, 0, 1))
    assert star_tdp(4) == IntPoly((0, 0, 3, 3, 1))
    assert star_tdp(5) == IntPoly((0, 0, 4, 6, 4, 1))
    with pytest.raises(ValueError):
        star_tdp(1)


def test_forest_at_minus_one_examples():
    assert forest_at_minus_one(disjoint_union(path_graph(2), path_graph(4))) == 0
    assert forest_at_minus_one(star_graph(6)) == 1
    assert forest_at_minus_one(Graph([0])) == 0
    assert forest_at_minus_one(Graph([])) == 0


def test_forest_at_minus_one_rejects_cycles():
    with pytest.raises(ValueError):
        forest_at_minus_one(cycle_graph(5))


def test_verify_closed_forms_passes():
    report = verify_closed_forms(n_max=12)
    assert report.suite == "closedform"
    assert report.passed
    # 12 path rows and 10 cycle rows per point, all six points usable
    assert report.instances == 6 * (12 + 10)


def test_verify_minus_one_passes():
    report = verify_minus_one(path_n_max=30, forest_trials=50)
    assert report.suite == "minus-one"
    assert report.passed
    assert report.instances == 30 + 19 + 50


# every finite float except the singular points, tiny and huge ones included
POINTS = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x not in SINGULAR_POINTS)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=1, max_value=24), POINTS)
def test_path_closed_eval_property(n, x):
    assert_same_as_evaluate(lambda x: path_closed_eval(n, x), path_tdp(n), x)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=3, max_value=24), POINTS)
def test_cycle_closed_eval_property(n, x):
    assert_same_as_evaluate(lambda x: cycle_closed_eval(n, x), cycle_tdp(n), x)
