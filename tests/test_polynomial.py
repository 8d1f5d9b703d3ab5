import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpoly.errors import InternalConsistencyError
from tdpoly.polynomial import IntPoly, ensure_valid_tdp

from tdpoly.reduction import cycle_tdp

from helpers import coeffwise_le, fraction_horner, from_coeff_strings, monomial, poly_arith

X2 = monomial(2)
P4 = IntPoly((0, 0, 1, 2, 1))  # x^4 + 2x^3 + x^2


def test_canonical_trailing_zeros_trimmed():
    assert IntPoly((0, 0, 1, 0, 0)).coeffs == (0, 0, 1)
    assert IntPoly((0,)).coeffs == ()
    assert IntPoly().coeffs == ()


def test_add_monomials():
    assert X2 + X2 == IntPoly((0, 0, 2))


def test_mul_shifts():
    assert IntPoly((0, 0, 2, 1)) * X2 == IntPoly((0, 0, 0, 0, 2, 1))


def test_sub_to_zero():
    p = IntPoly((0, 0, 2, 1))
    assert p - p == IntPoly.zero()
    assert not (p - p)
    assert (p - p).coeffs == ()
    assert (p + (-p)).coeffs == ()
    assert (IntPoly((1, 2)) - IntPoly((0, 2))).coeffs == (1,)


def test_constructor_rejects_inexact_coefficients():
    # the constructor is the boundary for user-given coefficients
    with pytest.raises(TypeError) as info:
        IntPoly([1.0])
    assert str(info.value) == "coefficients must be exact ints, got float"
    with pytest.raises(TypeError):
        IntPoly([0, 1, "2"])
    # a bool is an int to Python but would print as "True"
    with pytest.raises(TypeError) as info:
        IntPoly([0, 0, True])
    assert str(info.value) == "coefficients must be exact ints, got bool"


def test_shared_zero_and_one_are_unchanged_by_arithmetic():
    zero, one = IntPoly.zero(), IntPoly.one()
    p = IntPoly((0, 0, 2, 1))
    assert (one + p) * (zero + one) - zero == IntPoly((1, 0, 2, 1))
    assert zero * monomial(3) == zero and one * monomial(2) == X2
    assert IntPoly.zero().coeffs == () and IntPoly.one().coeffs == (1,)


def test_poly_arith_dispatch():
    p, q = IntPoly((1, 2)), IntPoly((0, 1))
    assert poly_arith("add", p, q) == p + q
    assert poly_arith("sub", p, q) == p - q
    assert poly_arith("mul", p, q) == p * q
    with pytest.raises(ValueError):
        poly_arith("div", p, q)


def test_evaluate_paper_path_polynomial():
    assert P4.evaluate(1) == 4
    assert P4.evaluate(-1) == 0


def test_evaluate_zero_polynomial_anywhere():
    assert IntPoly.zero().evaluate(3) == 0
    assert IntPoly.zero().evaluate(-1.5) == 0


def test_evaluate_is_exact_for_ints():
    big = IntPoly((0, 0, 10**30, 7))
    assert big.evaluate(10**6) == 10**42 + 7 * 10**18


def test_evaluate_real_points_round_the_exact_value():
    rng = random.Random(11)
    points = (0.5, -0.3, 1.5, 0.1, -2.75, 1e-3, -1.0000001, 3.0)
    for _ in range(60):
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 25))]
        for x in points:
            got = IntPoly(coeffs).evaluate(x)
            assert isinstance(got, float)
            assert got == float(fraction_horner(coeffs, x)[0]), (coeffs, x)


def test_evaluate_complex_points_round_the_exact_value():
    rng = random.Random(12)
    points = (1 + 2j, -0.5j, 0.25 - 1.5j, -1.1 + 0.3j)
    for _ in range(60):
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 25))]
        for z in points:
            got = IntPoly(coeffs).evaluate(z)
            re, im = fraction_horner(coeffs, z.real, z.imag)
            assert isinstance(got, complex)
            assert got == complex(float(re), float(im)), (coeffs, z)


def test_evaluate_long_cycles_exactly():
    # float Horner gave -2.435e-75 here, the sign and 30 orders of magnitude wrong
    c400 = cycle_tdp(400)
    got = c400.evaluate(-0.3)
    assert got == float(fraction_horner(c400.coeffs, -0.3)[0])
    assert 2.47e-105 < got < 2.48e-105
    # float Horner overflowed converting the coefficients; the exact value is about 1
    c1500 = cycle_tdp(1500)
    assert c1500.evaluate(0.5) == float(fraction_horner(c1500.coeffs, 0.5)[0])
    assert cycle_tdp(800).evaluate(0.5) == 1.0


def test_evaluate_beyond_float_range_raises_value_error():
    with pytest.raises(ValueError, match="beyond the float range"):
        cycle_tdp(3000).evaluate(1.5)
    with pytest.raises(ValueError, match="beyond the float range"):
        cycle_tdp(700).evaluate(1 + 2j)  # float Horner returned (nan+nanj)
    for bad in (float("nan"), float("inf"), complex(1, float("-inf"))):
        with pytest.raises(ValueError, match="not finite"):
            P4.evaluate(bad)


def test_evaluate_rejects_bool():
    with pytest.raises(TypeError):
        P4.evaluate(True)


def test_coeff_extraction():
    assert P4.coeff(3) == 2
    assert IntPoly((0, 0, 0, 0, 9, 6, 1)).coeff(4) == 9
    assert IntPoly((0, 0, 4, 4, 1)).coeff(3) == 4
    assert X2.coeff(5) == 0
    assert IntPoly((0, 0, 0, 5, 5, 1)).coeff(3) == 5


def test_min_degree():
    assert IntPoly((0, 0, 0, 0, 9, 6, 1)).min_degree() == 4
    assert X2.min_degree() == 2
    assert IntPoly.zero().min_degree() is None
    assert IntPoly.zero().degree() is None


def test_str_rendering():
    assert str(P4) == "x^4 + 2x^3 + x^2"
    assert str(IntPoly.zero()) == "0"
    assert str(IntPoly.one()) == "1"


def test_coeff_strings_round_trip():
    strings = P4.to_coeff_strings()
    assert strings == ["0", "0", "1", "2", "1"]
    assert from_coeff_strings(strings) == P4


def test_coeffwise_le():
    assert coeffwise_le(P4, IntPoly((0, 0, 3, 3, 1)))
    assert not coeffwise_le(IntPoly((0, 0, 3, 3, 1)), P4)
    assert coeffwise_le(IntPoly.zero(), P4)
    assert coeffwise_le(P4, P4)
    # comparison must account for differing lengths in both directions
    assert coeffwise_le(X2, IntPoly((0, 0, 1, 1)))
    assert not coeffwise_le(IntPoly((0, 0, 1, 1)), X2)


def test_ensure_valid_tdp_accepts_real_values():
    assert ensure_valid_tdp(P4, 4) is P4
    assert ensure_valid_tdp(IntPoly.zero(), 1) == IntPoly.zero()


def test_ensure_valid_tdp_rejects_bad_shapes():
    with pytest.raises(InternalConsistencyError):
        ensure_valid_tdp(IntPoly((1,)))  # nonzero constant term
    with pytest.raises(InternalConsistencyError):
        ensure_valid_tdp(IntPoly((0, 1)))  # a set of size 1 cannot totally dominate
    with pytest.raises(InternalConsistencyError):
        ensure_valid_tdp(IntPoly((0, 0, -1)))  # counts cannot be negative
    with pytest.raises(InternalConsistencyError, match="negative coefficient"):
        ensure_valid_tdp(IntPoly((0, 0, -1, 1)))  # nor in the middle of the list
    with pytest.raises(InternalConsistencyError):
        ensure_valid_tdp(P4, 3)  # degree above the graph order


small_ints = st.integers(min_value=-50, max_value=50)
polys = st.lists(small_ints, max_size=8).map(IntPoly)


@settings(deadline=None, max_examples=150)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + IntPoly.zero() == p
    assert p * IntPoly.one() == p
    assert p - p == IntPoly.zero()


@settings(deadline=None, max_examples=150)
@given(polys, polys, st.integers(min_value=-9, max_value=9))
def test_evaluate_is_ring_homomorphism(p, q, point):
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


@settings(deadline=None, max_examples=100)
@given(polys)
def test_coeff_strings_round_trip_property(p):
    assert from_coeff_strings(p.to_coeff_strings()) == p
