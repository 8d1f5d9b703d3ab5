"""Dense univariate polynomials with exact integer coefficients.

This is the carrier for total domination polynomials and for all reduction
arithmetic. Coefficients are Python ints (arbitrary precision, never
floats), stored by ascending degree with trailing zeros trimmed; the zero
polynomial is the empty tuple.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InternalConsistencyError


class IntPoly:
    """Immutable integer polynomial in one variable.

    ``IntPoly([0, 0, 1, 2, 1])`` is ``x^4 + 2x^3 + x^2``. The constructor
    checks that every coefficient is an int and not a bool; the arithmetic,
    and the engines that compute coefficient lists themselves, build through
    ``_of``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be exact ints, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def _of(cls, cs: list[int]) -> "IntPoly":
        """Polynomial from a list of ints that tdpoly computed itself: trailing
        zeros are trimmed (in place) and the type check is skipped."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        p._coeffs = tuple(cs)
        return p

    @classmethod
    def zero(cls) -> "IntPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "IntPoly":
        return _ONE

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def coeff(self, i: int) -> int:
        """Coefficient of x**i; 0 beyond the stored length."""
        if i < 0:
            raise ValueError("coefficient index must be nonnegative")
        if i >= len(self._coeffs):
            return 0
        return self._coeffs[i]

    def degree(self) -> int | None:
        """Highest degree with nonzero coefficient, None for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else None

    def min_degree(self) -> int | None:
        """Lowest degree with nonzero coefficient, None for the zero polynomial."""
        for i, c in enumerate(self._coeffs):
            if c != 0:
                return i
        return None

    def evaluate(self, point):
        """Horner evaluation.

        Exact (returns int) when the point is an int. A float or complex
        point is taken as the exact binary fraction it stores: Horner runs on
        integers scaled by the common denominator, and one int/int division
        per part rounds the exact value to the nearest float. A value beyond
        the float range, or a point that is not finite, raises ValueError.
        """
        if isinstance(point, bool):
            raise TypeError("evaluation point must be a number, not bool")
        if isinstance(point, int):
            acc = 0
            for c in reversed(self._coeffs):
                acc = acc * point + c
            return acc
        return _round_parts(*self._exact_at(point), point)

    def _exact_at(self, point) -> tuple[int, int, int]:
        """(re, im, den) with the value at a float or complex point equal to
        (re + im*i) / den exactly; ValueError if the point is not finite."""
        a, b, q = _binary_point(point)
        # sum c_i (a + bi)^i q^(d - i) over the Gaussian integers; d = degree
        acc_re = acc_im = 0
        scale = 1
        for c in reversed(self._coeffs):
            acc_re, acc_im = acc_re * a - acc_im * b + c * scale, acc_re * b + acc_im * a
            scale *= q
        return acc_re, acc_im, scale // q if self._coeffs else 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly._of(_add_coeffs(self._coeffs, other._coeffs))

    def __neg__(self) -> "IntPoly":
        return IntPoly._of([-c for c in self._coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly._of(_add_coeffs(self._coeffs, [-c for c in other._coeffs]))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly._of(_mul_coeffs(self._coeffs, other._coeffs))

    def __repr__(self) -> str:
        return f"IntPoly({list(self._coeffs)!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for i in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        out = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def to_coeff_strings(self) -> list[str]:
        """Coefficients as decimal strings, index = degree (exactness-preserving JSON form)."""
        return [str(c) for c in self._coeffs]


_ZERO = IntPoly()
_ONE = IntPoly((1,))


def _add_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sum of two coefficient sequences (ascending degree), untrimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = [ca + cb for ca, cb in zip(a, b)]
    out.extend(a[len(b):])
    return out


def _mul_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two coefficient sequences; the outer loop runs over the shorter."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    width = len(b)
    out = [0] * (len(a) + width - 1)
    for i, ca in enumerate(a):
        if ca:
            out[i:i + width] = [s + ca * cb for s, cb in zip(out[i:i + width], b)]
    return out


def _binary_point(point) -> tuple[int, int, int]:
    """(a, b, q) with point == (a + bi) / q exactly, q a power of two; ValueError if not finite."""
    z = complex(point)
    try:
        (re, re_den), (im, im_den) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    except (ValueError, OverflowError):
        raise ValueError(f"evaluation point {point!r} is not finite") from None
    q = max(re_den, im_den)  # both are powers of two
    return re * (q // re_den), im * (q // im_den), q


def _round_parts(re: int, im: int, den: int, point) -> complex | float:
    """(re + im*i) / den, den > 0, rounded once per part: complex for a complex point, else real.

    ValueError when a part is beyond the float range.
    """
    try:
        value_re, value_im = re / den, im / den
    except OverflowError:
        raise ValueError(f"value at {point!r} is beyond the float range") from None
    return complex(value_re, value_im) if isinstance(point, complex) else value_re


def ensure_valid_tdp(p: IntPoly, order: int | None = None) -> IntPoly:
    """Check that ``p`` is shaped like a total domination polynomial.

    All coefficients nonnegative, zero at degrees 0 and 1 (a one-element set
    cannot contain a neighbor of its own member), and degree at most the
    graph order when given. Raising here catches sign errors in reduction
    arithmetic before they propagate.
    """
    if min(p.coeffs, default=0) < 0:
        raise InternalConsistencyError(f"negative coefficient in claimed D_t: {p!r}")
    if p.coeff(0) != 0 or p.coeff(1) != 0:
        raise InternalConsistencyError(f"claimed D_t has support below degree 2: {p!r}")
    d = p.degree()
    if order is not None and d is not None and d > order:
        raise InternalConsistencyError(f"claimed D_t exceeds graph order {order}: {p!r}")
    return p
