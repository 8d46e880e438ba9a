from __future__ import annotations

import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import ExtendedAngle, KleinIndex
from pseudoeuclid.errors import InvalidInput, NonPositiveRho, NullDirection, NullDivisor
from pseudoeuclid.hypnum import (
    HyperbolicNumber,
    Sector,
    angle_between,
    classify_sector,
    from_polar,
    rotate,
    to_polar,
)
from pseudoeuclid.tol import is_null_xy

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
numbers = st.builds(HyperbolicNumber, coords, coords)

H = HyperbolicNumber


def test_product_rule():
    # h * h = 1 is the defining relation
    h = H(0.0, 1.0)
    assert h * h == H(1.0, 0.0)
    assert H(1.0, 2.0) * H(3.0, 4.0) == H(11.0, 10.0)


@given(numbers, numbers, numbers)
@example(H(0.0, 998933.9921875), H(998933.9921875, -998949.0), H(-998949.0, 998933.9921875))
@settings(max_examples=300, deadline=None)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) + c == c + (a + b)
    left = a * (b + c)
    right = a * b + a * c
    # rounding is bounded by the size of the partial products, which can
    # cancel down to a much smaller result (the pinned example)
    scale = 1.0 + (abs(a.x) + abs(a.y)) * (abs(b.x) + abs(b.y) + abs(c.x) + abs(c.y))
    assert abs(left.x - right.x) / scale <= 1e-12
    assert abs(left.y - right.y) / scale <= 1e-12


@given(numbers, numbers)
@settings(max_examples=300, deadline=None)
def test_conjugate_is_multiplicative(a, b):
    lhs = (a * b).conjugate()
    rhs = a.conjugate() * b.conjugate()
    assert lhs == rhs


@given(numbers)
@example(H(998139.0, 998164.9921875))
@settings(max_examples=300, deadline=None)
def test_square_module_via_conjugate(z):
    # each side against the exact x^2 - y^2 at its own rounding bound; they
    # are not compared with each other: the product x*x - y*y cancels (the
    # pinned example), and (x - y)(x + y) does not.  The absolute term covers
    # a few roundings in the subnormal range, each within half the least subnormal
    u, underflow = Fraction(1, 2**53), Fraction(1, 2**1073)
    x, y = Fraction(z.x), Fraction(z.y)
    D = x * x - y * y
    assert abs(Fraction(z.square_module()) - D) <= 3 * u * abs(D) + underflow
    w = z * z.conjugate()
    assert abs(Fraction(w.x) - D) <= 2 * u * (x * x + y * y) + underflow
    assert w.y == 0.0


def test_scalar_multiplication():
    z = H(2.0, -3.0)
    assert 2 * z == H(4.0, -6.0)
    assert z * 0.5 == H(1.0, -1.5)


def test_module_and_null():
    assert H(5.0, 3.0).module() == 4.0
    assert H(3.0, 5.0).square_module() == -16.0
    assert H(2.0, 2.0).is_null()
    assert H(0.0, 0.0).is_null()
    assert not H(2.0, 1.999).is_null()


@pytest.mark.parametrize("x, y", [(1e308, 1e308), (-1e308, -1e308), (1.7e308, -1.7e308)])
def test_square_module_where_a_null_coordinate_overflows(x, y):
    # x + y or x - y overflows and the other is exactly 0: D is the exact 0, not inf * 0
    assert H(x, y).square_module() == 0.0


def test_inverse():
    z = H(5.0, 3.0)
    w = z.inverse()
    assert z * w == H(1.0, 0.0)
    with pytest.raises(NullDivisor):
        H(1.0, 1.0).inverse()


@pytest.mark.parametrize("z", [H(1e-170, 3e-171), H(-1e170, 3e169), H(2e-300, -7e-300),
                               H(5e-324, 0.0), H(1e-310, 2e-311)])
def test_inverse_at_extreme_scales(z):
    # D underflows or overflows a double here; the inverse must not.  Below
    # |z| ~ 1e-308 the inverse itself exceeds double range: a domain error.
    if math.hypot(z.x, z.y) < 1e-300:
        with pytest.raises(InvalidInput, match="does not fit a double"):
            z.inverse()
        return
    w = z.inverse()
    one = z * w
    assert one.x == pytest.approx(1.0, rel=1e-15)
    assert abs(one.y) <= 1e-15


@pytest.mark.parametrize("z, sector", [
    (H(0.0, 0.0), Sector.ORIGIN),
    (H(3.0, 1.0), Sector.RIGHT),
    (H(-3.0, 1.0), Sector.LEFT),
    (H(1.0, 3.0), Sector.UP),
    (H(1.0, -3.0), Sector.DOWN),
    (H(2.0, 2.0), Sector.NULL_PLUS),
    (H(-2.0, 2.0), Sector.NULL_MINUS),
    (H(-2.0, -2.0), Sector.NULL_PLUS),
    # squares that overflow or underflow a double
    (H(1e200, 0.0), Sector.RIGHT),
    (H(1e-170, 0.0), Sector.RIGHT),
    (H(0.0, 1e200), Sector.UP),
    (H(1e200, 1e200), Sector.NULL_PLUS),
    (H(1e-170, 1e-170), Sector.NULL_PLUS),
    (H(1e-170, -1e-170), Sector.NULL_MINUS),
])
def test_sector_classification(z, sector):
    assert classify_sector(z) is sector


def _stays_exact(v: float, scaled: float) -> bool:
    # zero stays zero; anything else stays a normal double
    if v == 0.0:
        return scaled == 0.0
    return abs(v) >= sys.float_info.min and sys.float_info.min <= abs(scaled) < math.inf


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.integers(min_value=-2100, max_value=2100))
@example(1.0, 1.0 + 2.0 ** -41, 700)
@example(1.0, 1.0 + 2.0 ** -39, -700)
@example(3.0, 1.0, 600)
@settings(max_examples=500, deadline=None)
def test_null_test_is_scale_invariant(x, y, k):
    # ldexp by k is exact while both components stay normal, so the verdict
    # must not move
    try:
        sx, sy = math.ldexp(x, k), math.ldexp(y, k)
    except OverflowError:
        sx = sy = math.inf
    assume(_stays_exact(x, sx) and _stays_exact(y, sy))
    assert is_null_xy(x, y) == is_null_xy(sx, sy)


def test_sector_labels():
    assert Sector.NULL_PLUS.value == "null+"
    assert Sector.RIGHT.value == "Right"


def test_polar_form_down_sector():
    rho, a = to_polar(H(1.0, -3.0))
    assert rho == pytest.approx(math.sqrt(8.0))
    assert a.k is KleinIndex.MH
    assert a.theta == pytest.approx(math.atanh(-1.0 / 3.0))


@given(numbers)
@settings(max_examples=500, deadline=None)
def test_polar_roundtrip(z):
    if z.is_null():
        with pytest.raises(NullDirection):
            to_polar(z)
        return
    rho, a = to_polar(z)
    w = from_polar(rho, a)
    scale = 1.0 + math.hypot(z.x, z.y)
    assert math.hypot(w.x - z.x, w.y - z.y) / scale <= 1e-10


def test_from_polar_validation():
    with pytest.raises(NonPositiveRho):
        from_polar(0.0, ExtendedAngle(0.0))
    with pytest.raises(NonPositiveRho):
        from_polar(-2.0, ExtendedAngle(0.0))


def test_rotate_preserves_square_module():
    z = H(5.0, 3.0)
    for k in (KleinIndex.P1, KleinIndex.M1):
        w = rotate(z, ExtendedAngle(0.8, k))
        assert w.square_module() == pytest.approx(z.square_module(), rel=1e-12)
    # second-kind rotations swap the sign of the square module
    w = rotate(z, ExtendedAngle(0.8, KleinIndex.H))
    assert w.square_module() == pytest.approx(-z.square_module(), rel=1e-12)


def test_angle_between_basic():
    a = angle_between(H(1.0, 0.0), H(5.0, 3.0))
    assert a.k is KleinIndex.P1
    assert a.theta == pytest.approx(math.atanh(0.6), rel=1e-12)


def test_angle_between_is_translation_free_pair():
    # the pair (cosh_e, sinh_e) never depends on the two moduli
    a = angle_between(H(2.0, 1.0), H(1.0, 2.0))
    b = angle_between(H(20.0, 10.0), H(0.5, 1.0))
    assert a.k is b.k
    assert a.theta == pytest.approx(b.theta, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_angle_between_at_extreme_scales(scale):
    # the products underflow or overflow here; the angle does not depend on scale
    want = angle_between(H(1.0, 0.3), H(2.0, 0.5))
    got = angle_between(H(scale, 0.3 * scale), H(2.0 * scale, 0.5 * scale))
    assert got.k is want.k
    assert got.theta == pytest.approx(want.theta, rel=1e-15)


@pytest.mark.parametrize("v1, v2", [
    # inside the band of u and w, x1 y2 = 2^-1100 underflowed to 0 and theta with it
    (H(2.0 ** -500, 0.0), H(2.0 ** -390, 2.0 ** -600)),
    # beyond the band, with y2 / x2 subnormal: a rescale toward 1 lost bits of y2
    (H(1.0, 0.0), H(1.5955041715484313e300, -1.1563260349838814e-07)),
    (H(1.0, 0.0), H(-1.9663702209142544e289, -1.3915620014056064e-31)),
])
def test_angle_between_keeps_the_bits_of_tiny_angles(v1, v2):
    # below 2^-200, theta = atanh(t) is t to the last bit, with t the smaller
    # of |c| and |s| over the larger, exact in Fraction and rounded once
    c = Fraction(v1.x) * Fraction(v2.x) - Fraction(v1.y) * Fraction(v2.y)
    s = Fraction(v1.x) * Fraction(v2.y) - Fraction(v1.y) * Fraction(v2.x)
    want = float(min(abs(c), abs(s)) / max(abs(c), abs(s)))
    theta = angle_between(v1, v2).theta
    assert math.copysign(1.0, theta) == math.copysign(1.0, c * s)
    assert abs(abs(theta) - want) <= 5e-324


def test_angle_between_rejects_null():
    with pytest.raises(NullDirection):
        angle_between(H(1.0, 1.0), H(5.0, 3.0))
    with pytest.raises(NullDirection):
        angle_between(H(5.0, 3.0), H(0.0, 0.0))


def test_number_validation_and_dict():
    with pytest.raises(ValueError):
        H(math.inf, 0.0)


class _Real(float):
    pass


@pytest.mark.parametrize("x, y", [(1, True), (_Real(2.5), -3), (1.5, _Real(0.25)), (1.5, -0.0)])
def test_components_are_exact_floats(x, y):
    z = H(x, y)
    assert type(z.x) is float and type(z.y) is float
    assert (z.x, z.y) == (float(x), float(y))
    assert math.copysign(1.0, z.y) == math.copysign(1.0, float(y))


@pytest.mark.parametrize("x", [3, True, Fraction(3, 4), _Real(2.5)])
def test_real_scalars_act_as_the_equal_float(x):
    # from_polar and the scalar product test for a float before the Real ABC;
    # every other Real must still be accepted, and give what its float gives
    a, z, f = ExtendedAngle(0.7, KleinIndex.H), H(2.0, -3.0), float(x)
    for got, want in ((from_polar(x, a), from_polar(f, a)), (z * x, z * f), (x * z, f * z)):
        assert type(got.x) is float and type(got.y) is float
        assert (got.x.hex(), got.y.hex()) == (want.x.hex(), want.y.hex())


@pytest.mark.parametrize("x, shown", [(Decimal("2"), "Decimal('2')"), (2 + 0j, "(2+0j)"),
                                      ("2", "'2'")])
def test_scalars_that_are_not_real_are_refused(x, shown):
    # a Decimal is a Number but not a Real; the float fast path must not widen that
    a, z = ExtendedAngle(0.7, KleinIndex.H), H(2.0, -3.0)
    with pytest.raises(NonPositiveRho) as got:
        from_polar(x, a)
    assert str(got.value) == f"rho must be positive and finite, got {shown}"
    with pytest.raises(TypeError):
        z * x
    with pytest.raises(TypeError):
        x * z


@pytest.mark.parametrize("x, y, exc, message", [
    ("abc", 1.0, ValueError, "could not convert string to float: 'abc'"),
    (1.0, "abc", ValueError, "could not convert string to float: 'abc'"),
    (None, 1.0, TypeError, None),
    (math.nan, 1.0, ValueError, "components must be finite, got (nan, 1.0)"),
    (1, math.inf, ValueError, "components must be finite, got (1.0, inf)"),
    (math.nan, "abc", ValueError, "could not convert string to float: 'abc'"),
])
def test_number_rejects_with_the_same_messages(x, y, exc, message):
    if message is None:  # the message of float() itself, which varies by Python version
        with pytest.raises(exc) as want:
            float(x)
        message = str(want.value)
    with pytest.raises(exc) as got:
        H(x, y)
    assert str(got.value) == message


def test_foreign_operand_rejected():
    with pytest.raises(TypeError):
        H(1.0, 0.0) + "x"  # type: ignore[operator]
    with pytest.raises(TypeError):
        H(1, 2) - 3  # type: ignore[operator]
