from __future__ import annotations

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import ExtendedAngle, KleinIndex
from pseudoeuclid.errors import NonPositiveRho, NullDirection, NullDivisor
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
@settings(max_examples=300, deadline=None)
def test_square_module_via_conjugate(z):
    w = z * z.conjugate()
    assert w.y == pytest.approx(0.0, abs=1e-6 * (1.0 + abs(w.x)))
    assert w.x == pytest.approx(z.square_module(), rel=1e-12, abs=1e-12)


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


def test_inverse():
    z = H(5.0, 3.0)
    w = z.inverse()
    assert z * w == H(1.0, 0.0)
    with pytest.raises(NullDivisor):
        H(1.0, 1.0).inverse()


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


def test_angle_between_rejects_null():
    with pytest.raises(NullDirection):
        angle_between(H(1.0, 1.0), H(5.0, 3.0))
    with pytest.raises(NullDirection):
        angle_between(H(5.0, 3.0), H(0.0, 0.0))


def test_number_validation_and_dict():
    with pytest.raises(ValueError):
        H(math.inf, 0.0)


def test_foreign_operand_rejected():
    with pytest.raises(TypeError):
        H(1.0, 0.0) + "x"  # type: ignore[operator]
