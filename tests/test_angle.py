from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import (
    THETA_MAX,
    ExtendedAngle,
    KleinIndex,
    add_angles,
    circle_map,
    cosh_e,
    cosh_sinh,
    euler,
    from_point,
    sinh_e,
    sub_angles,
)
from pseudoeuclid.errors import NullDirection, OverflowingAngle

ALL_KS = (KleinIndex.P1, KleinIndex.H, KleinIndex.M1, KleinIndex.MH)

angles = st.builds(
    ExtendedAngle,
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.sampled_from(ALL_KS),
)


def test_klein_labels_roundtrip():
    for k in ALL_KS:
        assert KleinIndex.from_label(k.label) is k
    with pytest.raises(ValueError):
        KleinIndex.from_label("+2")


def test_klein_group_structure():
    # abelian, P1 neutral, every element its own inverse
    for a in ALL_KS:
        assert a * KleinIndex.P1 is a
        assert a * a is KleinIndex.P1
        for b in ALL_KS:
            assert a * b is b * a


def test_klein_table_matches_unit_products():
    # the enum table must agree with actual split-complex multiplication
    from pseudoeuclid.hypnum import HyperbolicNumber

    for a in ALL_KS:
        for b in ALL_KS:
            ua = HyperbolicNumber(*a.unit)
            ub = HyperbolicNumber(*b.unit)
            assert (ua * ub) == HyperbolicNumber(*(a * b).unit)


@pytest.mark.parametrize("k, expected", [
    (KleinIndex.P1, (math.cosh(0.7), math.sinh(0.7))),
    (KleinIndex.M1, (-math.cosh(0.7), -math.sinh(0.7))),
    (KleinIndex.H, (math.sinh(0.7), math.cosh(0.7))),
    (KleinIndex.MH, (-math.sinh(0.7), -math.cosh(0.7))),
])
def test_extended_values_by_index(k, expected):
    c, s = cosh_sinh(ExtendedAngle(0.7, k))
    assert (c, s) == pytest.approx(expected, rel=1e-15)


def test_extended_values_at_zero():
    assert cosh_sinh(ExtendedAngle(0.0)) == (1.0, 0.0)
    assert cosh_sinh(ExtendedAngle(0.0, KleinIndex.H)) == (0.0, 1.0)


@given(angles)
@settings(max_examples=500, deadline=None)
def test_quadratic_identity(a):
    c, s = cosh_sinh(a)
    kappa = 1.0 if a.k in (KleinIndex.P1, KleinIndex.M1) else -1.0
    assert abs(c * c - s * s - kappa) / (1.0 + c * c + s * s) <= 1e-12


@given(angles, angles)
@settings(max_examples=500, deadline=None)
def test_addition_formulas(a, b):
    ca, sa = cosh_sinh(a)
    cb, sb = cosh_sinh(b)
    cs, ss = cosh_sinh(add_angles(a, b))
    scale = 1.0 + abs(ca * cb) + abs(sa * sb)
    assert abs(cs - (ca * cb + sa * sb)) / scale <= 1e-10
    assert abs(ss - (ca * sb + sa * cb)) / scale <= 1e-10


@given(angles, angles)
@settings(max_examples=300, deadline=None)
def test_subtraction_undoes_addition(a, b):
    back = sub_angles(add_angles(a, b), b)
    assert back.k is a.k
    assert back.theta == pytest.approx(a.theta, abs=1e-12)


def test_addition_combines_indices():
    a = ExtendedAngle(0.5, KleinIndex.H)
    b = ExtendedAngle(0.25, KleinIndex.MH)
    assert add_angles(a, b) == ExtendedAngle(0.75, KleinIndex.M1)


@given(angles)
@settings(max_examples=500, deadline=None)
def test_from_point_recovers_angle(a):
    u = euler(a)
    back = from_point(u.x, u.y)
    assert back.k is a.k
    assert back.theta == pytest.approx(a.theta, rel=1e-10, abs=1e-10)


def test_from_point_scale_invariant():
    a = from_point(5.0, 3.0)
    b = from_point(0.005, 0.003)
    assert a.k is b.k
    assert a.theta == pytest.approx(b.theta, rel=1e-14)
    assert a == ExtendedAngle(math.atanh(0.6), KleinIndex.P1)


@pytest.mark.parametrize("x, y", [(1.0, 1.0), (-2.0, 2.0), (0.0, 0.0), (3.0, -3.0),
                                  (1e200, 1e200), (1e-170, -1e-170)])
def test_from_point_rejects_null(x, y):
    with pytest.raises(NullDirection):
        from_point(x, y)


@pytest.mark.parametrize("x, y, k", [
    (1e200, 0.0, KleinIndex.P1),
    (1e-170, 0.0, KleinIndex.P1),
    (0.0, 1e200, KleinIndex.H),
])
def test_from_point_on_axes_at_extreme_scales(x, y, k):
    # the squares of these components overflow or underflow a double
    assert from_point(x, y) == ExtendedAngle(0.0, k)


def test_overflow_guard():
    c, s = cosh_sinh(ExtendedAngle(THETA_MAX))
    assert math.isfinite(c) and math.isfinite(s)
    with pytest.raises(OverflowingAngle):
        cosh_sinh(ExtendedAngle(THETA_MAX * 1.01))
    with pytest.raises(OverflowingAngle):
        sinh_e(ExtendedAngle(-400.0, KleinIndex.H))


def test_euler_on_axes():
    u = euler(ExtendedAngle(0.0, KleinIndex.MH))
    assert (u.x, u.y) == (-0.0, -1.0)


def test_cosh_e_sinh_e_split():
    a = ExtendedAngle(1.3, KleinIndex.MH)
    assert (cosh_e(a), sinh_e(a)) == cosh_sinh(a)


def test_angle_validation():
    with pytest.raises(ValueError):
        ExtendedAngle(math.nan)
    with pytest.raises(ValueError):
        ExtendedAngle(1.0, "+1")  # type: ignore[arg-type]


def test_circle_map_lands_on_unit_hyperbolas():
    for phi in (0.1, 1.0, 2.0, 3.5, 5.0):
        x, y = circle_map(phi)
        assert abs(abs(x * x - y * y) - 1.0) <= 1e-9


def test_circle_map_pole():
    with pytest.raises(NullDirection):
        circle_map(math.pi / 4.0)
