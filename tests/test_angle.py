from __future__ import annotations

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoeuclid import euler
from pseudoeuclid.angle import (
    THETA_MAX,
    ExtendedAngle,
    KleinIndex,
    add_angles,
    circle_map,
    cosh_e,
    cosh_sinh,
    from_point,
    sinh_e,
    sub_angles,
)
from pseudoeuclid.errors import InvalidInput, NullDirection, OverflowingAngle

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


def test_klein_products_are_sign_pair_products():
    # all 16 products: the index whose signs are the componentwise products
    for a in ALL_KS:
        for b in ALL_KS:
            assert (a * b).signs == (a.signs[0] * b.signs[0], a.signs[1] * b.signs[1])


def test_kappa_is_a_plain_attribute_and_the_product_of_the_signs():
    for k in ALL_KS:
        assert vars(k)["kappa"] == k.kappa == k.signs[0] * k.signs[1]
    assert [k.kappa for k in ALL_KS] == [1.0, -1.0, 1.0, -1.0]


@pytest.mark.parametrize("clone", [
    *(lambda k, p=p: pickle.loads(pickle.dumps(k, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy,
    copy.deepcopy,
])
def test_klein_members_hash_alike_across_pickle_and_copies(clone):
    # members hash by identity, and pickling or copying hands back the member
    for k in ALL_KS:
        twin = clone(k)
        assert twin is k and hash(twin) == hash(k) == object.__hash__(k)
        assert clone(ExtendedAngle(0.25, k)) == ExtendedAngle(0.25, k)
        assert hash(clone(ExtendedAngle(0.25, k))) == hash(ExtendedAngle(0.25, k))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-THETA_MAX, max_value=THETA_MAX), st.sampled_from(ALL_KS))
def test_cosh_sinh_is_the_four_case_table_bit_for_bit(theta, k):
    c, s = math.cosh(theta), math.sinh(theta)
    table = {KleinIndex.P1: (c, s), KleinIndex.M1: (-c, -s),
             KleinIndex.H: (s, c), KleinIndex.MH: (-s, -c)}
    got = cosh_sinh(ExtendedAngle(theta, k))
    assert [v.hex() for v in got] == [v.hex() for v in table[k]]


def _outcome(fn, a):
    """fn(a) as float.hex, or the type and message of the OverflowingAngle it raises."""
    try:
        return fn(a).hex()
    except OverflowingAngle as exc:
        return type(exc), str(exc)


def _assert_halves_of_cosh_sinh(a):
    # cosh_e and sinh_e each evaluate only the function they return; beyond
    # THETA_MAX all three refuse with the same message
    try:
        want = tuple(v.hex() for v in cosh_sinh(a))
    except OverflowingAngle as exc:
        want = ((type(exc), str(exc)),) * 2
    assert (_outcome(cosh_e, a), _outcome(sinh_e, a)) == want


# the band edges with one step inside and one beyond, the zeros and the subnormals
_EDGES = [0.0, -0.0, 5e-324, -5e-324, float.fromhex("0x0.fffffffffffffp-1022"),
          -float.fromhex("0x0.fffffffffffffp-1022"), THETA_MAX, -THETA_MAX,
          math.nextafter(THETA_MAX, 0.0), math.nextafter(-THETA_MAX, 0.0),
          math.nextafter(THETA_MAX, math.inf), math.nextafter(-THETA_MAX, -math.inf)]


@pytest.mark.parametrize("k", ALL_KS, ids=lambda k: k.name)
@pytest.mark.parametrize("theta", _EDGES)
def test_cosh_e_and_sinh_e_match_cosh_sinh_at_the_edges(k, theta):
    _assert_halves_of_cosh_sinh(ExtendedAngle(theta, k))


@pytest.mark.parametrize("k", ALL_KS, ids=lambda k: k.name)
@settings(max_examples=300, deadline=None)
@given(theta=st.floats(-2 * THETA_MAX, 2 * THETA_MAX) | st.floats(allow_nan=False, allow_infinity=False))
def test_cosh_e_and_sinh_e_are_the_halves_of_cosh_sinh_bit_for_bit(k, theta):
    _assert_halves_of_cosh_sinh(ExtendedAngle(theta, k))


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


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_from_point_refuses_a_coordinate_that_is_not_finite(x):
    # the coordinates the caller passed, not the theta the kernel would make of them
    for args in ((x, 1.0), (1.0, x)):
        with pytest.raises(InvalidInput) as info:
            from_point(*args)
        assert type(info.value) is InvalidInput
        assert str(info.value) == f"components must be finite, got ({args[0]!r}, {args[1]!r})"


@pytest.mark.parametrize("x, y, k", [
    (1e200, 0.0, KleinIndex.P1),
    (1e-170, 0.0, KleinIndex.P1),
    (0.0, 1e200, KleinIndex.H),
])
def test_from_point_on_axes_at_extreme_scales(x, y, k):
    # the squares of these components overflow or underflow a double
    assert from_point(x, y) == ExtendedAngle(0.0, k)


@pytest.mark.parametrize("x, y", [(1.7e308, 1e308), (-1.7e308, -1e308),
                                  (1.7e308, -1e308), (1e308, -1.7e308)])
def test_from_point_where_a_null_coordinate_overflows(x, y):
    # x + y or x - y overflows; a power-of-two scaling changes no bit of the angle
    assert from_point(x, y) == from_point(x / 4.0, y / 4.0)


def test_overflow_guard():
    c, s = cosh_sinh(ExtendedAngle(THETA_MAX))
    assert math.isfinite(c) and math.isfinite(s)
    with pytest.raises(OverflowingAngle, match=r"^\|theta\| = 353\.5 exceeds 350\.0$"):
        cosh_sinh(ExtendedAngle(-THETA_MAX * 1.01))
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


class _Real(float):
    pass


@pytest.mark.parametrize("theta", [1, True, _Real(0.5), 0.5])
def test_angle_theta_is_an_exact_float(theta):
    assert type(ExtendedAngle(theta).theta) is float
    assert ExtendedAngle(theta).theta == float(theta)


@pytest.mark.parametrize("theta, exc, message", [
    ("abc", ValueError, "could not convert string to float: 'abc'"),
    (None, TypeError, None),
    (math.nan, ValueError, "theta must be finite, got nan"),
    (math.inf, ValueError, "theta must be finite, got inf"),
])
def test_angle_rejects_with_the_same_messages(theta, exc, message):
    if message is None:  # the message of float() itself, which varies by Python version
        with pytest.raises(exc) as want:
            float(theta)
        message = str(want.value)
    with pytest.raises(exc) as got:
        ExtendedAngle(theta)
    assert str(got.value) == message


def test_circle_map_lands_on_unit_hyperbolas():
    for phi in (0.1, 1.0, 2.0, 3.5, 5.0):
        x, y = circle_map(phi)
        assert abs(abs(x * x - y * y) - 1.0) <= 1e-9


def test_circle_map_pole():
    with pytest.raises(NullDirection):
        circle_map(math.pi / 4.0)


@pytest.mark.parametrize("phi", [1e308, -1e308, math.inf, -math.inf, math.nan])
def test_circle_map_refuses_phi_whose_double_is_not_finite(phi):
    # math.cos(2 phi) itself raises a bare ValueError on inf and returns nan on nan
    with pytest.raises(InvalidInput, match="2 \\* phi must be finite"):
        circle_map(phi)


def test_circle_map_just_inside_the_double_range():
    x, y = circle_map(8e307)  # 2 phi = 1.6e308 is still a double
    assert math.isfinite(x) and math.isfinite(y)
