from __future__ import annotations

import copy
import math
import pickle
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pseudoeuclid import angle as _angle
from pseudoeuclid.angle import ExtendedAngle, KleinIndex, add_angles, cosh_e, sinh_e
from pseudoeuclid.errors import DegenerateTriangle, InvalidInput, NullSide
from pseudoeuclid.euclid import euclid_signed_area
from pseudoeuclid.geometry import Motion, PointP, displacement, square_distance
from pseudoeuclid.hypnum import HyperbolicNumber, angle_between, euler
from pseudoeuclid.selftest import random_triangle
from pseudoeuclid.tol import null_eps, set_null_eps
from pseudoeuclid.triangle import Triangle, TriangleElements, _set_elements

from builds import counting_builds

P = PointP
LN2 = math.log(2.0)


@pytest.fixture
def tri():
    # right triangle with legs on a first-kind and a second-kind line
    return Triangle(P(0, 0), P(5, 0), P(5, 3))


def test_fixture_sides(tri):
    el = tri.elements()
    assert el.D == (-9.0, 16.0, 25.0)
    assert el.d == (3.0, 4.0, 5.0)
    assert el.S == 7.5


def test_fixture_angles(tri):
    a1, a2, a3 = tri.elements().angles
    assert a1.k is KleinIndex.P1 and a1.theta == pytest.approx(LN2, rel=1e-12)
    assert a2.k is KleinIndex.H and a2.theta == pytest.approx(0.0, abs=1e-15)
    assert a3.k is KleinIndex.H and a3.theta == pytest.approx(-LN2, rel=1e-12)
    assert cosh_e(a1) == pytest.approx(1.25, rel=1e-12)
    assert sinh_e(a1) == pytest.approx(0.75, rel=1e-12)
    assert cosh_e(a3) == pytest.approx(-0.75, rel=1e-12)
    assert sinh_e(a3) == pytest.approx(1.25, rel=1e-12)


def test_all_extended_sines_positive(tri):
    # counterclockwise orientation forces sinh_e > 0 at every vertex
    for a in tri.elements().angles:
        assert sinh_e(a) > 0.0


def test_orientation_swap():
    flipped = Triangle(P(0, 0), P(5, 3), P(5, 0))
    assert flipped.vertices == (P(0, 0), P(5, 0), P(5, 3))
    assert flipped.signed_area() == 7.5


def test_null_side_rejected():
    with pytest.raises(NullSide):
        Triangle(P(0, 0), P(2, 2), P(5, 0))
    with pytest.raises(NullSide):
        Triangle(P(0, 0), P(0, 0), P(5, 3))


@pytest.mark.parametrize("vertices, name", [
    ((P(0, 0), P(1, 1), P(2, 0)), "p1p2"),   # p1p2 and p2p3 null
    ((P(0, 0), P(3, 1), P(2, 2)), "p2p3"),   # p2p3 and p1p3 null
    ((P(0, 0), P(1, 1), P(2, -2)), "p1p2"),  # p1p2 and p1p3 null
])
def test_null_side_names_the_first_null_side(vertices, name):
    with pytest.raises(NullSide, match=f"^side {name} lies on a null line$"):
        Triangle(*vertices)


@pytest.mark.parametrize("vertices, i, j", [
    ((P(-1e308, 0), P(1e308, 0), P(0, 1)), 0, 1),
    ((P(0, 0), P(1e308, 1), P(-1e308, 0)), 1, 2),
])
def test_overflowing_vertex_difference_raises_as_displacement_does(vertices, i, j):
    with pytest.raises(ValueError) as want:
        displacement(vertices[i], vertices[j])
    with pytest.raises(ValueError) as got:
        Triangle(*vertices)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("components must be finite, got (")


def test_overflowing_side_p1p3_is_refused_as_invalid_input():
    # p1p2 and p2p3 fit; p3 - p1 = (2e308, 0) does not
    with pytest.raises(InvalidInput) as info:
        Triangle(P(-1e308, 0), P(0, 1), P(1e308, 0))
    assert type(info.value) is InvalidInput
    assert str(info.value) == "components must be finite, got (inf, 0.0)"


def test_null_side_is_reported_before_a_later_overflow():
    # p1p2 is null; p2p3 overflows but is tested after it
    with pytest.raises(NullSide, match="p1p2"):
        Triangle(P(1e308, 1e308), P(1.5e308, 1.5e308), P(-1e308, 0))


def test_degenerate_rejected():
    with pytest.raises(DegenerateTriangle):
        Triangle(P(0, 0), P(2, 1), P(4, 2))


def test_a_clockwise_triple_whose_cross_is_nan_is_stored_counterclockwise():
    # euclid_signed_area halves the cross of p2 - p1 and p3 - p1, whose products
    # both overflow to -inf; the exact 2S is -5.0e610 (mpmath): clockwise
    p1, p2, p3 = (P(1.7e308, -1e308), P(-4.975375852650895e302, -1456046219969714.5),
                  P(-348808.3656137566, 1.75297339967585))
    assert math.isnan(euclid_signed_area(p1, p2, p3))
    tri = Triangle(p1, p2, p3)
    assert tri.vertices == (p1, p3, p2)
    assert all(sinh_e(a) > 0 for a in tri.elements().angles)


def test_a_collinear_triple_near_the_largest_double_is_refused():
    # the shoelace sum on these absolute coordinates is NaN; the cross of the
    # sides from p1 is exactly zero
    x = 1.5392735181785487e+293
    vertices = (P(x, 3.7482917678723244e+54), P(x, -3.567478831146048e+54),
                P(x, 2.0027936423369135e+54))
    assert euclid_signed_area(*vertices) == 0.0
    with pytest.raises(DegenerateTriangle):
        Triangle(*vertices)


@pytest.mark.parametrize("x, ys", [
    (1000.1343642441124, (6.948674738744653e-4, 5.275492379532281e-4, -4.898619485211567e-4)),
    (1.6304369076713387e+161, (9.005076362158298e+97, 8.512700866169274e+97, -9.781186517191471e+97)),
], ids=["x=1000", "x=1.6e161"])
def test_exactly_collinear_triples_off_the_origin_are_refused(x, ys):
    # a shoelace sum on these absolute coordinates left S = 4.2e-17 and 2.2e243
    with pytest.raises(DegenerateTriangle):
        Triangle(*(P(x, y) for y in ys))


_far = st.floats(-1e300, 1e300)


@given(_far, st.lists(_far, min_size=3, max_size=3, unique=True))
@settings(max_examples=300, deadline=None)
def test_three_points_on_one_vertical_line_are_collinear_at_any_offset(x, ys):
    with pytest.raises(DegenerateTriangle):
        Triangle(*(P(x, y) for y in ys))


def test_a_triangle_whose_cross_overflows_is_stored_counterclockwise():
    # ex fy = 1.5e401 overflows; orientation and flatness are decided on the
    # rescaled sides
    vertices = (P(0.0, 0.0), P(5e200, 0.0), P(5e200, 3e200))
    tri = Triangle(*vertices)
    assert tri.vertices == vertices
    assert math.isinf(euclid_signed_area(*vertices))


def test_a_triangle_whose_side_moduli_multiply_past_the_largest_double_constructs():
    # the cross, 9e307, fits; |e| |f| = 2.1e308 does not, so the flatness
    # bound is formed as PARALLEL_TOL |e| first
    vertices = (P(0.0, 0.0), P(1.5e154, 0.0), P(1.3e154, 0.6e154))
    assert math.isinf(math.hypot(1.5e154, 0.0) * math.hypot(1.3e154, 0.6e154))
    tri = Triangle(*vertices)
    assert tri.vertices == vertices
    assert tri.signed_area() > 0.0


def test_law_of_sines(tri):
    el = tri.elements()
    ratios = [sinh_e(el.angles[i]) / el.d[i] for i in range(3)]
    assert ratios == pytest.approx([0.25, 0.25, 0.25], rel=1e-12)
    assert tri.law_of_sines_residual() <= 1e-12


def test_law_of_cosines_and_projection(tri):
    cos_res, proj_res = tri.law_of_cosines_check()
    assert max(cos_res) <= 1e-12
    assert max(proj_res) <= 1e-12


def test_projection_values(tri):
    # d1 = |d2 cosh_e(theta3) + d3 cosh_e(theta2)| = |4 * (-0.75) + 5 * 0|
    el = tri.elements()
    interior = el.d[1] * cosh_e(el.angles[2]) + el.d[2] * cosh_e(el.angles[1])
    assert abs(interior) == pytest.approx(3.0, rel=1e-12)
    assert interior < 0.0


def test_right_angle(tri):
    assert tri.is_right_angle_at(2)
    assert not tri.is_right_angle_at(1)
    # out of range, or not an int even where it equals a valid index
    for i in (0, 4, 1.5, 2.0, True, False):
        with pytest.raises(InvalidInput) as info:
            tri.is_right_angle_at(i)
        assert str(info.value) == f"vertex index must be 1, 2 or 3, got {i!r}"


def test_angle_sum(tri):
    total = tri.angle_sum()
    assert total.k is KleinIndex.P1
    assert total.theta == pytest.approx(0.0, abs=1e-12)
    el = tri.elements()
    prod = el.d[0] * el.d[1] * el.d[2]
    target = -(el.D[0] * el.D[1] * el.D[2]) / (prod * prod)
    assert cosh_e(total) == pytest.approx(target, rel=1e-12)
    assert target == pytest.approx(1.0, rel=1e-12)


_theta = st.floats(allow_nan=False, allow_infinity=False)
_k = st.sampled_from(list(KleinIndex))


def _sum_or_refusal(fn):
    try:
        a = fn()
    except InvalidInput as exc:
        return str(exc)
    return a.theta.hex(), a.k


@given(st.tuples(_theta, _theta, _theta), st.tuples(_k, _k, _k))
@settings(max_examples=500, deadline=None)
@example((1.5e308, 1.5e308, -1.5e308), (KleinIndex.H, KleinIndex.M1, KleinIndex.MH))
@example((1.0, 2.0 ** -53, 2.0 ** -53), (KleinIndex.P1, KleinIndex.H, KleinIndex.MH))
def test_angle_sum_is_two_additions_bit_for_bit(thetas, ks):
    # one angle built where add_angles built two: the same theta, index and refusal
    tri = Triangle(P(0, 0), P(5, 0), P(5, 3))
    el = tri.elements()
    angles = tuple(ExtendedAngle(t, k) for t, k in zip(thetas, ks))
    _set_elements(tri, TriangleElements(el.D, el.d, angles, el.S))
    want = _sum_or_refusal(lambda: add_angles(add_angles(angles[0], angles[1]), angles[2]))
    assert _sum_or_refusal(tri.angle_sum) == want


def test_canonicalize_fixture_is_fixed_point(tri):
    motion, canon = tri.canonicalize()
    assert motion.is_proper()
    assert canon.vertices == tri.vertices


@pytest.mark.parametrize("vertices", [
    ((2.0, 1.0), (6.5, 2.5), (3.0, 4.0)),
    ((0.0, 0.0), (0.0, 5.0), (-5.0, 3.0)),
    ((-1.5, 0.25), (-4.0, 0.5), (-2.0, 3.0)),
    ((0.5, 2.0), (0.75, -3.0), (4.0, 1.0)),
])
def test_canonicalize_builds_only_the_numbers_it_keeps(vertices):
    tri = Triangle(*(P(x, y) for x, y in vertices))
    with counting_builds(HyperbolicNumber) as built:
        motion, canon = tri.canonicalize()
    # the offset and the three image vertices
    assert len(built) == 4
    assert built[0] is motion.offset and built[1:] == list(canon.vertices)
    # the offset the parent formed as -(p1 * euler(rotation)), bit for bit
    expected = -(tri.p1 * euler(motion.rotation))
    assert (motion.offset.x.hex(), motion.offset.y.hex()) == (expected.x.hex(), expected.y.hex())
    assert canon == tri.transformed(motion)


def test_canonicalize_general_first_kind_base():
    tri = Triangle(P(2.0, 1.0), P(6.5, 2.5), P(3.0, 4.0))
    motion, canon = tri.canonicalize()
    el, el2 = tri.elements(), canon.elements()
    assert canon.p1 == P(0.0, 0.0)
    assert canon.p2.x == pytest.approx(el.d[2], rel=1e-12)
    assert canon.p2.y == pytest.approx(0.0, abs=1e-12)
    a1 = el.angles[0]
    assert canon.p3.x == pytest.approx(el.d[1] * cosh_e(a1), rel=1e-9)
    assert canon.p3.y == pytest.approx(el.d[1] * sinh_e(a1), rel=1e-9)
    for i in range(3):
        assert el2.D[i] == pytest.approx(el.D[i], rel=1e-9)
        assert el2.angles[i].k is el.angles[i].k


def test_canonicalize_second_kind_base():
    tri = Triangle(P(0.0, 0.0), P(0.0, 5.0), P(-5.0, 3.0))
    motion, canon = tri.canonicalize()
    assert canon.p1 == P(0.0, 0.0)
    assert canon.p2.x == pytest.approx(0.0, abs=1e-12)
    assert canon.p2.y == pytest.approx(-5.0, rel=1e-12)
    assert canon.p3.x == pytest.approx(5.0, rel=1e-12)
    assert canon.p3.y == pytest.approx(-3.0, rel=1e-12)
    el = tri.elements()
    a1 = el.angles[0]
    # swapped placement: p3 = d2 * (sinh_e, cosh_e)
    assert canon.p3.x == pytest.approx(el.d[1] * sinh_e(a1), rel=1e-9)
    assert canon.p3.y == pytest.approx(el.d[1] * cosh_e(a1), rel=1e-9)


def test_transformed_preserves_elements(tri):
    motion = Motion(ExtendedAngle(1.1, KleinIndex.M1), HyperbolicNumber(3.0, -2.0))
    moved = tri.transformed(motion)
    el, el2 = tri.elements(), moved.elements()
    assert el2.S == pytest.approx(el.S, rel=1e-12)
    for i in range(3):
        assert el2.D[i] == pytest.approx(el.D[i], rel=1e-9)
        assert el2.angles[i].k is el.angles[i].k
        assert el2.angles[i].theta == pytest.approx(el.angles[i].theta, rel=1e-9, abs=1e-9)


def test_second_fixture_vertex_pair():
    # (0,0), (5,0), (3,1): first angle has (cosh_e, sinh_e) = (3, 1)/(2 sqrt 2)
    tri = Triangle(P(0, 0), P(5, 0), P(3, 1))
    el = tri.elements()
    assert el.D == (3.0, 8.0, 25.0)
    a1 = el.angles[0]
    assert cosh_e(a1) == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)
    assert sinh_e(a1) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)


def test_elements_are_computed_once_and_shared(tri):
    assert tri.elements() is tri.elements()


def test_first_elements_call_leaves_the_value_unchanged():
    fresh = Triangle(P(2.0, 1.0), P(6.5, 2.5), P(3.0, 4.0))
    twin = Triangle(P(2.0, 1.0), P(6.5, 2.5), P(3.0, 4.0))
    before = (hash(fresh), repr(fresh), fresh._fields, fresh._values())
    fresh.elements()
    assert (hash(fresh), repr(fresh), fresh._fields, fresh._values()) == before
    assert fresh._fields == ("p1", "p2", "p3")
    assert fresh == twin and twin == fresh
    assert {fresh, twin} == {twin}


@pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy])
def test_copies_compare_equal_and_agree(tri, clone):
    el = tri.elements()
    other = clone(tri)
    assert other == tri and hash(other) == hash(tri)
    assert other.elements() == el


def _bits(el: TriangleElements) -> tuple:
    return ([v.hex() for v in el.D], [v.hex() for v in el.d],
            [(a.theta.hex(), a.k) for a in el.angles], el.S.hex())


@pytest.mark.parametrize("clone", [
    *(lambda t, p=p: pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy, copy.deepcopy,
], ids=[*(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)), "copy", "deepcopy"])
@pytest.mark.parametrize("k", [0, 520, -500])
def test_copies_start_with_an_empty_cache(clone, k):
    # a copy gets the vertices and the empty cache __init__ leaves, whether the
    # original has computed its elements or not, and computes its own bit for
    # bit, the infinities of D and S at 2^520 included
    src = Triangle(*(P(math.ldexp(p.x, k), math.ldexp(p.y, k))
                     for p in random_triangle(random.Random(3)).vertices))
    fresh = clone(src)
    el = src.elements()
    cached = clone(src)
    for other in (fresh, cached):
        assert other._elements is None
        assert other.elements() is not el and _bits(other.elements()) == _bits(el)
        assert other.signed_area().hex() == src.signed_area().hex()


def test_derived_triangles_compute_their_own_elements():
    src = Triangle(P(2.0, 1.0), P(6.5, 2.5), P(3.0, 4.0))
    el = src.elements()
    moved = src.transformed(Motion(ExtendedAngle(1.1, KleinIndex.M1), HyperbolicNumber(3.0, -2.0)))
    for derived in (moved, src.canonicalize()[1]):
        assert derived.elements() is not el
        assert derived.elements() == Triangle(*derived.vertices).elements()


@pytest.mark.parametrize("which", [1, 2, 3], ids=["first", "second", "third"])
def test_law_of_sines_keeps_a_nan_ratio(tri, monkeypatch, which):
    # max(0.0, nan) is 0.0 and max(nan, 1.0) is 1.0: a NaN in any of the three
    # sine products must not read as a pass
    sinh_e, calls = _angle.sinh_e, []

    def nan_at(a):
        calls.append(a)
        return math.nan if len(calls) == which else sinh_e(a)

    monkeypatch.setattr(_angle, "sinh_e", nan_at)
    assert math.isnan(tri.law_of_sines_residual())
    assert len(calls) == 3


@pytest.mark.parametrize("k", [1, -1, 100, -100, 200, -200, 240, -240, 345, -360])
def test_law_of_sines_residual_does_not_depend_on_scale(k):
    # d1 d2 d3 overflows at 2^345 and underflows to 0 at 2^-360; the products
    # d_j d_k and 2S scale by 2^2k exactly
    tri = random_triangle(random.Random(1))
    scaled = Triangle(*(P(math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in tri.vertices))
    assert scaled.law_of_sines_residual() == tri.law_of_sines_residual() <= 1e-10


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.integers(-500, 500))
@example(seed=1, k=-380)
@example(seed=1, k=-500)
@example(seed=1, k=500)
def test_law_residuals_do_not_depend_on_scale(seed, k):
    # scaling by 2^k scales every D, S and 2 d_j d_k by 4^k exactly while they
    # stay normal doubles, and each residual over the magnitude its identity
    # holds keeps every bit; a floor at 1.0 would not
    tri = random_triangle(random.Random(seed))
    scaled = Triangle(*(P(math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in tri.vertices))
    el = scaled.elements()
    assume(all(2.0 ** -1022 <= abs(v) < math.inf for v in (*el.D, el.S)))
    sines, cosines = tri.law_of_sines_residual(), tri.law_of_cosines_check()
    assert sines <= 1e-10 and max(cosines[0] + cosines[1]) <= 1e-9
    got = scaled.law_of_cosines_check()
    assert scaled.law_of_sines_residual().hex() == sines.hex()
    assert [r.hex() for r in got[0] + got[1]] == [r.hex() for r in cosines[0] + cosines[1]]


def test_law_of_sines_residual_is_nan_where_2s_rounds_to_zero():
    tri = Triangle(P(0, 0), P(1e-160, 0), P(1e-163, 5e-164))
    assert tri.elements().S == 0.0
    assert math.isnan(tri.law_of_sines_residual())


# shared coordinates give zero differences, whose sign a negated ray would flip
_coord = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 5.0])
          | st.floats(-5.0, 5.0, allow_nan=False))


# the vertices of a selftest draw
_drawn = st.builds(lambda seed: [(p.x, p.y) for p in random_triangle(random.Random(seed)).vertices],
                   st.integers(0, 2 ** 32))


@given(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=3) | _drawn, st.integers(-480, 480))
@settings(max_examples=500, deadline=None)
def test_elements_are_the_public_composition_bit_for_bit(xy, k):
    try:
        tri = Triangle(*(P(math.ldexp(x, k), math.ldexp(y, k)) for x, y in xy))
    except (NullSide, DegenerateTriangle):
        assume(False)
    p1, p2, p3 = tri.vertices
    D = (square_distance(p2, p3), square_distance(p1, p3), square_distance(p1, p2))
    angles = (angle_between(displacement(p1, p2), displacement(p1, p3)),
              angle_between(displacement(p2, p3), displacement(p2, p1)),
              angle_between(displacement(p3, p1), displacement(p3, p2)))
    el = tri.elements()
    assert [v.hex() for v in el.D] == [v.hex() for v in D]
    assert [v.hex() for v in el.d] == [math.sqrt(abs(v)).hex() for v in D]
    assert [a.theta.hex() for a in el.angles] == [a.theta.hex() for a in angles]
    assert all(a.k is b.k for a, b in zip(el.angles, angles))
    assert el.S.hex() == tri.signed_area().hex()


@given(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=3),
       st.floats(-20.0, 20.0), st.sampled_from(list(KleinIndex)), _coord, _coord)
@settings(max_examples=300, deadline=None)
def test_transformed_is_apply_on_each_vertex_bit_for_bit(xy, theta, k, ox, oy):
    try:
        tri = Triangle(*(P(x, y) for x, y in xy))
    except (NullSide, DegenerateTriangle):
        assume(False)
    motion = Motion(ExtendedAngle(theta, k), HyperbolicNumber(ox, oy))
    try:
        expected = Triangle(*(motion.apply(p) for p in tri.vertices))
    except (NullSide, DegenerateTriangle) as exc:
        with pytest.raises(type(exc)):
            tri.transformed(motion)
        return
    got = tri.transformed(motion)
    assert ([(p.x.hex(), p.y.hex()) for p in got.vertices]
            == [(p.x.hex(), p.y.hex()) for p in expected.vertices])


@pytest.mark.parametrize("vertices", [
    (P(0, 0), P(5, 3), P(0, 3)),    # p1p2 is the side nearest a null line
    (P(0, 0), P(5, 0), P(10, 3)),   # p2p3
    (P(0, 0), P(5, 0), P(5, 3)),    # p1p3
])
def test_elements_do_not_read_the_null_tolerance(vertices):
    # the constructor refused null sides; the elements depend on the vertices alone
    twin = Triangle(*vertices).elements()
    tri = Triangle(*vertices)
    before = null_eps()
    set_null_eps(0.5)
    try:
        el = tri.elements()
    finally:
        set_null_eps(before)
    assert el == twin
    assert [v.hex() for v in el.D + el.d] == [v.hex() for v in twin.D + twin.d]
    assert [a.theta.hex() for a in el.angles] == [a.theta.hex() for a in twin.angles]


@pytest.mark.parametrize("value", [0.0, math.nan, "1e-3"])
def test_set_null_eps_refuses_and_keeps_the_tolerance(value):
    before = null_eps()
    with pytest.raises(ValueError, match="null epsilon must be a positive finite number"):
        set_null_eps(value)
    assert null_eps() == before
