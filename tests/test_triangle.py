from __future__ import annotations

import math

import pytest

from pseudoeuclid.angle import ExtendedAngle, KleinIndex, cosh_e, sinh_e
from pseudoeuclid.errors import DegenerateTriangle, InvalidInput, NullSide
from pseudoeuclid.geometry import Motion, PointP
from pseudoeuclid.hypnum import HyperbolicNumber
from pseudoeuclid.triangle import Triangle

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


def test_degenerate_rejected():
    with pytest.raises(DegenerateTriangle):
        Triangle(P(0, 0), P(2, 1), P(4, 2))


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
    with pytest.raises(InvalidInput):
        tri.is_right_angle_at(0)


def test_angle_sum(tri):
    total = tri.angle_sum()
    assert total.k is KleinIndex.P1
    assert total.theta == pytest.approx(0.0, abs=1e-12)
    el = tri.elements()
    prod = el.d[0] * el.d[1] * el.d[2]
    target = -(el.D[0] * el.D[1] * el.D[2]) / (prod * prod)
    assert cosh_e(total) == pytest.approx(target, rel=1e-12)
    assert target == pytest.approx(1.0, rel=1e-12)


def test_canonicalize_fixture_is_fixed_point(tri):
    motion, canon = tri.canonicalize()
    assert motion.is_proper()
    assert canon.vertices == tri.vertices


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
