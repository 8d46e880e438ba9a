from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import ExtendedAngle, KleinIndex
from pseudoeuclid.errors import InvalidInput, NullDirection, ParallelRays
from pseudoeuclid.geometry import (
    Motion,
    PELine,
    PointP,
    SegmentKind,
    displacement,
    line_intersection,
    line_through,
    midpoint,
    orthogonal_line_at,
    point_line_distance,
    pseudo_orthogonal,
    segment_axis,
    segment_kind,
    square_distance,
)
from pseudoeuclid.hypnum import HyperbolicNumber

H = HyperbolicNumber
P = PointP


def test_point_validation():
    with pytest.raises(ValueError):
        P(math.nan, 0.0)


def test_square_distance_and_kinds():
    assert square_distance(P(0, 0), P(5, 3)) == 16.0
    assert segment_kind(P(0, 0), P(5, 3)) is SegmentKind.FIRST
    assert segment_kind(P(0, 0), P(3, 5)) is SegmentKind.SECOND
    assert segment_kind(P(1, 1), P(4, 4)) is SegmentKind.NULL


def test_midpoint():
    assert midpoint(P(0, 0), P(4, 6)) == P(2, 3)


def test_line_normalizes_direction():
    line = PELine(P(0, 0), H(10.0, 6.0))
    assert line.direction.square_module() == pytest.approx(1.0, rel=1e-12)
    assert line.kind is SegmentKind.FIRST
    assert line.theta == pytest.approx(math.atanh(0.6), rel=1e-12)


def test_line_rejects_null_direction():
    with pytest.raises(NullDirection):
        PELine(P(0, 0), H(2.0, 2.0))
    with pytest.raises(NullDirection):
        line_through(P(1, 1), P(3, 3))


def test_second_kind_line_theta_measured_from_y_axis():
    line = PELine(P(0, 0), H(3.0, 5.0))
    assert line.kind is SegmentKind.SECOND
    assert line.theta == pytest.approx(math.atanh(0.6), rel=1e-12)


def test_containment():
    line = line_through(P(1, 1), P(6, 4))
    assert line.contains(P(11, 7))
    assert line.contains(P(-4, -2))
    assert not line.contains(P(11, 7.001))


def test_vertical_line_has_no_slope_form():
    line = PELine(P(2, 0), H(0.0, 1.0))
    assert line.contains(P(2, 57.0))
    with pytest.raises(InvalidInput):
        line.slope_intercept()


def test_slope_intercept_roundtrip():
    line = PELine.from_slope_intercept(2.0, -1.0)
    m, q = line.slope_intercept()
    assert (m, q) == (2.0, -1.0)
    assert line.kind is SegmentKind.SECOND
    with pytest.raises(NullDirection):
        PELine.from_slope_intercept(1.0, 3.0)


def test_pseudo_orthogonal_is_slope_reciprocal():
    # m1 * m2 = +1 <=> vanishing pseudo scalar product
    l1 = PELine.from_slope_intercept(2.0, 0.0)
    l2 = PELine.from_slope_intercept(0.5, 3.0)
    assert pseudo_orthogonal(l1, l2)
    l3 = PELine.from_slope_intercept(0.25, 0.0)
    assert not pseudo_orthogonal(l1, l3)


def test_orthogonal_line_swaps_components_and_kind():
    line = PELine(P(0, 0), H(5.0, 3.0))
    ortho = orthogonal_line_at(line, P(7, 7))
    assert pseudo_orthogonal(line, ortho)
    assert ortho.kind is SegmentKind.SECOND
    assert ortho.theta == pytest.approx(line.theta, rel=1e-12)
    assert ortho.anchor == P(7, 7)


def test_segment_axis_equidistance():
    p1, p2 = P(0.0, 0.0), P(5.0, 3.0)
    axis = segment_axis(p1, p2)
    assert axis.contains(midpoint(p1, p2))
    for t in (-2.0, -0.5, 0.0, 1.0, 3.0):
        q = P(axis.anchor.x + t * axis.direction.x, axis.anchor.y + t * axis.direction.y)
        da = square_distance(q, p1)
        db = square_distance(q, p2)
        assert da == pytest.approx(db, rel=1e-9, abs=1e-9)
    with pytest.raises(NullDirection):
        segment_axis(P(0, 0), P(2, 2))


def test_line_intersection():
    l1 = line_through(P(0, 0), P(5, 3))
    l2 = line_through(P(5, 0), P(5, 3))
    meet = line_intersection(l1, l2)
    assert meet.x == pytest.approx(5.0, rel=1e-12)
    assert meet.y == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ParallelRays):
        line_intersection(l1, PELine(P(0, 1), H(5.0, 3.0)))


def test_point_line_distance_first_kind_foot():
    # second-kind line y = 2x: foot of (1, 0) via the slope formulas
    line = PELine.from_slope_intercept(2.0, 0.0)
    D, foot = point_line_distance(P(1.0, 0.0), line)
    m, q = 2.0, 0.0
    x1, y1 = 1.0, 0.0
    x2 = (x1 - m * y1 - m * q) / (1.0 - m * m)
    assert foot.x == pytest.approx(x2, rel=1e-12)
    assert foot.y == pytest.approx(m * x2 + q, rel=1e-12)
    assert D == pytest.approx((y1 - m * x1 - q) ** 2 / (m * m - 1.0), rel=1e-12)


def test_point_line_distance_second_kind_foot():
    # first-kind line y = 0: distances to it are negative square lengths
    line = PELine(P(0, 0), H(1.0, 0.0))
    D, foot = point_line_distance(P(0.0, 1.0), line)
    assert foot == P(0.0, 0.0)
    assert D == -1.0


def test_point_line_distance_vertical_line():
    line = PELine(P(2, 0), H(0.0, 1.0))
    D, foot = point_line_distance(P(5.0, 1.0), line)
    assert foot.x == pytest.approx(2.0, rel=1e-12)
    assert foot.y == pytest.approx(1.0, rel=1e-12)
    assert D == pytest.approx(9.0, rel=1e-12)


@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_foot_extremizes_square_distance(px, py, t):
    # moving away from the foot, D follows D_foot + t^2 qf(u): |D| has a
    # strict local maximum there, up to where the line crosses the point's
    # null cone at |t| = sqrt(|D_foot|)
    for direction in (H(5.0, 3.0), H(3.0, 5.0)):
        line = PELine(P(0.5, -0.25), direction)
        u_sign = 1.0 if direction.square_module() > 0 else -1.0
        D, foot = point_line_distance(P(px, py), line)
        if abs(D) < 1e-9:
            continue  # the point effectively sits on the line
        q = P(foot.x + t * line.direction.x, foot.y + t * line.direction.y)
        Dq = square_distance(P(px, py), q)
        assert Dq == pytest.approx(D + u_sign * t * t, rel=1e-9, abs=1e-9)
        inside = 0.9 * t * math.sqrt(abs(D)) / 2.0
        q2 = P(foot.x + inside * line.direction.x, foot.y + inside * line.direction.y)
        Dq2 = square_distance(P(px, py), q2)
        assert abs(Dq2) <= abs(D) + 1e-9


def test_motion_roundtrip_and_invariance():
    motion = Motion(ExtendedAngle(0.8, KleinIndex.M1), H(2.0, -1.0))
    assert motion.is_proper()
    p, q = P(1.0, 2.0), P(-3.0, 0.5)
    mp, mq = motion.apply(p), motion.apply(q)
    assert square_distance(mp, mq) == pytest.approx(square_distance(p, q), rel=1e-12)
    back = motion.inverted()
    rp = back.apply(mp)
    assert rp.x == pytest.approx(p.x, abs=1e-12)
    assert rp.y == pytest.approx(p.y, abs=1e-12)


def test_improper_motion_flips_square_distance():
    motion = Motion(ExtendedAngle(0.3, KleinIndex.H), H(0.0, 0.0))
    assert not motion.is_proper()
    p, q = P(1.0, 2.0), P(-3.0, 0.5)
    assert square_distance(motion.apply(p), motion.apply(q)) == pytest.approx(
        -square_distance(p, q), rel=1e-12)


def test_motion_identity():
    ident = Motion.identity()
    assert ident.apply(P(3.0, -4.0)) == P(3.0, -4.0)


def test_displacement():
    assert displacement(P(1, 1), P(4, 5)) == H(3.0, 4.0)
