from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import ExtendedAngle, KleinIndex
from pseudoeuclid.errors import InvalidInput, NullDirection, ParallelRays
from pseudoeuclid.geometry import (
    INCIDENCE_TOL,
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
from pseudoeuclid.hypnum import HyperbolicNumber, euler

from builds import counting_builds

H = HyperbolicNumber
P = PointP


def test_point_validation():
    with pytest.raises(ValueError):
        P(math.nan, 0.0)


def test_points_carry_the_ring_operations():
    # a point is the hyperbolic number with its coordinates
    assert P(5, 3) - P(1, 1) == displacement(P(1, 1), P(5, 3))
    assert P(5, 3).square_module() == 16.0
    assert P(5, 3) == H(5, 3)


def test_square_distance_and_kinds():
    assert square_distance(P(0, 0), P(5, 3)) == 16.0
    assert segment_kind(P(0, 0), P(5, 3)) is SegmentKind.FIRST
    assert segment_kind(P(0, 0), P(3, 5)) is SegmentKind.SECOND
    assert segment_kind(P(1, 1), P(4, 4)) is SegmentKind.NULL


def test_square_distance_of_a_null_segment_whose_sum_overflows():
    # dx = dy = 1.1e308: dx + dy overflows and dx - dy is 0, so D is the exact 0
    assert square_distance(P(-1e308, -1e308), P(1e307, 1e307)) == 0.0


def test_midpoint():
    assert midpoint(P(0, 0), P(4, 6)) == P(2, 3)


def test_midpoint_near_the_largest_double():
    # p.x + q.x overflows; the axis, and so circumscribed, use this midpoint
    assert midpoint(P(1.5e308, 0), P(1.5e308, 1)) == P(1.5e308, 0.5)
    assert midpoint(P(-1.5e308, 1e308), P(-1.7e308, 1e308)) == P(-1.6e308, 1e308)
    assert segment_axis(P(1.5e308, 0), P(1.5e308, 1)).anchor == P(1.5e308, 0.5)


@pytest.mark.parametrize("p, q, kind", [
    (P(0, -1.5e308), P(0, 1.5e308), SegmentKind.SECOND),
    (P(-1.5e308, 0), P(1.5e308, 1), SegmentKind.FIRST),
    (P(1.5e308, 1.5e308), P(-1.5e308, -1.5e308), SegmentKind.NULL),
    (P(-1.7e308, -1e308), P(1.7e308, 1.5e308), SegmentKind.FIRST),
])
def test_segment_kind_where_the_difference_overflows(p, q, kind):
    # q - p overflows to inf, and inf is null against any finite component
    assert segment_kind(p, q) is kind
    # D is the exact (qx - px)^2 - (qy - py)^2 rounded, inf where it does not fit;
    # on the overflowed difference it was inf - inf or inf * 0, a NaN
    dx, dy = Fraction(q.x) - Fraction(p.x), Fraction(q.y) - Fraction(p.y)
    exact = dx * dx - dy * dy
    try:
        want = float(exact)
    except OverflowError:
        want = math.inf if exact > 0 else -math.inf
    assert square_distance(p, q) == want


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


@pytest.mark.parametrize("make, direction", [
    (lambda: line_through(P(1, 1), P(3, 3)), "(2.0, 2.0)"),
    (lambda: segment_axis(P(0, 0), P(2, -2)), "(-2.0, 2.0)"),
    (lambda: PELine.from_slope_intercept(-1.0, 3.0), "(1.0, -1.0)"),
], ids=["line_through", "segment_axis", "from_slope_intercept"])
def test_line_constructors_name_the_null_direction(make, direction):
    # the one null test, in PELine, names the direction it refuses
    with pytest.raises(NullDirection) as err:
        make()
    assert str(err.value) == f"{direction} is a null direction; a line needs a non-null one"


def test_second_kind_line_theta_measured_from_y_axis():
    line = PELine(P(0, 0), H(3.0, 5.0))
    assert line.kind is SegmentKind.SECOND
    assert line.theta == pytest.approx(math.atanh(0.6), rel=1e-12)


def test_containment():
    line = line_through(P(1, 1), P(6, 4))
    assert line.contains(P(11, 7))
    assert line.contains(P(-4, -2))
    assert not line.contains(P(11, 7.001))


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e6])
def test_containment_is_scale_free(s):
    # the line through (0, 0) and (2s, s) passes (s, 0.5s); (s, 0.4s) is 20%
    # off it at every scale, and a tolerance with an absolute term let it in
    # at small ones
    line = line_through(P(0.0, 0.0), P(2.0 * s, s))
    assert line.contains(P(s, 0.5 * s))
    assert not line.contains(P(s, 0.4 * s))


def test_containment_near_the_largest_double():
    # |p| + |anchor| overflows: an infinite scale let every point in
    line = PELine(P(1.5e308, 0.0), H(1.0, 0.0))
    assert not line.contains(P(1.5e308, 1e306))
    assert line.contains(P(1.7e308, 0.0))
    # p - anchor overflows: forming it as a number raised ValueError
    line = PELine(P(-1e308, 0.0), H(1.0, 0.0))
    assert line.contains(P(1e308, 0.0))
    assert not line.contains(P(1e308, 1e306))
    # all four coordinates are large: on halves their sum, 2.25e308, still overflows
    line = PELine(P(-1.5e308, -1.5e308), H(2.0, 1.0))
    assert line.contains(P(1.5e308, 0.0))
    assert not line.contains(P(1.5e308, 1e306))


def test_residual_near_the_largest_double():
    # p - anchor overflows: forming it as a number raised ValueError.  On the
    # quarters it fits, and the cross comes back multiplied by 4
    line = PELine(P(-1e308, 0.0), H(1.0, 0.0))
    assert line.residual(P(1e308, 0.0)) == 0.0
    assert line.residual(P(1e308, 1e308)) == -1e308
    # a residual whose true value does not fit a double is inf
    assert PELine(P(-1e308, 0.0), H(0.0, 1.0)).residual(P(1e308, 0.0)) == math.inf


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-1e300, 1e300)] * 4), st.floats(-2.0, 2.0))
def test_residual_in_range_is_the_cross_of_the_displacement(coords, slope):
    # where |p| + |anchor| fits, residual is the cross of p - anchor with the
    # direction, bit for bit (float.hex tells the zeros apart)
    ax, ay, px, py = coords
    assume(abs(px) + abs(py) + abs(ax) + abs(ay) < math.inf and abs(slope) != 1.0)
    line, p = PELine(P(ax, ay), H(1.0, slope)), P(px, py)
    d, e = displacement(line.anchor, p), line.direction
    assert line.residual(p).hex() == (d.x * e.y - d.y * e.x).hex()


@pytest.mark.parametrize("k", [-600, -1, 0, 1, 600, 1023])
def test_containment_verdict_is_the_same_at_every_power_of_two(k):
    # scaling the point and the line by 2^k changes neither verdict, also where
    # the sum of the coordinates overflows (k = 1023: 2.25 * 2^1023)
    s = math.ldexp(1.0, k)
    line = PELine(P(-0.75 * s, -0.75 * s), H(2.0, 1.0))
    assert line.contains(P(0.75 * s, 0.0))
    assert not line.contains(P(0.75 * s, 0.002 * s))


def test_vertical_line_has_no_slope_form():
    line = PELine(P(2, 0), H(0.0, 1.0))
    assert line.contains(P(2, 57.0))
    with pytest.raises(InvalidInput):
        line.slope_intercept()


@pytest.mark.parametrize("anchor, direction, message", [
    (P(2, 0), H(0.0, 1.0), "vertical line has no slope-intercept form"),
    (P(2, 3), H(1e-310, 1), "the slope and intercept (inf, -inf) do not fit a double"),
    (P(2, 3), H(5e-324, 1), "the slope and intercept (inf, -inf) do not fit a double"),
    (P(1e300, 0), H(1, 1e10), "the slope and intercept (10000000000.0, -inf) do not fit a double"),
], ids=["vertical", "slope-overflows", "slope-of-the-least-subnormal", "intercept-overflows"])
def test_slope_intercept_refuses_what_does_not_fit_a_double(anchor, direction, message):
    with pytest.raises(InvalidInput) as info:
        PELine(anchor, direction).slope_intercept()
    assert str(info.value) == message


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


def OLD_PSEUDO_ORTHOGONAL(l1, l2):
    # the product form pseudo_orthogonal had before it measured through _normalized_dot
    e1, e2 = l1.direction, l2.direction
    n = math.hypot(e1.x, e1.y) * math.hypot(e2.x, e2.y)
    return abs(e1.x * e2.x - e1.y * e2.y) <= INCIDENCE_TOL * n


def test_pseudo_orthogonal_keeps_the_product_form_verdicts_near_the_tolerance():
    # the second direction is the first one swapped, one component off by a
    # relative e: its normalized product is about |e x y| / (x^2 + y^2), which
    # straddles INCIDENCE_TOL for |e| from 2e-9 up, and meets it at |e| = edge
    rng = random.Random(34)
    perturbations = (0.0, 1e-10, -1e-10, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-8, -1e-8)
    verdicts, kinds = set(), set()
    for _ in range(300):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x, y = math.cos(phi), math.sin(phi)
        if abs(abs(x) - abs(y)) < 0.05:
            continue
        edge = INCIDENCE_TOL * (x * x + y * y) / abs(x * y)
        for k in (-60, -8, 0, 8, 60):
            a1 = P(math.ldexp(rng.uniform(-1, 1), k), math.ldexp(rng.uniform(-1, 1), k))
            a2 = P(math.ldexp(rng.uniform(-1, 1), k), math.ldexp(rng.uniform(-1, 1), k))
            l1 = PELine(a1, H(x, y))
            kinds.add(l1.kind)
            for e in (*perturbations, edge, -edge):
                l2 = PELine(a2, H(y * (1.0 + e), x))
                verdict = pseudo_orthogonal(l1, l2)
                assert verdict == OLD_PSEUDO_ORTHOGONAL(l1, l2), (x, y, k, e)
                verdicts.add(verdict)
    assert kinds == {SegmentKind.FIRST, SegmentKind.SECOND}
    assert verdicts == {True, False}


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
    # nearly parallel lines far apart meet beyond the largest double
    with pytest.raises(InvalidInput, match="does not fit a double"):
        line_intersection(PELine(P(0, 0), H(1.0, 0.1)), PELine(P(0, 1e305), H(1.0, 0.10001)))


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


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0), st.sampled_from(list(KleinIndex)),
       st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=-1e6, max_value=1e6))
def test_inverted_builds_only_the_offset_it_keeps(theta, k, ox, oy):
    motion = Motion(ExtendedAngle(theta, k), H(ox, oy))
    back = ExtendedAngle(-theta, k)
    expected = -(motion.offset * euler(back))
    with counting_builds(HyperbolicNumber) as built:
        inv = motion.inverted()
    assert len(built) == 1 and built[0] is inv.offset
    # the offset the parent formed as a product and its negation, bit for bit
    assert inv.rotation == back
    assert (inv.offset.x.hex(), inv.offset.y.hex()) == (expected.x.hex(), expected.y.hex())


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
