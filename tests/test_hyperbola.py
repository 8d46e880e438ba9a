from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import THETA_MAX, ExtendedAngle, KleinIndex, sinh_e
from pseudoeuclid.errors import (
    InvalidInput,
    NotOnHyperbola,
    NullDirection,
    ParallelRays,
    PseudoEuclidError,
)
from pseudoeuclid.geometry import PointP, square_distance
from pseudoeuclid.hyperbola import ChordClass, EquilateralHyperbola, circumscribed
from pseudoeuclid.selftest import random_triangle
from pseudoeuclid.triangle import Triangle

from builds import counting_builds

P = PointP
H1 = KleinIndex.H
P1 = KleinIndex.P1


@pytest.fixture
def second_kind():
    return EquilateralHyperbola(P(2.5, 1.5), 4.0)


@pytest.fixture
def first_kind():
    return EquilateralHyperbola(P(-1.0, 0.5), -9.0)


def test_validation():
    with pytest.raises(InvalidInput):
        EquilateralHyperbola(P(0, 0), 0.0)
    with pytest.raises(InvalidInput):
        EquilateralHyperbola(P(0, 0), math.inf)


def test_kind_and_arms(second_kind, first_kind):
    assert second_kind.kind == "second"
    assert second_kind.arms == (KleinIndex.P1, KleinIndex.M1)
    assert second_kind.p == 2.0
    assert first_kind.kind == "first"
    assert first_kind.arms == (KleinIndex.H, KleinIndex.MH)
    assert first_kind.p == 3.0


def test_point_at_and_contains(second_kind, first_kind):
    for hyp in (second_kind, first_kind):
        for k in hyp.arms:
            for theta in (-2.0, -0.5, 0.0, 1.5):
                q = hyp.point_at(ExtendedAngle(theta, k))
                assert hyp.contains(q)
                D = square_distance(hyp.center, q)
                assert D == pytest.approx(hyp.P, rel=1e-12)
    assert not second_kind.contains(P(0.0, 0.5))
    with pytest.raises(InvalidInput):
        second_kind.point_at(ExtendedAngle(0.3, H1))


def test_param_roundtrip(second_kind, first_kind):
    for hyp in (second_kind, first_kind):
        for k in hyp.arms:
            a = ExtendedAngle(0.8, k)
            back = hyp.param_of(hyp.point_at(a))
            assert back.k is a.k
            assert back.theta == pytest.approx(a.theta, rel=1e-10)
    with pytest.raises(NotOnHyperbola):
        second_kind.param_of(P(100.0, 0.0))


def test_sample_arm(second_kind):
    pts = second_kind.sample_arm(P1, -1.0, 1.0, 5)
    assert len(pts) == 5
    assert all(second_kind.contains(q) for q in pts)
    assert pts[2] == second_kind.point_at(ExtendedAngle(0.0, P1))
    single = second_kind.sample_arm(P1, 0.7, 0.7, 1)
    assert single == [second_kind.point_at(ExtendedAngle(0.7, P1))]
    with pytest.raises(InvalidInput):
        second_kind.sample_arm(P1, 0.0, 1.0, 0)
    with pytest.raises(InvalidInput):
        second_kind.sample_arm(H1, 0.0, 1.0, 3)
    with pytest.raises(InvalidInput, match="parameter range must be finite"):
        second_kind.sample_arm(P1, 0.0, math.inf, 3)
    # both bounds are finite but hi - lo is not: the refusal names the range,
    # not the nan or overflowing theta that the samples would have made
    for n in (3, 1):
        with pytest.raises(InvalidInput) as info:
            second_kind.sample_arm(P1, -1e308, 1e308, n)
        assert str(info.value) == "parameter range must be finite"
    assert second_kind.sample_arm(P1, -1.0, 1.0, 3) == [
        second_kind.point_at(ExtendedAngle(t, P1)) for t in (-1.0, 0.0, 1.0)]


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-THETA_MAX, THETA_MAX), hi=st.floats(-THETA_MAX, THETA_MAX),
       n=st.integers(1, 40), k=st.sampled_from(list(KleinIndex)))
@example(lo=-3.0, hi=-1.2, n=4, k=P1)
@example(lo=-0.0, hi=1.0, n=2, k=H1)
def test_sample_arm_starts_at_lo_and_ends_at_hi(lo, hi, n, k):
    hyp = EquilateralHyperbola(PointP(2.5, 1.5), 4.0 if k.kappa > 0 else -4.0)

    def at(theta):
        p = hyp.point_at(ExtendedAngle(theta, k))
        return p.x.hex(), p.y.hex()

    got = [(p.x.hex(), p.y.hex()) for p in hyp.sample_arm(k, lo, hi, n)]
    assert len(got) == n and got[0] == at(lo)
    if n > 1:
        step = (hi - lo) / (n - 1)
        assert got[-1] == at(hi)
        assert got[1:-1] == [at(lo + i * step) for i in range(1, n - 1)]


def test_chord_classification(second_kind, first_kind):
    for hyp in (second_kind, first_kind):
        k1, k2 = hyp.arms
        a = hyp.point_at(ExtendedAngle(0.4, k1))
        b = hyp.point_at(ExtendedAngle(-0.9, k1))
        c = hyp.point_at(ExtendedAngle(0.2, k2))
        assert hyp.chord(a, b).chord_class is ChordClass.EXTERNAL
        assert hyp.chord(a, c).chord_class is ChordClass.INTERNAL
        with pytest.raises(NullDirection, match="chord endpoints coincide"):
            hyp.chord(a, a)
    with pytest.raises(NotOnHyperbola):
        second_kind.chord(P(0, 0), P(1, 1))


def test_internal_chord_square_length_formula(second_kind, first_kind):
    rng = random.Random(5)
    for hyp in (second_kind, first_kind):
        k1, k2 = hyp.arms
        for _ in range(200):
            t1, t2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
            a = hyp.point_at(ExtendedAngle(t1, k1))
            b = hyp.point_at(ExtendedAngle(t2, k2))
            chord = hyp.chord(a, b)
            expected = 4.0 * hyp.p ** 2 * math.cosh((t1 - t2) / 2.0) ** 2
            assert abs(chord.D) == pytest.approx(expected, rel=1e-9)
            # internal chords are never shorter than the diameter
            assert abs(chord.D) >= hyp.diameter_square_length() * (1.0 - 1e-12)


def test_external_chord_square_length(second_kind):
    rng = random.Random(6)
    for _ in range(100):
        t1, t2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        if t1 == t2:
            continue
        a = second_kind.point_at(ExtendedAngle(t1, P1))
        b = second_kind.point_at(ExtendedAngle(t2, P1))
        chord = second_kind.chord(a, b)
        expected = -4.0 * second_kind.p ** 2 * math.sinh((t1 - t2) / 2.0) ** 2
        assert chord.D == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_diameter(second_kind):
    assert second_kind.diameter_square_length() == 16.0
    a = second_kind.point_at(ExtendedAngle(1.3, P1))
    b = second_kind.antipode(a)
    assert second_kind.contains(b)
    chord = second_kind.chord(a, b)
    assert chord.chord_class is ChordClass.INTERNAL
    assert abs(chord.D) == pytest.approx(16.0, rel=1e-9)


def test_midpoint_orthogonality(second_kind, first_kind):
    rng = random.Random(11)
    for hyp in (second_kind, first_kind):
        k1, k2 = hyp.arms
        for _ in range(100):
            t1, t2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
            if abs(t1 - t2) < 1e-6:
                continue
            for kb in (k1, k2):
                a = hyp.point_at(ExtendedAngle(t1, k1))
                b = hyp.point_at(ExtendedAngle(t2, kb))
                assert hyp.midpoint_orthogonality_residual(a, b) <= 1e-9


def test_midpoint_orthogonality_rejects_diameter(second_kind):
    a = second_kind.point_at(ExtendedAngle(0.9, P1))
    with pytest.raises(NullDirection):
        second_kind.midpoint_orthogonality_residual(a, second_kind.antipode(a))
    with pytest.raises(NullDirection, match="chord endpoints coincide"):
        second_kind.midpoint_orthogonality_residual(a, a)


def test_tangent_touches_once(second_kind, first_kind):
    for hyp in (second_kind, first_kind):
        for k in hyp.arms:
            at = hyp.point_at(ExtendedAngle(-0.7, k))
            line = hyp.tangent_at(at)
            assert line.contains(at)
            sign = 1.0 if hyp.P > 0 else -1.0
            for t in (-2.0, -0.5, 0.5, 2.0):
                q = P(at.x + t * line.direction.x, at.y + t * line.direction.y)
                D = square_distance(hyp.center, q)
                assert D == pytest.approx(hyp.P - sign * t * t, rel=1e-9)
                assert not hyp.contains(q)


def test_inscribed_angle_constant_on_arc(second_kind, first_kind):
    rng = random.Random(12)
    for hyp, expect_k in ((second_kind, KleinIndex.P1), (first_kind, KleinIndex.M1)):
        for arm in hyp.arms:
            alpha, beta = -1.4, 1.1
            a = hyp.point_at(ExtendedAngle(alpha, arm))
            b = hyp.point_at(ExtendedAngle(beta, arm))
            seen = []
            for _ in range(20):
                phi = rng.uniform(alpha + 1e-3, beta - 1e-3)
                v = hyp.point_at(ExtendedAngle(phi, arm))
                ins = hyp.inscribed_angle(v, a, b)
                assert ins.k is expect_k
                assert ins.theta == pytest.approx((beta - alpha) / 2.0, rel=1e-9)
                seen.append(ins.theta)
            assert max(seen) - min(seen) <= 1e-9


def test_central_angle_doubles_inscribed(second_kind, first_kind):
    for hyp in (second_kind, first_kind):
        arm = hyp.arms[0]
        a = hyp.point_at(ExtendedAngle(0.9, arm))
        b = hyp.point_at(ExtendedAngle(-0.7, arm))
        v = hyp.point_at(ExtendedAngle(0.1, arm))
        ins = hyp.inscribed_angle(v, a, b)
        cen = hyp.central_angle(a, b)
        assert cen.k is ins.k
        assert cen.theta == pytest.approx(2.0 * ins.theta, rel=1e-9)


def test_inscribed_angle_edge_cases(second_kind):
    a = second_kind.point_at(ExtendedAngle(1.0, P1))
    b = second_kind.point_at(ExtendedAngle(-1.0, P1))
    outside = second_kind.point_at(ExtendedAngle(2.0, P1))
    other_arm = second_kind.point_at(ExtendedAngle(0.0, KleinIndex.M1))
    with pytest.raises(InvalidInput):
        second_kind.inscribed_angle(a, b, b)
    with pytest.raises(InvalidInput):
        second_kind.inscribed_angle(outside, a, b)
    with pytest.raises(InvalidInput):
        second_kind.inscribed_angle(other_arm, a, b)
    with pytest.raises(NullDirection):
        second_kind.inscribed_angle(a, a, b)


def test_zero_chord_angles_validate_their_points(second_kind):
    off = P(100.0, 7.0)
    with pytest.raises(NotOnHyperbola):
        second_kind.central_angle(off, off)
    with pytest.raises(NotOnHyperbola):
        second_kind.inscribed_angle(off, off, off)


def test_zero_chord_central_angle_carries_the_chord_index(second_kind, first_kind):
    # nearby chords on a first-kind hyperbola all have index -1
    for hyp, k in ((second_kind, P1), (first_kind, KleinIndex.M1)):
        a = hyp.point_at(ExtendedAngle(0.3, hyp.arms[0]))
        assert hyp.central_angle(a, a).k is k
        assert hyp.central_angle(a, a).theta == 0.0


def test_inscribed_and_central_worked(second_kind):
    a = second_kind.point_at(ExtendedAngle(1.0, P1))
    b = second_kind.point_at(ExtendedAngle(-1.0, P1))
    v = second_kind.point_at(ExtendedAngle(0.0, P1))
    ins = second_kind.inscribed_angle(v, a, b)
    assert ins.k is P1 and ins.theta == pytest.approx(-1.0, rel=1e-12)
    cen = second_kind.central_angle(a, b)
    assert cen.k is P1 and cen.theta == pytest.approx(-2.0, rel=1e-12)


def test_thales(second_kind, first_kind):
    rng = random.Random(13)
    for hyp in (second_kind, first_kind):
        for _ in range(100):
            ka = rng.choice(hyp.arms)
            kv = rng.choice(hyp.arms)
            a = hyp.point_at(ExtendedAngle(rng.uniform(-2, 2), ka))
            v = hyp.point_at(ExtendedAngle(rng.uniform(-2, 2), kv))
            if v in (a, hyp.antipode(a)):
                continue
            assert hyp.thales_residual(v, a) <= 1e-9
    a = second_kind.point_at(ExtendedAngle(0.5, P1))
    with pytest.raises(NullDirection):
        second_kind.thales_residual(a, a)


def test_circumscribed_fixture():
    hyp = circumscribed(Triangle(P(0, 0), P(5, 0), P(5, 3)))
    assert hyp.center == P(2.5, 1.5)
    assert hyp.P == 4.0
    assert hyp.p == 2.0
    assert hyp.kind == "second"
    for v in (P(0, 0), P(5, 0), P(5, 3)):
        assert square_distance(hyp.center, v) == pytest.approx(4.0, rel=1e-12)


# a triangle whose circumscribed hyperbola has P = -8.9e615 (by mpmath), beyond a double
OVERFLOWING_P = (P(1.7e308, -1e308), P(-4.975375852650895e302, -1456046219969714.5),
                 P(-348808.3656137566, 1.75297339967585))


def test_circumscribed_refuses_a_square_radius_that_does_not_fit_a_double():
    with pytest.raises(InvalidInput, match="^the square radius P does not fit a double$"):
        circumscribed(Triangle(*OVERFLOWING_P))


@pytest.mark.parametrize("t1, t2, t3", [(3.0, 3.3, 2.7), (3.0, 2.8, 3.2), (-3.0, -3.3, -2.6)])
def test_circumscribed_square_radius_whose_squares_overflow(t1, t2, t3):
    # three points of the hyperbola with P = 4e306 around a center 2e154 from
    # p1: each square of x - xc, y - yc overflows, their difference fits
    r = 2e153
    cx, cy = -r * math.cosh(t1), -r * math.sinh(t1)
    tri = Triangle(P(0.0, 0.0), *(P(cx + r * math.cosh(t), cy + r * math.sinh(t)) for t in (t2, t3)))
    hyp = circumscribed(tri)
    dx, dy = tri.p1.x - hyp.center.x, tri.p1.y - hyp.center.y
    assert dx * dx == dy * dy == math.inf
    # against the exact value on the float center, within the rounding of x^2 - y^2
    fx, fy = Fraction(dx), Fraction(dy)
    assert abs(Fraction(hyp.P) - (fx * fx - fy * fy)) <= 8 * Fraction(2) ** -53 * (fx * fx + fy * fy)
    assert hyp.P == pytest.approx(r * r, rel=1e-10)


def overflowing_squares_hyperbola():
    # the P = 4e306 hyperbola of the test above, with t = (3.0, 3.3, 2.7)
    r = 2e153
    cx, cy = -r * math.cosh(3.0), -r * math.sinh(3.0)
    tri = Triangle(P(0.0, 0.0), *(P(cx + r * math.cosh(t), cy + r * math.sinh(t)) for t in (3.3, 2.7)))
    return circumscribed(tri), tri


@pytest.mark.parametrize("hyp, point", [
    (EquilateralHyperbola(P(0.0, 0.0), 1e300), P(1e200, 0.0)),     # D = 1e400 overflows
    (EquilateralHyperbola(P(-1e308, 0.0), 1e300), P(1e308, 0.0)),  # dx = 2e308 overflows
    (overflowing_squares_hyperbola()[0], P(1e300, 5.0)),
    (overflowing_squares_hyperbola()[0], P(-1e155, 0.0)),
])
def test_contains_refuses_points_whose_squares_overflow(hyp, point):
    # the bound on the residual overflowed to inf and every point passed
    assert not hyp.contains(point)
    with pytest.raises(NotOnHyperbola):
        hyp.param_of(point)


def test_contains_accepts_points_whose_squares_overflow():
    hyp, tri = overflowing_squares_hyperbola()
    vertices = (hyp.center + P(hyp.p, 0.0), hyp.center - P(hyp.p, 0.0))
    assert all(hyp.contains(v) for v in tri.vertices + vertices)
    big = EquilateralHyperbola(P(0.0, 0.0), 1e300)
    assert big.contains(P(1e150, 0.0))
    assert not big.contains(P(1e-300, 0.0))


@settings(max_examples=300, deadline=None)
@given(cx=st.floats(-1e3, 1e3), cy=st.floats(-1e3, 1e3),
       radius=st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
       arm=st.integers(0, 1),
       theta=st.one_of(st.floats(-300.0, 300.0), st.floats(200.0, 300.0), st.floats(-300.0, -200.0)),
       stretch=st.sampled_from([1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.5, 0.5]),
       off=st.none() | st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(0, 40)),
       k=st.one_of(st.integers(-500, 500), st.integers(250, 500)))
@example(cx=1.0, cy=1.0, radius=1e-3, arm=0, theta=0.0, stretch=1.0, off=(1.0, 0.0, 20), k=500)
def test_contains_gives_one_verdict_at_every_scale(cx, cy, radius, arm, theta, stretch, off, k):
    # a point of the locus, pushed off it along its radius by the stretch or
    # anywhere at (a, b) 2^e p from the center, and the same figure scaled by
    # 2^k; scaling is exact while every value stays a normal double, whether
    # or not a square overflows
    hyp = EquilateralHyperbola(P(cx, cy), radius)
    if off is None:
        on = hyp.point_at(ExtendedAngle(theta, hyp.arms[arm]))
        q = P(cx + (on.x - cx) * stretch, cy + (on.y - cy) * stretch)
    else:
        a, b, e = off
        q = P(cx + math.ldexp(a * hyp.p, e), cy + math.ldexp(b * hyp.p, e))
    values = (cx, cy, q.x, q.y, q.x - cx, q.y - cy)
    assume(all(v == 0.0 or 2.0 ** -1000 < abs(math.ldexp(v, k)) < 2.0 ** 1000 for v in values))
    assume(2.0 ** -1000 < abs(math.ldexp(radius, 2 * k)) < 2.0 ** 1000)
    scaled = EquilateralHyperbola(P(math.ldexp(cx, k), math.ldexp(cy, k)), math.ldexp(radius, 2 * k))
    assert scaled.contains(P(math.ldexp(q.x, k), math.ldexp(q.y, k))) == hyp.contains(q)


def test_residuals_give_one_value_at_every_scale():
    # the figure scaled by 2^k: sqrt(P) = 2^k is exact, so every point scales
    # exactly, and each residual is a ratio of homogeneous terms
    def residuals(k):
        hyp = EquilateralHyperbola(P(0, 0), 2.0 ** (2 * k))
        a, b, far = (hyp.point_at(ExtendedAngle(t, P1)) for t in (0.3, 0.3 + 1e-6, 4.0))
        return hyp.midpoint_orthogonality_residual(a, b), hyp.thales_residual(far, a)

    unit = residuals(0)
    assert [k for k in range(-537, 512) if residuals(k) != unit] == []


# a triangle whose exact P is nonzero and below half the least subnormal, 2^-1075
ROUNDING_TO_ZERO_P = (P(-1.015216675349351e-161, 5.970810434352393e-162),
                      P(-6.021005074866499e-164, -5.404469890983704e-162),
                      P(3.222290575998227e-163, -2.1894739484764077e-162))


def test_circumscribed_refuses_a_square_radius_that_rounds_to_zero():
    # the exact P of the double vertices, from the closed form relative to p1
    (x1, y1), (x2, y2), (x3, y3) = ((Fraction(p.x), Fraction(p.y)) for p in ROUNDING_TO_ZERO_P)
    ex, ey, fx, fy = x2 - x1, y2 - y1, x3 - x1, y3 - y1
    De, Df, cross = ex * ex - ey * ey, fx * fx - fy * fy, ex * fy - ey * fx
    a, b = (De * fy - ey * Df) / (2 * cross), (fx * De - ex * Df) / (2 * cross)
    assert 0 < abs(a * a - b * b) < Fraction(2) ** -1075
    with pytest.raises(InvalidInput, match="^the square radius P does not fit a double$"):
        circumscribed(Triangle(*ROUNDING_TO_ZERO_P))


def test_circumscribed_names_a_center_that_does_not_fit_a_double():
    # a stand-in for a triangle whose side p1p2 lies on a null line, which
    # Triangle refuses: the float P is exactly 0, and the center p1 + 2^1022
    # (1, 1) lies beyond the largest double
    p1 = P(-2.0 ** 1020, 1.5 * 2.0 ** 1023)
    tri = SimpleNamespace(p1=p1, p2=p1 + P(2.0 ** 1019, 2.0 ** 1019), p3=p1 + P(2.0 ** 1023, 0.0))
    with pytest.raises(InvalidInput, match=r"^the center p1 \+ 2\*\*1024 \* \(0\.25, 0\.25\) "
                                           "does not fit a double$"):
        circumscribed(tri)


@pytest.mark.parametrize("p2, p3", [((1.0, 0.0), (2.0, 0.0)), ((1.0, 2.0), (3.0, 6.0))])
def test_circumscribed_refuses_collinear_vertices(p2, p3):
    # Triangle refuses collinear vertices first: only a stand-in reaches the
    # _parallel test circumscribed keeps on its rescaled cross
    tri = SimpleNamespace(p1=P(0.0, 0.0), p2=P(*p2), p3=P(*p3))
    with pytest.raises(ParallelRays, match="^lines are parallel$"):
        circumscribed(tri)


def test_circumscribed_builds_its_center_and_no_other_number():
    tri = Triangle(P(0, 0), P(5, 0), P(5, 3))
    # a point is the hyperbolic number with its coordinates: this counts every number
    with counting_builds(PointP) as built:
        hyp = circumscribed(tri)
    assert len(built) == 1 and built[0] is hyp.center


def _moved_triangle(seed: int, k: int, shift: tuple[float, float]) -> Triangle | None:
    """random_triangle scaled by 2^k and moved by shift, or None where a vertex
    leaves the doubles or the constructor refuses."""
    vertices = random_triangle(random.Random(seed)).vertices
    try:
        return Triangle(*(P(math.ldexp(p.x, k) + shift[0], math.ldexp(p.y, k) + shift[1])
                          for p in vertices))
    except (OverflowError, PseudoEuclidError):
        return None


EDGES = st.sampled_from((0.0, 2.0 ** 1023, -(2.0 ** 1023), sys.float_info.max, -sys.float_info.max))
SEEDS = st.integers(0, 2 ** 32 - 1)
# at every scale, and out at the largest double, where only a triangle about as
# large as its ulp 2^971 constructs (and then P does not fit)
MOVED_TRIANGLES = st.one_of(
    st.builds(_moved_triangle, SEEDS, st.integers(-1000, 1000), st.just((0.0, 0.0))),
    st.builds(_moved_triangle, SEEDS, st.integers(968, 1019), st.tuples(EDGES, EDGES)))
# the stand-in of test_circumscribed_names_a_center_that_does_not_fit_a_double:
# P is exactly 0, and the center p1 + 2^1022 (1, 1) lies beyond the largest double
_P1_NEAR_EDGE = P(-2.0 ** 1020, 1.5 * 2.0 ** 1023)
BEYOND = SimpleNamespace(p1=_P1_NEAR_EDGE, p2=_P1_NEAR_EDGE + P(2.0 ** 1019, 2.0 ** 1019),
                         p3=_P1_NEAR_EDGE + P(2.0 ** 1023, 0.0))


@settings(max_examples=300, deadline=None)
@given(MOVED_TRIANGLES)
@example(BEYOND)
def test_circumscribed_builds_only_centers_the_check_accepts(tri):
    # circumscribed builds its center without __post_init__: every number it
    # builds, at every scale and out to the largest double, passes the check
    # it skipped
    if tri is None:
        return
    with counting_builds(PointP) as built:
        try:
            circumscribed(tri)
        except PseudoEuclidError:
            pass
    for z in built:
        assert type(z.x) is float and type(z.y) is float
        z.__post_init__()


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-480, 480))
def test_circumscribed_scales_by_powers_of_two_bit_for_bit(seed, k):
    # a triangle moved by up to 1e6 and then scaled by 2^k, which is exact
    rng = random.Random(seed)
    ox, oy = (10.0 ** rng.uniform(-3.0, 6.0) * rng.choice((-1.0, 1.0)) for _ in range(2))
    tri = Triangle(*(P(p.x + ox, p.y + oy) for p in random_triangle(rng).vertices))
    try:
        scaled = Triangle(*(P(math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in tri.vertices))
    except PseudoEuclidError:
        return
    hyp, big = circumscribed(tri), circumscribed(scaled)
    want = (math.ldexp(hyp.center.x, k), math.ldexp(hyp.center.y, k), math.ldexp(hyp.P, 2 * k))
    assert [v.hex() for v in (big.center.x, big.center.y, big.P)] == [v.hex() for v in want]


def test_circumscribed_formulas():
    rng = random.Random(14)
    for _ in range(100):
        tri = random_triangle(rng)
        el = tri.elements()
        hyp = circumscribed(tri)
        d_prod = el.d[0] * el.d[1] * el.d[2]
        assert hyp.p == pytest.approx(d_prod / (4.0 * el.S), rel=1e-8)
        D_prod = el.D[0] * el.D[1] * el.D[2]
        assert hyp.P == pytest.approx(-D_prod / (16.0 * el.S ** 2), rel=1e-8)
        # the circumscribed radius also comes from each side's sine ratio
        for i in range(3):
            assert hyp.p == pytest.approx(
                el.d[i] / (2.0 * sinh_e(el.angles[i])), rel=1e-8)
