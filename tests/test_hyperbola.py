from __future__ import annotations

import math
import random

import pytest

from pseudoeuclid.angle import ExtendedAngle, KleinIndex, cosh_e, sinh_e
from pseudoeuclid.errors import (
    InvalidInput,
    NotOnHyperbola,
    NullDirection,
)
from pseudoeuclid.geometry import PointP, square_distance
from pseudoeuclid.hyperbola import ChordClass, EquilateralHyperbola, circumscribed
from pseudoeuclid.selftest import random_triangle
from pseudoeuclid.triangle import Triangle

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


def test_chord_classification(second_kind, first_kind):
    for hyp in (second_kind, first_kind):
        k1, k2 = hyp.arms
        a = hyp.point_at(ExtendedAngle(0.4, k1))
        b = hyp.point_at(ExtendedAngle(-0.9, k1))
        c = hyp.point_at(ExtendedAngle(0.2, k2))
        assert hyp.chord(a, b).chord_class is ChordClass.EXTERNAL
        assert hyp.chord(a, c).chord_class is ChordClass.INTERNAL
        with pytest.raises(NullDirection):
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
    assert second_kind.inscribed_angle(a, b, b) == ExtendedAngle(0.0, P1)
    with pytest.raises(InvalidInput):
        second_kind.inscribed_angle(outside, a, b)
    with pytest.raises(InvalidInput):
        second_kind.inscribed_angle(other_arm, a, b)
    with pytest.raises(NullDirection):
        second_kind.inscribed_angle(a, a, b)


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
