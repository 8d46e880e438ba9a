from __future__ import annotations

import math
import random

import pytest

from pseudoeuclid.errors import ZeroVector
from pseudoeuclid.euclid import euclid_angle, euclid_signed_area
from pseudoeuclid.geometry import PointP
from pseudoeuclid.hypnum import HyperbolicNumber
from pseudoeuclid.selftest import random_triangle

P = PointP
H = HyperbolicNumber


def test_angle_values():
    a = euclid_angle(H(1.0, 0.0), H(0.0, 2.0))
    assert a.cos == pytest.approx(0.0, abs=1e-15)
    assert a.sin == pytest.approx(1.0, rel=1e-15)
    assert a.radians == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_angle_accepts_null_vectors():
    # null for the quadratic form, fine for the Euclidean metric
    a = euclid_angle(H(2.0, 2.0), H(1.0, 0.0))
    assert a.radians == pytest.approx(-math.pi / 4.0, rel=1e-12)


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        euclid_angle(H(0.0, 0.0), H(1.0, 0.0))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_angle_at_extreme_magnitudes(scale):
    # the norms' product underflowed to 0 or the dot and cross overflowed
    a = euclid_angle(H(scale, 0.0), H(scale, scale))
    assert a.radians == pytest.approx(math.pi / 4.0, rel=1e-15)


def test_angle_does_not_depend_on_power_of_two_scales():
    rng = random.Random(23)
    for _ in range(200):
        v1 = H(rng.uniform(-5, 5), rng.uniform(-5, 5))
        v2 = H(rng.uniform(-5, 5), rng.uniform(-5, 5))
        want = euclid_angle(v1, v2)
        for k1, k2 in ((-1000, -600), (600, 1000), (-1000, 1000)):
            got = euclid_angle(H(math.ldexp(v1.x, k1), math.ldexp(v1.y, k1)),
                               H(math.ldexp(v2.x, k2), math.ldexp(v2.y, k2)))
            assert got == want


def test_signed_area_orientation():
    assert euclid_signed_area(P(0, 0), P(5, 0), P(5, 3)) == 7.5
    assert euclid_signed_area(P(0, 0), P(5, 3), P(5, 0)) == -7.5
    assert euclid_signed_area(P(0, 0), P(2, 1), P(4, 2)) == 0.0


def test_signed_area_bit_for_bit_with_triangle_route():
    rng = random.Random(21)
    for _ in range(500):
        tri = random_triangle(rng)
        area = euclid_signed_area(*tri.vertices)
        # not approx: the two code paths must agree exactly
        assert area == tri.signed_area()
        assert area == tri.elements().S


def test_angle_euclidean_rotation_invariance():
    rng = random.Random(22)
    for _ in range(200):
        v1 = H(rng.uniform(-5, 5), rng.uniform(-5, 5))
        v2 = H(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if (v1.x, v1.y) == (0.0, 0.0) or (v2.x, v2.y) == (0.0, 0.0):
            continue
        a = euclid_angle(v1, v2)
        phi = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(phi), math.sin(phi)
        r1 = H(c * v1.x - s * v1.y, s * v1.x + c * v1.y)
        r2 = H(c * v2.x - s * v2.y, s * v2.x + c * v2.y)
        b = euclid_angle(r1, r2)
        assert b.cos == pytest.approx(a.cos, abs=1e-12)
        assert b.sin == pytest.approx(a.sin, abs=1e-12)
