"""Angles, square sides and areas checked against a high-precision mpmath oracle.

The oracle takes the exact double inputs, forms the invariant pair in
extended precision and recovers the angle with atanh on whichever ratio is
below one, the textbook route the library does not use.  The index comes
from the sector the pair lies in.  Square sides and areas are formed exactly
from the vertex doubles; their bounds are c * u * cond, computed per input,
since a fixed bound would flag the cancellation the data themselves carry.
"""
from __future__ import annotations

import math
import random

import mpmath
import pytest

from pseudoeuclid.angle import KleinIndex, from_point
from pseudoeuclid.errors import NullDirection
from pseudoeuclid.geometry import PointP
from pseudoeuclid.selftest import random_triangle
from pseudoeuclid.tol import is_null_xy
from pseudoeuclid.triangle import Triangle

ALL_KS = (KleinIndex.P1, KleinIndex.H, KleinIndex.M1, KleinIndex.MH)
PREC = 200  # bits; far beyond what cancellation in the pair can cost
U = 2.0 ** -53  # unit roundoff


def oracle_angle(c, s) -> tuple[mpmath.mpf, KleinIndex]:
    """(theta, k) of the non-null direction (c, s), given as mpf values."""
    if abs(s) < abs(c):
        return mpmath.atanh(s / c), KleinIndex.P1 if c > 0 else KleinIndex.M1
    return mpmath.atanh(c / s), KleinIndex.H if s > 0 else KleinIndex.MH


def test_from_point_matches_oracle():
    # theta log-uniform over 1e-10..300 with either sign, scale over 1e-6..1e6.
    # Beyond |theta| ~ 14 every double direction is null under the default
    # tolerance, so those draws check the refusal instead.
    rng = random.Random(11)
    worst = 0.0
    checked = 0
    with mpmath.workprec(PREC):
        for _ in range(4000):
            theta = mpmath.mpf(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-10.0, math.log10(300.0)))
            k = rng.choice(ALL_KS)
            lam = mpmath.mpf(10.0 ** rng.uniform(-6.0, 6.0))
            c, s = mpmath.cosh(theta), mpmath.sinh(theta)
            ux, uy = k.unit
            x = float(lam * (ux * c + uy * s))
            y = float(lam * (ux * s + uy * c))
            if is_null_xy(x, y):
                with pytest.raises(NullDirection):
                    from_point(x, y)
                continue
            got = from_point(x, y)
            want, want_k = oracle_angle(mpmath.mpf(x), mpmath.mpf(y))
            assert got.k is want_k
            worst = max(worst, float(abs(got.theta - want) / abs(want)))
            checked += 1
    assert checked > 3000
    assert worst <= 1e-14


def test_triangle_angles_match_oracle():
    rng = random.Random(7)
    worst = 0.0
    with mpmath.workprec(PREC):
        for _ in range(3000):
            tri = random_triangle(rng)
            pts = [(mpmath.mpf(p.x), mpmath.mpf(p.y)) for p in tri.vertices]
            for i, got in enumerate(tri.elements().angles):
                (x0, y0), (xa, ya), (xb, yb) = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
                x1, y1, x2, y2 = xa - x0, ya - y0, xb - x0, yb - y0
                want, want_k = oracle_angle(x1 * x2 - y1 * y2, x1 * y2 - y1 * x2)
                assert got.k is want_k
                worst = max(worst, float(abs(got.theta - want)))
    assert worst <= 1e-13


def needle_triangle(rng: random.Random) -> Triangle:
    """A needle: the apex sits at relative height 1e-9..1e-2 over a base clear
    of the null lines, the figure is offset by up to +-1e3 and then scaled by
    2^k, k in [-400, 400], which is exact."""
    phi = rng.uniform(-math.pi / 4 + 0.1, math.pi / 4 - 0.1) + rng.choice((0.0, math.pi / 2))
    c, s = math.cos(phi), math.sin(phi)
    length, frac = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.9)
    height = length * 10.0 ** rng.uniform(-9.0, -2.0)
    ox, oy = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
    pts = [(ox, oy), (ox + length * c, oy + length * s),
           (ox + frac * length * c - height * s, oy + frac * length * s + height * c)]
    k = rng.randint(-400, 400)
    return Triangle(*(PointP(math.ldexp(x, k), math.ldexp(y, k)) for x, y in pts))


@pytest.mark.parametrize("draw", [random_triangle, needle_triangle], ids=["random", "needle"])
def test_square_sides_and_area_match_oracle(draw):
    rng = random.Random(7)
    worst_D = worst_S = 0.0
    with mpmath.workprec(PREC):
        for _ in range(3000):
            tri = draw(rng)
            el = tri.elements()
            pts = [(mpmath.mpf(p.x), mpmath.mpf(p.y)) for p in tri.vertices]
            for i in range(3):
                (xj, yj), (xk, yk) = pts[(i + 1) % 3], pts[(i + 2) % 3]
                dx, dy = xk - xj, yk - yj
                err = abs(el.D[i] - (dx * dx - dy * dy)) / (U * (dx * dx + dy * dy))
                worst_D = max(worst_D, float(err))
            terms = [(pts[i][0], pts[(i + 1) % 3][1], pts[(i + 2) % 3][1]) for i in range(3)]
            exact = sum(x * (yj - yk) for x, yj, yk in terms) / 2
            cond = sum(abs(x) * (abs(yj) + abs(yk)) for x, yj, yk in terms) / 2
            worst_S = max(worst_S, float(abs(el.S - exact) / (U * cond)))
    assert worst_D <= 5.0
    assert worst_S <= 4.0
