"""Angles, square sides, areas and solver vertices checked against a
high-precision mpmath oracle.

The oracle takes the exact double inputs, forms the invariant pair in
extended precision and recovers the angle with atanh on whichever ratio is
below one, the textbook route the library does not use.  The index comes
from the sector the pair lies in.  Square sides and areas are formed exactly
from the vertex doubles; their bounds are c * u * cond, computed per input,
since a fixed bound would flag the cancellation the data themselves carry.
Solver vertices are compared with the canonical placement formed from the
same double data in extended precision.
"""
from __future__ import annotations

import math
import random

import mpmath
import pytest

from pseudoeuclid import angle
from pseudoeuclid.angle import ExtendedAngle, KleinIndex, cosh_sinh, from_point
from pseudoeuclid.errors import NullDirection, PseudoEuclidError
from pseudoeuclid.geometry import PointP
from pseudoeuclid.selftest import random_triangle
from pseudoeuclid.tol import is_null_xy
from pseudoeuclid.triangle import Triangle, solve_sas, solve_sss, solve_ssa

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


def canonical_triangle(rng: random.Random) -> Triangle:
    """p1 at the origin, p2 on either axis and p3 at d2 * (cosh_e, sinh_e) of
    (theta, k): theta uniform over +-14 (up to where directions turn null) or
    +-3, any k, d2 over 2^+-60 and |p2| within a factor 100 of d2."""
    theta = rng.uniform(-14.0, 14.0) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0)
    d2 = math.ldexp(rng.uniform(0.5, 2.0), rng.randint(-60, 60))
    d3 = d2 * rng.uniform(0.01, 100.0)
    x, y = (d2 * v for v in cosh_sinh(ExtendedAngle(theta, rng.choice(ALL_KS))))
    p2 = PointP(d3, 0.0) if rng.random() < 0.5 else PointP(0.0, -d3)
    return Triangle(PointP(0.0, 0.0), p2, PointP(x, y))


def oracle_p3(c, s, D2, D3) -> tuple[mpmath.mpf, mpmath.mpf]:
    # the canonical third vertex d2 * (c, s), components swapped when D3 < 0
    d2 = mpmath.sqrt(abs(mpmath.mpf(D2)))
    return (d2 * c, d2 * s) if D3 > 0 else (d2 * s, d2 * c)


def test_sss_vertex_matches_oracle():
    # the oracle places p3 from the same double D by the law of cosines.  The
    # bound is u times the conditioning of the cosine's numerator and of
    # s1 = sqrt(c1^2 - kappa), which amplifies c1's error by c1^2 / s1^2.
    rng = random.Random(13)
    worst = 0.0
    checked = 0
    with mpmath.workprec(PREC):
        for _ in range(4000):
            try:
                D = canonical_triangle(rng).elements().D
                tri = solve_sss(*D)
            except PseudoEuclidError:
                continue
            D1, D2, D3 = (mpmath.mpf(v) for v in D)
            kappa = 1 if (D2 > 0) == (D3 > 0) else -1
            c1 = (D2 + D3 - D1) / (2 * mpmath.sqrt(abs(D2)) * mpmath.sqrt(abs(D3)))
            s1 = mpmath.sqrt(c1 * c1 - kappa)
            want = oracle_p3(c1, s1, D2, D3)
            cond = ((abs(D1) + abs(D2) + abs(D3)) / abs(D2 + D3 - D1)
                    * (1 + c1 * c1 / (s1 * s1)))
            err = mpmath.hypot(tri.p3.x - want[0], tri.p3.y - want[1])
            worst = max(worst, float(err / (U * cond * mpmath.hypot(*want))))
            checked += 1
    assert checked > 3000
    assert worst <= 4.0


def test_sas_vertex_matches_oracle():
    # the third vertex is d2 * (cosh_e, sinh_e) of the exact double theta1
    rng = random.Random(17)
    worst = 0.0
    checked = 0
    with mpmath.workprec(PREC):
        for _ in range(4000):
            try:
                el = canonical_triangle(rng).elements()
                theta1, D2, D3 = el.angles[0], el.D[1], el.D[2]
                tri = solve_sas(theta1, D2, D3)
            except PseudoEuclidError:
                continue
            t = mpmath.mpf(theta1.theta)
            ux, uy = theta1.k.unit
            c, s = ux * mpmath.cosh(t) + uy * mpmath.sinh(t), ux * mpmath.sinh(t) + uy * mpmath.cosh(t)
            want = oracle_p3(c, s, D2, D3)
            err = mpmath.hypot(tri.p3.x - want[0], tri.p3.y - want[1])
            worst = max(worst, float(err / (U * mpmath.hypot(*want))))
            checked += 1
    assert checked > 3000
    assert worst <= 4.0


def test_ssa_forms_its_unit_direction_once(monkeypatch):
    # the pair that enters the discriminant also places every candidate
    calls = []
    original = angle.cosh_sinh
    monkeypatch.setattr(angle, "cosh_sinh", lambda a: calls.append(a) or original(a))
    assert len(solve_ssa(ExtendedAngle(math.atanh(0.6), KleinIndex.P1), -9.0, 25.0)) == 2
    assert len(calls) == 1
