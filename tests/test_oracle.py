"""Angles, extended cosh/sinh pairs, the quadratic form, square sides, areas,
circumscribed hyperbolas, solver vertices and solver verdicts checked against
a high-precision mpmath oracle, and null verdicts against the null policy in
exact rational arithmetic.

The oracle takes the exact double inputs, forms the invariant pair in
extended precision and recovers the angle with atanh on whichever ratio is
below one, the textbook route the library does not use.  The index comes
from the sector the pair lies in.  Square sides and areas are formed exactly
from the vertex doubles; their bounds are c * u * cond, computed per input,
since a fixed bound would flag the cancellation the data themselves carry.
Solver vertices are compared with the canonical placement formed from the
same double data in extended precision.  A solver may refuse data only where
the exact data have no answer, where they lie within c * u * cond of the
boundary of the solvable set, or where the exact answer is within twice the
package's null or parallel tolerance of a figure it refuses by design.
"""
from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pseudoeuclid import angle
from pseudoeuclid.angle import THETA_MAX, ExtendedAngle, KleinIndex, cosh_sinh, from_point
from pseudoeuclid.errors import NullDirection, PseudoEuclidError
from pseudoeuclid.geometry import PARALLEL_TOL, PointP
from pseudoeuclid.hyperbola import circumscribed
from pseudoeuclid.selftest import random_triangle
from pseudoeuclid.tol import DEFAULT_NULL_EPS, is_null_xy, null_eps, quadratic_form, set_null_eps
from pseudoeuclid.triangle import Triangle, realizability, solve_asa, solve_sas, solve_sss, solve_ssa

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


@given(st.floats(-THETA_MAX, THETA_MAX), st.sampled_from(ALL_KS))
@settings(max_examples=1000, deadline=None)
def test_cosh_sinh_is_within_4_u_of_the_oracle(theta, k):
    # every index acts on (cosh, sinh) by signs and a swap, so each component
    # is one correctly rounded function away from the exact value
    with mpmath.workprec(PREC):
        t = mpmath.mpf(theta)
        ux, uy = k.unit
        c, s = mpmath.cosh(t), mpmath.sinh(t)
        wants = (ux * c + uy * s, ux * s + uy * c)
        for got, want in zip(cosh_sinh(ExtendedAngle(theta, k)), wants):
            if want == 0:
                assert got == 0.0
            else:
                assert abs(got - want) <= 4 * U * abs(want)


@given(st.floats(math.log(1e-13), math.log(1e-1)), st.booleans(), st.sampled_from((-1.0, 1.0)),
       st.sampled_from((-1.0, 1.0)), st.integers(-500, 500))
@settings(max_examples=1000, deadline=None)
def test_from_point_near_the_null_lines_matches_oracle(log_delta, swap, sx, sy, k):
    # the direction (1, 1 - delta), delta log-uniform in 1e-13..1e-1, in every
    # sign and swap image and scaled by 2^k: refused exactly where the null test
    # says so, and elsewhere within the bound of test_from_point_matches_oracle
    a, b = math.ldexp(sx, k), math.ldexp(sy * (1.0 - math.exp(log_delta)), k)
    x, y = (b, a) if swap else (a, b)
    if is_null_xy(x, y):
        with pytest.raises(NullDirection):
            from_point(x, y)
        return
    got = from_point(x, y)
    with mpmath.workprec(PREC):
        want, want_k = oracle_angle(mpmath.mpf(x), mpmath.mpf(y))
        assert got.k is want_k
        assert abs(got.theta - want) <= 1e-14 * abs(want)


@given(st.floats(math.log(1e-14), 0.0), st.floats(1.0, 2.0), st.booleans(),
       st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0)), st.integers(-500, 500))
@example(math.log(1e-14), 1.0, False, 1.0, 1.0, 0)
@settings(max_examples=1000, deadline=None)
def test_quadratic_form_is_within_3_u_of_the_oracle(log_delta, m, swap, sx, sy, k):
    # the pair (m, m (1 - delta)), delta log-uniform in 1e-14..1, in every sign
    # and swap image and scaled by 2^k: x*x - y*y cancels near the null lines,
    # the product of the null coordinates rounds three times and cancels nothing
    a, b = math.ldexp(sx * m, k), math.ldexp(sy * m * (1.0 - math.exp(log_delta)), k)
    x, y = (b, a) if swap else (a, b)
    with mpmath.workprec(PREC):
        want = mpmath.mpf(x) ** 2 - mpmath.mpf(y) ** 2
        assume(want == 0 or abs(want) >= sys.float_info.min)
        got = quadratic_form(x, y)
        assert abs(got - want) <= 3 * U * abs(want)


def exact_null(x: float, y: float) -> bool:
    """The null policy |x^2 - y^2| <= eps (x^2 + y^2) in exact arithmetic."""
    X, Y = Fraction(x), Fraction(y)
    return abs(X * X - Y * Y) <= Fraction(null_eps()) * (X * X + Y * Y)


@pytest.mark.parametrize("eps", [DEFAULT_NULL_EPS, 1e-2])
def test_null_verdicts_match_the_exact_policy_at_the_boundary(eps):
    # on the line y = x the policy reads 2 t <= eps (1 + t^2) with t = (x - y)/(x + y);
    # each draw puts t within 1e-3 of its root r, at scales 2^k from subnormal
    # to near the largest double, in all four sign images of (x, y)
    rng = random.Random(19)
    r = eps / (1.0 + math.sqrt(1.0 - eps * eps))
    before = null_eps()
    try:
        set_null_eps(eps)
        for _ in range(5000):
            t = r * (1.0 + rng.uniform(-1e-3, 1e-3))
            x = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-1060, 1022))
            y = x * ((1.0 - t) / (1.0 + t))
            for sx, sy in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
                assert is_null_xy(sx * x, sy * y) == exact_null(sx * x, sy * y), (sx * x, sy * y)
    finally:
        set_null_eps(before)


@pytest.mark.parametrize("eps", [1.0, 2.0, 1e3])
def test_every_vector_is_null_from_eps_one(eps):
    # |x^2 - y^2| <= x^2 + y^2 always, so from eps = 1 the policy accepts everything
    rng = random.Random(23)
    before = null_eps()
    try:
        set_null_eps(eps)
        pairs = [(1.0, 0.0), (0.0, -1.0), (5e-324, 0.0), (1.7e308, -1e308)]
        for _ in range(1000):
            pairs.append(tuple(math.ldexp(rng.uniform(-2.0, 2.0), rng.randint(-1070, 1022))
                               for _ in range(2)))
        for x, y in pairs:
            assert exact_null(x, y)
            assert is_null_xy(x, y), (x, y)
    finally:
        set_null_eps(before)


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


def near_null_triangle(rng: random.Random) -> Triangle:
    """The side p1p3 near a null line: p3 = p1 + r (1, +-(1 - delta)), delta
    log-uniform in 1e-8..1e-2 and r in +-[0.5, 3], with p1 and p2 - p1 in a +-5
    box; a triple the package refuses is drawn again."""
    while True:
        x1, y1, ex, ey = (rng.uniform(-5.0, 5.0) for _ in range(4))
        r = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
        slope = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-8.0, -2.0))
        try:
            tri = Triangle(PointP(x1, y1), PointP(x1 + ex, y1 + ey), PointP(x1 + r, y1 + r * slope))
            tri.elements()
        except PseudoEuclidError:
            continue
        return tri


def scaled_triangle(rng: random.Random) -> Triangle:
    """``random_triangle`` scaled by 2^k, k in [-400, 400], which is exact."""
    tri, k = random_triangle(rng), rng.randint(-400, 400)
    return Triangle(*(PointP(math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in tri.vertices))


@pytest.mark.parametrize("draw", [random_triangle, needle_triangle, near_null_triangle, scaled_triangle],
                         ids=["random", "needle", "near-null", "scaled"])
def test_triangle_angles_match_oracle(draw):
    # |theta - theta*| <= 2 u cond.  theta = 1/2 log|u/w| moves by half the
    # relative error of each null coordinate x +- y of the two rays, and
    # rounding the ray (x, y) costs x +- y a relative u (|x| + |y|) / |x +- y|,
    # so cond = 1/2 sum (|x| + |y|) / |x +- y| over the four.  The rays are
    # formed exactly from the vertex doubles
    rng = random.Random(7)
    worst = worst_rel = 0.0
    with mpmath.workprec(PREC):
        for _ in range(3000):
            tri = draw(rng)
            pts = [(mpmath.mpf(p.x), mpmath.mpf(p.y)) for p in tri.vertices]
            for i, got in enumerate(tri.elements().angles):
                (x0, y0), (xa, ya), (xb, yb) = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
                x1, y1, x2, y2 = xa - x0, ya - y0, xb - x0, yb - y0
                want, want_k = oracle_angle(x1 * x2 - y1 * y2, x1 * y2 - y1 * x2)
                assert got.k is want_k
                cond = sum((abs(x) + abs(y)) / abs(n) for x, y in ((x1, y1), (x2, y2))
                           for n in (x + y, x - y)) / 2
                err = abs(got.theta - want)
                worst = max(worst, float(err))
                worst_rel = max(worst_rel, float(err / (U * cond)))
    assert worst_rel <= 2.0
    if draw is random_triangle:
        assert worst <= 1e-13


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


def oracle_circle(tri: Triangle):
    """The exact center and P of the hyperbola through the double vertices,
    with the cond and size of the bound.  Put c = p1 + (a, b), e = p2 - p1 and
    f = p3 - p1: the axis equations D(c, p2) = D(c, p1) and D(c, p3) = D(c, p1)
    read 2 ex a - 2 ey b = D(e) and 2 fx a - 2 fy b = D(f), and P = a^2 - b^2.
    cond = |e| |f| / |e x f| grows as the axes turn parallel, and size =
    |e| + |f| + |c - p1| + |p1| is the magnitude of what enters them."""
    (x1, y1), (x2, y2), (x3, y3) = ((mpmath.mpf(p.x), mpmath.mpf(p.y)) for p in tri.vertices)
    ex, ey, fx, fy = x2 - x1, y2 - y1, x3 - x1, y3 - y1
    De, Df, cross = ex * ex - ey * ey, fx * fx - fy * fy, ex * fy - ey * fx
    a, b = (De * fy - ey * Df) / (2 * cross), (fx * De - ex * Df) / (2 * cross)
    e, f = mpmath.hypot(ex, ey), mpmath.hypot(fx, fy)
    size = e + f + mpmath.hypot(a, b) + mpmath.hypot(x1, y1)
    return (x1 + a, y1 + b), a * a - b * b, e * f / abs(cross), size


@pytest.mark.parametrize("draw", [random_triangle, needle_triangle], ids=["random", "needle"])
def test_circumscribed_matches_oracle(draw):
    # each figure scaled by 1e-6..1e6 on top of its own scale: the center is
    # within 8 u size cond of the exact one and P within 8 u size^2 cond
    rng = random.Random(37)
    worst_center = worst_P = 0.0
    with mpmath.workprec(PREC):
        for _ in range(3000):
            lam = 10.0 ** rng.uniform(-6.0, 6.0)
            tri = Triangle(*(p * lam for p in draw(rng).vertices))
            hyp = circumscribed(tri)
            (cx, cy), P, cond, size = oracle_circle(tri)
            err = mpmath.hypot(hyp.center.x - cx, hyp.center.y - cy)
            worst_center = max(worst_center, float(err / (U * size * cond)))
            worst_P = max(worst_P, float(abs(hyp.P - P) / (U * size * size * cond)))
    assert worst_center <= 8.0
    assert worst_P <= 8.0


@pytest.mark.parametrize("draw", [random_triangle, needle_triangle], ids=["random", "needle"])
def test_circumscribed_square_radius_does_not_grow_with_the_offset(draw):
    # each figure moved 1..1e8 times its size: P is within 4 u (|e| + |f| +
    # |c - p1|)^2 cond of the exact one, a bound that does not see the offset
    rng = random.Random(43)
    worst = 0.0
    with mpmath.workprec(PREC):
        for _ in range(2000):
            tri = draw(rng)
            size = max(math.hypot(p.x - tri.p1.x, p.y - tri.p1.y) for p in tri.vertices)
            offset, phi = size * 10.0 ** rng.uniform(0.0, 8.0), rng.uniform(0.0, 2.0 * math.pi)
            shift = PointP(offset * math.cos(phi), offset * math.sin(phi))
            try:
                tri = Triangle(*(p + shift for p in tri.vertices))
            except PseudoEuclidError:
                continue  # the move rounded the figure onto a null side or flat
            hyp = circumscribed(tri)
            (cx, cy), P, cond, _ = oracle_circle(tri)
            (x1, y1), (x2, y2), (x3, y3) = ((mpmath.mpf(p.x), mpmath.mpf(p.y)) for p in tri.vertices)
            reach = (mpmath.hypot(x2 - x1, y2 - y1) + mpmath.hypot(x3 - x1, y3 - y1)
                     + mpmath.hypot(cx - x1, cy - y1))
            worst = max(worst, float(abs(hyp.P - P) / (U * reach * reach * cond)))
    assert worst <= 4.0


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
    return oracle_place(c, s, mpmath.sqrt(abs(mpmath.mpf(D2))), D3)


def oracle_place(c, s, d2, D3) -> tuple[mpmath.mpf, mpmath.mpf]:
    return (d2 * c, d2 * s) if D3 > 0 else (d2 * s, d2 * c)


def oracle_unit(a: ExtendedAngle) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(cosh_e, sinh_e) of the exact double theta of ``a``."""
    t = mpmath.mpf(a.theta)
    ux, uy = a.k.unit
    return ux * mpmath.cosh(t) + uy * mpmath.sinh(t), ux * mpmath.sinh(t) + uy * mpmath.cosh(t)


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
            want = oracle_p3(*oracle_unit(theta1), D2, D3)
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


BOUNDARY_C = 8.0  # the c of c * u * cond for a verdict near a boundary


def off_by(got: PointP, want) -> mpmath.mpf:
    """Euclidean distance of got from want, relative to |want|."""
    return mpmath.hypot(got.x - want[0], got.y - want[1]) / mpmath.hypot(*want)


def refused_by_design(D3, p3) -> bool:
    """Whether the exact figure with p1 at the origin, p2 on the axis of D3 and
    this p3 is within twice the null tolerance of a null side, or within twice
    the parallel tolerance of a flat triangle: the constructor refuses those
    on purpose, and rounding may push the placed figure either way."""
    d3 = mpmath.sqrt(abs(mpmath.mpf(D3)))
    p2 = (d3, 0) if D3 > 0 else (0, -d3)
    for dx, dy in (p2, p3, (p3[0] - p2[0], p3[1] - p2[1])):
        if abs(dx * dx - dy * dy) <= 2 * null_eps() * (dx * dx + dy * dy):
            return True
    return abs(p2[0] * p3[1] - p2[1] * p3[0]) <= 2 * PARALLEL_TOL * mpmath.hypot(*p2) * mpmath.hypot(*p3)


def oracle_ssa(theta1: ExtendedAngle, D1: float, D3: float):
    """The exact SSA answers: [(p3, cond)] for each positive root, the roots
    being d2 = base +- sqrt(disc) of the solver's quadratic, and whether the
    data lie within c u cond of a place where the root count changes (the
    discriminant or a root at zero).  cond = 1 + (d3^2 s1^2 + |D1|) / |disc|
    bounds the relative sensitivity of either root to the data's rounding."""
    c, s = oracle_unit(theta1)
    if not s > 0:
        return [], False
    sign3 = 1 if D3 > 0 else -1
    d3 = mpmath.sqrt(abs(mpmath.mpf(D3)))
    size = d3 * d3 * s * s + abs(mpmath.mpf(D1))
    disc = d3 * d3 * s * s + theta1.k.kappa * sign3 * mpmath.mpf(D1)
    near = abs(disc) <= BOUNDARY_C * U * size
    if disc < 0:
        return [], near
    cond = 1 + size / disc if disc else mpmath.inf
    base, root = theta1.k.kappa * sign3 * d3 * c, mpmath.sqrt(disc)
    answers = []
    for d2 in (base - root, base + root):
        near = near or abs(d2) <= BOUNDARY_C * U * cond * (abs(base) + root)
        if d2 > 0:
            answers.append((oracle_place(c, s, d2, D3), cond))
    return answers, near


def oracle_asa(theta1: ExtendedAngle, theta2: ExtendedAngle, D3: float):
    """The exact ASA answer (p3 or None), its cond, and whether the data lie
    within c u cond of the boundary or the rays are parallel by design.

    The oracle meets the two rays in extended precision and accepts the
    figure when it turns counterclockwise and its angles at p1 and p2,
    recovered by oracle_angle, are theta1 and theta2; it does not use the
    solver's sign test.  The rays part at S12 = sinh_e(theta1 + theta2), so
    the meet rounds by cond = 1 + (|c1 s2| + |s1 c2|) / |S12|."""
    (c1, s1), (c2, s2) = oracle_unit(theta1), oracle_unit(theta2)
    d3 = mpmath.sqrt(abs(mpmath.mpf(D3)))
    q = oracle_place(c1, s1, 1, D3)
    # the ray at p2 turns the base direction toward p1 back by theta2
    (bx, by), (ex, ey) = ((d3, 0), (c2, -s2)) if D3 > 0 else ((0, -d3), (s2, -c2))
    S12 = c1 * s2 + s1 * c2
    cond = 1 + (abs(c1 * s2) + abs(s1 * c2)) / abs(S12) if S12 else mpmath.inf
    det = q[1] * ex - q[0] * ey
    near = (abs(S12) <= BOUNDARY_C * U * (abs(c1 * s2) + abs(s1 * c2))
            or abs(det) <= 2 * PARALLEL_TOL * mpmath.hypot(*q) * mpmath.hypot(ex, ey))
    if not det:
        return None, cond, near
    t = (by * ex - bx * ey) / det
    p3 = (t * q[0], t * q[1])

    def angle_at(o, a, b):
        x1, y1, x2, y2 = a[0] - o[0], a[1] - o[1], b[0] - o[0], b[1] - o[1]
        return oracle_angle(x1 * x2 - y1 * y2, x1 * y2 - y1 * x2)

    def is_angle(got, want):
        return got[1] is want.k and abs(got[0] - want.theta) <= mpmath.mpf(2) ** -100 * (1 + abs(want.theta))

    ok = (bx * p3[1] - by * p3[0] > 0 and is_angle(angle_at((0, 0), (bx, by), p3), theta1)
          and is_angle(angle_at((bx, by), p3, (0, 0)), theta2))
    return (p3 if ok else None), cond, near


def oracle_sss(D1: float, D2: float, D3: float):
    """The exact SSS answer (p3 or None) and whether |Q| is within c u of
    (|D1| + |D2| + |D3|)^2, the size of its terms."""
    D1, D2, D3 = (mpmath.mpf(v) for v in (D1, D2, D3))
    Q = D1 * D1 + D2 * D2 + D3 * D3 - 2 * (D1 * D2 + D1 * D3 + D2 * D3)
    near = abs(Q) <= BOUNDARY_C * U * (abs(D1) + abs(D2) + abs(D3)) ** 2
    if not Q > 0:
        return None, near
    kappa = 1 if (D2 > 0) == (D3 > 0) else -1
    c1 = (D2 + D3 - D1) / (2 * mpmath.sqrt(abs(D2)) * mpmath.sqrt(abs(D3)))
    return oracle_p3(c1, mpmath.sqrt(c1 * c1 - kappa), D2, D3), near


def any_angle(rng: random.Random) -> ExtendedAngle:
    return ExtendedAngle(rng.uniform(-3.0, 3.0), rng.choice(ALL_KS))


def ssa_data(rng: random.Random) -> tuple[ExtendedAngle, float, float]:
    """SSA data from a canonical triangle: its own D1 (one root at least), a
    D1 that nearly zeroes the discriminant from either side, or one at
    random, each also with an angle of any sign and index."""
    el = canonical_triangle(rng).elements()
    theta1, D1, D3 = el.angles[0], el.D[0], el.D[2]
    mode = rng.randrange(6)
    if mode >= 3:
        theta1, mode = any_angle(rng), mode - 3
    if mode == 1:
        s = cosh_sinh(theta1)[1]
        nudge = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -1.0)
        D1 = -theta1.k.kappa * D3 * s * s * nudge
    elif mode == 2:
        D1 = rng.choice((-1.0, 1.0)) * abs(D3) * 10.0 ** rng.uniform(-2.0, 2.0)
    return theta1, D1, D3


def test_ssa_vertices_and_counts_match_oracle():
    # each solution is within 4 u cond of a distinct exact root, and the
    # counts agree except at the boundary or where the exact figure is
    # refused by design
    rng = random.Random(19)
    worst = 0.0
    two = 0
    with mpmath.workprec(PREC):
        for _ in range(3000):
            theta1, D1, D3 = ssa_data(rng)
            try:
                sols = solve_ssa(theta1, D1, D3)
            except PseudoEuclidError:
                continue
            answers, near = oracle_ssa(theta1, D1, D3)
            matched = set()
            for tri in sols:
                errs = [off_by(tri.p3, p3) / (U * cond) for p3, cond in answers]
                assert errs or near, (theta1, D1, D3)
                if errs:
                    best = min(range(len(errs)), key=errs.__getitem__)
                    assert best not in matched, (theta1, D1, D3)
                    matched.add(best)
                    worst = max(worst, float(errs[best]))
            missing = [p3 for i, (p3, _) in enumerate(answers) if i not in matched]
            assert near or all(refused_by_design(D3, p3) for p3 in missing), (theta1, D1, D3)
            two += len(sols) == 2
    assert two > 300
    assert worst <= 4.0


@pytest.mark.parametrize("theta1, D1, D3, count", [
    (ExtendedAngle(1.0, KleinIndex.P1), 1e308, 1e308, 1),  # the other root is 0
    (ExtendedAngle(5.0, KleinIndex.P1), -1.7e308, 1e308, 2),
    (ExtendedAngle(-3.0136966872462176, KleinIndex.H), -1.05e-321, -2.22212326569e-312, 1),
], ids=["discriminant-overflows", "discriminant-overflows-two-roots", "subnormal"])
def test_ssa_at_extreme_squares_matches_oracle(theta1, D1, D3, count):
    # the quadratic is solved on the squares scaled by a power of four: on the
    # unscaled squares these discriminants overflowed, or d3 * d3 underflowed
    # and one root was 70 u cond off
    sols = solve_ssa(theta1, D1, D3)
    with mpmath.workprec(PREC):
        answers, _ = oracle_ssa(theta1, D1, D3)
        assert len(sols) == count
        for tri in sols:
            assert min(off_by(tri.p3, p3) / (U * cond) for p3, cond in answers) <= 4.0


def test_asa_vertex_matches_oracle():
    rng = random.Random(23)
    worst = 0.0
    checked = 0
    with mpmath.workprec(PREC):
        for _ in range(3000):
            el = canonical_triangle(rng).elements()
            theta1, theta2, D3 = el.angles[0], el.angles[1], el.D[2]
            try:
                tri = solve_asa(theta1, theta2, D3)
            except PseudoEuclidError:
                continue
            want, cond, _ = oracle_asa(theta1, theta2, D3)
            worst = max(worst, float(off_by(tri.p3, want) / (U * cond)))
            checked += 1
    assert checked > 2000
    assert worst <= 4.0


# Each returns the data of a verdict the exact data do not explain, or None.
# A verdict is explained when it agrees with the exact one, when the data lie
# within c u cond of the boundary, or when the exact figure is refused by design.

def _unexplained_ssa(rng):
    theta1, D1, D3 = ssa_data(rng)
    answers, near = oracle_ssa(theta1, D1, D3)
    try:
        count = len(solve_ssa(theta1, D1, D3))
    except PseudoEuclidError:
        count = 0
    if near or count == len(answers):
        return None
    # a missing root must be refused by design (which of two such roots the
    # solver kept is not pinned here); an extra one is never explained
    if count > len(answers) or sum(not refused_by_design(D3, p3) for p3, _ in answers) > count:
        return (theta1, D1, D3)
    return None


def _unexplained_asa(rng):
    # every index for both angles and both signs of D3 in turn, half of the
    # draws from the angles of a canonical triangle on that base
    i = rng.randrange(32)
    k1, k2, sign3 = ALL_KS[i % 4], ALL_KS[i // 4 % 4], (1.0, -1.0)[i // 16]
    if rng.random() < 0.5:
        el = canonical_triangle(rng).elements()
        theta1, theta2, D3 = el.angles[0], el.angles[1], el.D[2]
    else:
        theta1, theta2 = any_angle(rng), any_angle(rng)
        D3 = 10.0 ** rng.uniform(-6.0, 6.0)
    theta1, theta2 = ExtendedAngle(theta1.theta, k1), ExtendedAngle(theta2.theta, k2)
    D3 = math.copysign(D3, sign3)
    want, _, near = oracle_asa(theta1, theta2, D3)
    try:
        solve_asa(theta1, theta2, D3)
    except PseudoEuclidError:
        if want is not None and not near and not refused_by_design(D3, want):
            return (theta1, theta2, D3)
        return None
    return (theta1, theta2, D3) if want is None and not near else None


def _unexplained_sas(rng):
    theta1, D3 = any_angle(rng), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0)
    D2 = rng.choice((-1.0, 1.0)) * abs(D3) * 10.0 ** rng.uniform(-2.0, 2.0)
    c, s = oracle_unit(theta1)
    # the sign of D2 and that of sinh_e(theta1) are exact: no margin
    exists = (D2 > 0) == (theta1.k.kappa * D3 > 0) and s > 0
    try:
        solve_sas(theta1, D2, D3)
    except PseudoEuclidError:
        if exists and not refused_by_design(D3, oracle_p3(c, s, D2, D3)):
            return (theta1, D2, D3)
        return None
    return None if exists else (theta1, D2, D3)


def _unexplained_sss(rng):
    # a canonical triangle's sides, D1 moved to within a relative 1e-16..1e-1
    # of closing flat on either side, or three sides at random
    el = canonical_triangle(rng).elements()
    D1, D2, D3 = el.D
    mode = rng.randrange(3)
    if mode == 1:
        d2, d3 = math.sqrt(abs(D2)), math.sqrt(abs(D3))
        edge = (d2 - d3) ** 2 if rng.random() < 0.5 else (d2 + d3) ** 2
        D1 = math.copysign(edge, D2) * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -1.0))
    elif mode == 2:
        D1, D2, D3 = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3))
    want, near = oracle_sss(D1, D2, D3)
    try:
        solve_sss(D1, D2, D3)
    except PseudoEuclidError:
        if want is not None and not near and not refused_by_design(D3, want):
            return (D1, D2, D3)
        return None
    return (D1, D2, D3) if want is None and not near else None


@pytest.mark.parametrize("unexplained", [_unexplained_ssa, _unexplained_asa, _unexplained_sas,
                                         _unexplained_sss], ids=["ssa", "asa", "sas", "sss"])
def test_solver_verdicts_match_the_exact_data(unexplained):
    rng = random.Random(29)
    with mpmath.workprec(PREC):
        bad = [case for case in (unexplained(rng) for _ in range(3000)) if case]
    assert not bad, bad[:3]


def test_realizability_is_within_the_filter_bound():
    # the premise of the float filter in solve_sss: away from underflow the
    # float Q of three doubles is within 8 u (|D1| + |D2| + |D3|)^2 of the
    # exact Q.  Square sides of canonical triangles, sides a relative
    # 1e-17..1e-1 from closing flat at scales 2^-400..2^400, and random ones
    rng = random.Random(41)
    worst = 0.0
    for i in range(6000):
        mode = i % 3
        if mode == 0:
            D = canonical_triangle(rng).elements().D
        elif mode == 1:
            d2, d3 = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
            edge = (d2 - d3) ** 2 if rng.random() < 0.5 else (d2 + d3) ** 2
            nudge = 1.0 + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-17.0, -1.0)
            flat = [edge * nudge, d2 * d2, d3 * d3]
            k = rng.randint(-200, 200)
            D = [rng.choice((-1.0, 1.0)) * math.ldexp(v, 2 * k) for v in rng.sample(flat, 3)]
        else:
            D = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)]
        err = abs(Fraction(realizability(*D)) - realizability(*map(Fraction, D)))
        worst = max(worst, float(err / (Fraction(U) * Fraction(sum(map(abs, D))) ** 2)))
    assert worst <= 8.0


def test_sss_refuses_exactly_where_q_is_not_positive():
    # near-flat square sides (one D1 within a relative 1e-17..1e-8 of
    # (d2 +- d3)^2) at scales 2^-540..2^500, where the float Q often has the
    # wrong sign: solve_sss names the realizability test exactly when the
    # exact Q of the three doubles is not positive
    rng = random.Random(31)
    wrong_float = 0
    for _ in range(4000):
        d2, d3 = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
        edge = (d2 - d3) ** 2 if rng.random() < 0.5 else (d2 + d3) ** 2
        D = [edge * (1.0 + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-17.0, -8.0)), d2 * d2, d3 * d3]
        sign = rng.choice((-1.0, 1.0))
        k = rng.randint(-270, 250)
        D = [sign * math.ldexp(v, 2 * k) for v in rng.sample(D, 3)]
        exact = realizability(*map(Fraction, D)) > 0
        wrong_float += (realizability(*D) > 0) != exact
        try:
            solve_sss(*D)
            refused = False
        except PseudoEuclidError as exc:
            refused = "Q > 0" in str(exc)
        assert refused != exact, D
    assert wrong_float > 100
