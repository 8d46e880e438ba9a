"""The identity suite: seeds that once failed and a fixed band of seeds, kept
beside the acceptance seed, and guards on how its verdicts and its work are
computed."""
from __future__ import annotations

import math
import random
import re

import pytest

from pseudoeuclid import angle as _angle
from pseudoeuclid import selftest, triangle
from pseudoeuclid.angle import ExtendedAngle, KleinIndex
from pseudoeuclid.errors import DegenerateTriangle, InvalidInput, NullSide
from pseudoeuclid.geometry import Motion, PointP
from pseudoeuclid.hypnum import HyperbolicNumber, euler, from_polar, to_polar
from pseudoeuclid.selftest import (
    ANGLE_RANGE,
    BOX,
    MOTION_ANGLE_RANGE,
    NULL_EPS_MAX,
    THRESHOLDS,
    TRIANGLE_MARGIN,
    _check_angle_sum_cosh,
    _check_polar_roundtrip,
    _near_null,
    random_angle,
    random_motion,
    random_triangle,
    run_selftest,
)
from pseudoeuclid.tol import null_eps, set_null_eps
from pseudoeuclid.triangle import Triangle

from builds import counting_builds


@pytest.mark.parametrize("seed, n", [(0, 10_000), (61, 300), (135, 300), (278, 300)])
def test_formerly_failing_seeds_pass(seed, n):
    report = run_selftest(seed, n)
    assert report["ok"], report["failed"]


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError, match="sample count must be positive, got 0"):
        run_selftest(0, 0)


@pytest.mark.parametrize("eps", [1.0, 1.5, 0.9999999, math.nextafter(NULL_EPS_MAX, 1.0)])
def test_a_tolerance_that_leaves_nothing_to_draw_is_refused(eps):
    # from eps = 1 every vector is null (test_every_vector_is_null_from_eps_one), and
    # above NULL_EPS_MAX only thin triangles are left, which near 1 random_triangle
    # would redraw without end; the refusal names the cut-off and the tolerance and
    # comes after the count checks
    before = null_eps()
    try:
        set_null_eps(eps)
        message = re.escape(f"check needs a null epsilon of at most 0.5, got {eps!r}")
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            run_selftest(0, 2)
        with pytest.raises(InvalidInput, match="sample count must be positive, got 0"):
            run_selftest(0, 0)
    finally:
        set_null_eps(before)


def test_a_wide_tolerance_redraws_and_passes_every_suite():
    # up to NULL_EPS_MAX every draw the tolerance calls null is drawn again: an
    # angle whose euler point is null, a triangle or a motion with a null side
    before = null_eps()
    try:
        for eps in (1e-9, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, NULL_EPS_MAX):
            set_null_eps(eps)
            for seed in range(50):
                report = run_selftest(seed, 100)
                assert report["failed"] == [], (eps, seed, report["checks"])
    finally:
        set_null_eps(before)


def test_a_refusal_inside_a_suite_fails_only_that_suite(monkeypatch):
    # the backstop: a refusal that no screen catches ends its suite with worst = inf,
    # and the report still gives every suite its verdict; the law-of-cosines suite
    # makes the first 50 calls of law_of_cosines_check, the projection suite the next 50
    check, calls = Triangle.law_of_cosines_check, []

    def refuse_25th(self):
        calls.append(self)
        if len(calls) == 25:
            raise InvalidInput("refused")
        return check(self)

    monkeypatch.setattr(Triangle, "law_of_cosines_check", refuse_25th)
    report = run_selftest(5, 50)
    assert report["checks"]["law-of-cosines"]["worst"] == math.inf
    assert report["failed"] == ["law-of-cosines"] and not report["ok"]
    assert list(report["checks"]) == list(THRESHOLDS)
    assert len(calls) == 75


def _euclidean_angles(tri: Triangle) -> list[float]:
    angles = []
    for p, q, r in ((tri.p1, tri.p2, tri.p3), (tri.p2, tri.p3, tri.p1), (tri.p3, tri.p1, tri.p2)):
        ux, uy, vx, vy = q.x - p.x, q.y - p.y, r.x - p.x, r.y - p.y
        angles.append(math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy))
    return angles


@pytest.mark.parametrize("eps", [0.3, NULL_EPS_MAX, 0.7, 0.9])
def test_three_non_null_sides_leave_an_angle_of_at_most_arccos_eps(eps):
    # why NULL_EPS_MAX is 1/2: a non-null side lies within arccos(eps) / 2 of an
    # axis, so two of the three lie near the same one, and the triangle has a
    # Euclidean angle of at most arccos(eps), below pi/3 once eps passes 1/2
    rng, kept, before = random.Random(11), 0, null_eps()
    try:
        set_null_eps(eps)
        for _ in range(4000):
            try:
                tri = Triangle(*(PointP(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX))
                                 for _ in range(3)))
            except (NullSide, DegenerateTriangle):
                continue
            kept += 1
            assert min(_euclidean_angles(tri)) <= math.acos(eps) + 1e-12, tri
    finally:
        set_null_eps(before)
    assert kept > 50


def test_the_equilateral_triangle_turns_null_at_the_cut_off():
    # at 1/2 = cos(pi/3) the equilateral shape is the first to lose every
    # rotation with three non-null sides; just below, a side on an axis keeps one
    before = null_eps()

    def rotations_kept(eps: float) -> int:
        set_null_eps(eps)
        kept = 0
        for i in range(720):
            phi = math.pi * i / 720
            try:
                Triangle(*(PointP(math.cos(phi + t), math.sin(phi + t))
                           for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)))
            except NullSide:
                continue
            kept += 1
        return kept

    try:
        assert rotations_kept(NULL_EPS_MAX - 1e-9) > 0
        assert rotations_kept(NULL_EPS_MAX + 1e-9) == 0
    finally:
        set_null_eps(before)


def test_a_klein_index_mismatch_in_angle_roundtrip_fails_only_that_suite(monkeypatch):
    # the third angle comes back with another index: the suite yields inf and
    # stops, and the report still gives every suite its verdict
    from_point, calls = _angle.from_point, []

    def flip_third(x, y):
        a = from_point(x, y)
        calls.append(a)
        return ExtendedAngle(a.theta, a.k * KleinIndex.H) if len(calls) == 3 else a

    monkeypatch.setattr(_angle, "from_point", flip_third)
    report = run_selftest(5, 50)
    assert report["checks"]["angle-roundtrip"]["worst"] == math.inf
    assert report["failed"] == ["angle-roundtrip"] and not report["ok"]
    assert list(report["checks"]) == list(THRESHOLDS)
    assert all(check["samples"] == 50 for check in report["checks"].values())


@pytest.mark.parametrize("k", [KleinIndex.H, KleinIndex.MH], ids=["+h", "-h"])
def test_a_klein_index_mismatch_in_motion_invariance_fails_only_that_suite(monkeypatch, k):
    # a rotation of index +-h moves every side across a null line, so the moved
    # angles carry other indices: the suite yields inf and the report completes
    def improper_motion(rng):
        return Motion(ExtendedAngle(rng.uniform(-MOTION_ANGLE_RANGE, MOTION_ANGLE_RANGE), k),
                      HyperbolicNumber(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)))

    monkeypatch.setattr(selftest, "random_motion", improper_motion)
    report = run_selftest(5, 50)
    assert report["checks"]["motion-invariance"]["worst"] == math.inf
    assert report["failed"] == ["motion-invariance"] and not report["ok"]
    assert list(report["checks"]) == list(THRESHOLDS)
    assert all(check["samples"] == 50 for check in report["checks"].values())


def test_seed_band_passes():
    # a fixed band beside the acceptance seed; the README has the 0-399 sweep
    failed = {s: r["failed"] for s in range(64) if not (r := run_selftest(s, 300))["ok"]}
    assert failed == {}


def _nan_on_call(method, which, nan_value):
    calls = []

    def patched(self):
        calls.append(self)
        return nan_value if len(calls) == which else method(self)

    return patched


# the law-of-cosines suite makes the first 50 calls of law_of_cosines_check,
# the projection suite the next 50; likewise the area suite makes the first
# 50 calls of the sine-product kernel, and law_of_sines_residual the next 50
@pytest.mark.parametrize("method, call, nan_value, suite", [
    ("law_of_sines_residual", 25, math.nan, "law-of-sines"),
    ("law_of_cosines_check", 25, ((0.0, math.nan, 0.0), (0.0, 0.0, 0.0)), "law-of-cosines"),
    ("law_of_cosines_check", 75, ((0.0, 0.0, 0.0), (0.0, math.nan, 0.0)), "projection-law"),
    ("_sine_products", 25, (0.0, math.nan, 0.0), "area-sine-triple"),
    ("_sine_products", 75, (0.0, math.nan, 0.0), "law-of-sines"),
])
def test_nan_residual_in_the_middle_of_the_pool_fails_its_suite(monkeypatch, method, call,
                                                                 nan_value, suite):
    # max() keeps a NaN only when it comes first; the middle of 50 must still fail
    monkeypatch.setattr(Triangle, method, _nan_on_call(getattr(Triangle, method), call, nan_value))
    report = run_selftest(5, 50)
    assert math.isnan(report["checks"][suite]["worst"])
    assert not report["checks"][suite]["ok"]
    assert suite in report["failed"] and not report["ok"]


def uniform_random_triangle(rng: random.Random) -> Triangle:
    # random_triangle as it drew through rng.uniform, the reference for its inlined form
    while True:
        x1, y1 = rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)
        x2, y2 = rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)
        x3, y3 = rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)
        ex, ey, gx, gy, fx, fy = x2 - x1, y2 - y1, x3 - x2, y3 - y2, x3 - x1, y3 - y1
        if _near_null(ex, ey) or _near_null(gx, gy) or _near_null(fx, fy):
            continue
        if abs(ex * fy - ey * fx) < TRIANGLE_MARGIN * math.hypot(ex, ey) * math.hypot(fx, fy):
            continue
        return Triangle(PointP(x1, y1), PointP(x2, y2), PointP(x3, y3))


def test_random_triangle_draws_as_rng_uniform_did():
    for s in range(200):
        rng, ref = random.Random(s), random.Random(s)
        got, want = random_triangle(rng), uniform_random_triangle(ref)
        assert [c.hex() for p in got.vertices for c in (p.x, p.y)] == \
            [c.hex() for p in want.vertices for c in (p.x, p.y)], s
        assert rng.getstate() == ref.getstate(), s


def test_every_draw_is_rng_uniform_bit_for_bit():
    # each draw forms lo + span * rng.random() without calling rng.uniform; the
    # twin stream makes the same draws through rng.uniform, in the same order
    for s in range(40):
        rng, ref = random.Random(s), random.Random(s)
        for _ in range(5):
            a = random_angle(rng)
            theta, k = ref.uniform(-ANGLE_RANGE, ANGLE_RANGE), ref.choice(tuple(KleinIndex))
            assert (a.theta.hex(), a.k) == (theta.hex(), k), s
            m = random_motion(rng)
            theta = ref.uniform(-MOTION_ANGLE_RANGE, MOTION_ANGLE_RANGE)
            k = ref.choice((KleinIndex.P1, KleinIndex.M1))
            x, y = ref.uniform(-BOX, BOX), ref.uniform(-BOX, BOX)
            assert (m.rotation.theta.hex(), m.rotation.k, m.offset.x.hex(), m.offset.y.hex()) == \
                (theta.hex(), k, x.hex(), y.hex()), s
            got, tri = random_triangle(rng), uniform_random_triangle(ref)
            assert [c.hex() for p in got.vertices for c in (p.x, p.y)] == \
                [c.hex() for p in tri.vertices for c in (p.x, p.y)], s
        # the polar suite's draws, with its null screen, through its residuals
        want = []
        while len(want) < 20:
            z = HyperbolicNumber(ref.uniform(-BOX, BOX), ref.uniform(-BOX, BOX))
            if not z.is_null():
                w = from_polar(*to_polar(z))
                want.append(math.hypot(w.x - z.x, w.y - z.y) / math.hypot(z.x, z.y))
        assert [r.hex() for r in _check_polar_roundtrip(rng, 20)] == [r.hex() for r in want], s
        assert rng.getstate() == ref.getstate(), s


@pytest.mark.parametrize("k", [0, 200, -200, 520, -520])
def test_angle_sum_cosh_target_does_not_depend_on_scale(k):
    # -(D1 D2 D3) / (d1 d2 d3)^2 in floats is NaN at 2^200 and divides 0 by 0
    # at 2^-200; the target -sign(D1 D2 D3) forms no product
    tri = random_triangle(random.Random(1))
    scaled = Triangle(*(PointP(math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in tri.vertices))
    assert list(_check_angle_sum_cosh([(scaled, scaled.elements(), scaled.angle_sum())])) == [0.0]


def test_each_triangle_computes_its_angles_once(monkeypatch):
    angles = 0
    angle_of = triangle._angle_of

    def counted_angle_of(*coords):
        nonlocal angles
        angles += 1
        return angle_of(*coords)

    # elements() calls the angle kernel directly, once per vertex
    monkeypatch.setattr(triangle, "_angle_of", counted_angle_of)
    with counting_builds(Triangle) as built:
        run_selftest(5, 50)
    # the pool's triangles and their images under motion-invariance; the suites
    # ask a pool triangle for its elements 5 times
    assert len(built) == 100
    assert angles == 3 * len(built)


def _counted(owner, name: str, calls: list):
    """Record each call of owner.name in calls, as (first argument, result)."""
    method = getattr(owner, name)

    def counted(*args):
        result = method(*args)
        calls.append((args[0], result))
        return result

    return counted


def test_check_draws_and_sums_each_pool_triangle_once(monkeypatch):
    # test_each_triangle_computes_its_angles_once counts the triangles built
    drawn, sums, cosines = [], [], []
    monkeypatch.setattr(selftest, "random_triangle", _counted(selftest, "random_triangle", drawn))
    monkeypatch.setattr(Triangle, "angle_sum", _counted(Triangle, "angle_sum", sums))
    monkeypatch.setattr(Triangle, "law_of_cosines_check",
                        _counted(Triangle, "law_of_cosines_check", cosines))
    assert run_selftest(5, 50)["ok"]
    assert len(drawn) == 50
    assert [id(tri) for tri, _ in sums] == [id(tri) for _, tri in drawn]
    # the law-of-cosines and projection suites each ask every pool triangle once
    assert len(cosines) == 100


def test_motion_invariance_moves_the_pool_in_order(monkeypatch):
    drawn, moved = [], []
    monkeypatch.setattr(selftest, "random_triangle", _counted(selftest, "random_triangle", drawn))
    monkeypatch.setattr(Triangle, "transformed", _counted(Triangle, "transformed", moved))
    run_selftest(5, 50)
    # the very objects random_triangle returned, one motion each
    assert len(drawn) == 50
    assert [id(tri) for tri, _ in moved] == [id(tri) for _, tri in drawn]


def test_no_draw_is_screened_at_the_default_tolerance(monkeypatch):
    # nullness grows with |theta| (D / (x^2 + y^2) of the euler point is 1 / cosh 2 theta),
    # so the widest angle drawn bounds every angle-roundtrip draw
    for k in KleinIndex:
        for theta in (-ANGLE_RANGE, ANGLE_RANGE):
            u = euler(ExtendedAngle(theta, k))
            _angle.from_point(u.x, u.y)
    # motion-invariance draws one motion per pool triangle
    motions = []
    monkeypatch.setattr(selftest, "random_motion", _counted(selftest, "random_motion", motions))
    for seed in range(10):
        run_selftest(seed, 300)
    assert len(motions) == 3000
