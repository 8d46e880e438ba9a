"""Seeded randomized identity suites with normalized residual reporting.

Every suite draws its own inputs from one ``random.Random(seed)`` stream, so a
report is reproducible from (seed, n) alone.  Residuals are normalized by the
magnitude of the quantities entering each identity, which keeps the thresholds
meaningful across the whole sampled range instead of only near the origin.
"""
from __future__ import annotations

import math
import random
from collections.abc import Iterator

from . import angle as _angle
from .angle import ExtendedAngle, KleinIndex
from .errors import InvalidInput, PseudoEuclidError
from .geometry import Motion, PointP
from .hyperbola import circumscribed
from .hypnum import HyperbolicNumber, euler, from_polar, to_polar
from .tol import quadratic_form
from .triangle import Triangle, _worst

__all__ = ["run_selftest"]

_ALL_KS = tuple(KleinIndex)
_PROPER_KS = (KleinIndex.P1, KleinIndex.M1)

ANGLE_RANGE = 5.0
MOTION_ANGLE_RANGE = 3.0
BOX = 5.0
TRIANGLE_MARGIN = 1e-3

THRESHOLDS = {
    "quadratic-identity": 1e-12,
    "angle-addition": 1e-10,
    "angle-roundtrip": 1e-10,
    "polar-roundtrip": 1e-10,
    "area-sine-triple": 1e-10,
    "law-of-sines": 1e-10,
    "law-of-cosines": 1e-9,
    "projection-law": 1e-9,
    "angle-sum-sinh": 1e-9,
    "angle-sum-cosh": 1e-8,
    "angle-sum-index": 0.0,
    "motion-invariance": 1e-9,
    "circum-equidistance": 1e-9,
}


def random_angle(rng: random.Random) -> ExtendedAngle:
    return ExtendedAngle(rng.uniform(-ANGLE_RANGE, ANGLE_RANGE), rng.choice(_ALL_KS))


def _near_null(dx: float, dy: float) -> bool:
    return abs(quadratic_form(dx, dy)) < TRIANGLE_MARGIN * (dx * dx + dy * dy)


def random_triangle(rng: random.Random) -> Triangle:
    """Vertices in a +-5 box, rejecting badly conditioned triples: every side
    must stay clear of the null lines and the area clear of zero, both
    relative to the Euclidean size of the sides."""
    # rng.uniform(-BOX, BOX) is lo + span * rng.random(), drawn here without its call
    draw, lo, span = rng.random, -BOX, BOX - -BOX
    while True:
        x1, y1 = lo + span * draw(), lo + span * draw()
        x2, y2 = lo + span * draw(), lo + span * draw()
        x3, y3 = lo + span * draw(), lo + span * draw()
        # the sides p1p2, p2p3, p1p3; points are built only for a triple that passes
        ex, ey, gx, gy, fx, fy = x2 - x1, y2 - y1, x3 - x2, y3 - y2, x3 - x1, y3 - y1
        if _near_null(ex, ey) or _near_null(gx, gy) or _near_null(fx, fy):
            continue
        if abs(ex * fy - ey * fx) < TRIANGLE_MARGIN * math.hypot(ex, ey) * math.hypot(fx, fy):
            continue
        try:
            return Triangle(PointP(x1, y1), PointP(x2, y2), PointP(x3, y3))
        except PseudoEuclidError:  # pragma: no cover - excluded by the margins
            continue


def random_motion(rng: random.Random) -> Motion:
    rot = ExtendedAngle(rng.uniform(-MOTION_ANGLE_RANGE, MOTION_ANGLE_RANGE),
                        rng.choice(_PROPER_KS))
    return Motion(rot, HyperbolicNumber(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)))


def _check_quadratic(rng: random.Random, n: int) -> Iterator[float]:
    for _ in range(n):
        a = random_angle(rng)
        c, s = _angle.cosh_sinh(a)
        yield abs(c * c - s * s - a.k.kappa) / (1.0 + c * c + s * s)


def _check_addition(rng: random.Random, n: int) -> Iterator[float]:
    for _ in range(n):
        a, b = random_angle(rng), random_angle(rng)
        ca, sa = _angle.cosh_sinh(a)
        cb, sb = _angle.cosh_sinh(b)
        cs, ss = _angle.cosh_sinh(_angle.add_angles(a, b))
        scale = 1.0 + abs(ca * cb) + abs(sa * sb)
        yield abs(cs - (ca * cb + sa * sb)) / scale
        yield abs(ss - (ca * sb + sa * cb)) / scale


def _check_angle_roundtrip(rng: random.Random, n: int) -> Iterator[float]:
    for _ in range(n):
        a = random_angle(rng)
        u = euler(a)
        back = _angle.from_point(u.x, u.y)
        if back.k is not a.k:
            yield math.inf
            return
        yield abs(back.theta - a.theta) / (1.0 + abs(a.theta))


def _check_polar_roundtrip(rng: random.Random, n: int) -> Iterator[float]:
    count = 0
    while count < n:
        z = HyperbolicNumber(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX))
        if z.is_null():
            continue
        count += 1
        rho, a = to_polar(z)
        w = from_polar(rho, a)
        scale = 1.0 + math.hypot(z.x, z.y)
        yield math.hypot(w.x - z.x, w.y - z.y) / scale


def _triangle_pool(rng: random.Random, n: int) -> list:
    pool = []
    for _ in range(n):
        tri = random_triangle(rng)
        pool.append((tri, tri.elements()))
    return pool


def _check_area_triple(pool) -> Iterator[float]:
    for _, el in pool:
        two_s = 2.0 * el.S
        for term in Triangle._sine_products(el):
            yield abs(term - two_s) / (1.0 + abs(two_s) + abs(term))


def _check_sines(pool) -> Iterator[float]:
    return (tri.law_of_sines_residual() for tri, _ in pool)


def _check_cosines(pool) -> Iterator[float]:
    return (r for tri, _ in pool for r in tri.law_of_cosines_check()[0])


def _check_projection(pool) -> Iterator[float]:
    return (r for tri, _ in pool for r in tri.law_of_cosines_check()[1])


def _check_angle_sum_sinh(pool) -> Iterator[float]:
    return (abs(_angle.sinh_e(tri.angle_sum())) for tri, _ in pool)


def _check_angle_sum_cosh(pool) -> Iterator[float]:
    for tri, el in pool:
        D1, D2, D3 = el.D
        # -(D1 D2 D3) / (d1 d2 d3)^2 is exactly -sign(D1 D2 D3): +1 where an odd
        # number of the D are negative, found by comparisons that cannot overflow
        target = 1.0 if ((D1 < 0.0) != (D2 < 0.0)) != (D3 < 0.0) else -1.0
        yield abs(_angle.cosh_e(tri.angle_sum()) - target)


def _check_angle_sum_index(pool) -> float:
    bad = sum(1 for tri, _ in pool if tri.angle_sum().k.kappa < 0)
    return float(bad)


def _check_motion_invariance(rng: random.Random, n: int) -> Iterator[float]:
    for _ in range(n):
        tri = random_triangle(rng)
        el = tri.elements()
        moved = tri.transformed(random_motion(rng))
        el2 = moved.elements()
        for i in range(3):
            yield abs(el2.D[i] - el.D[i]) / (1.0 + abs(el.D[i]))
            a, b = el.angles[i], el2.angles[i]
            if a.k is not b.k:
                yield math.inf
                return
            yield abs(a.theta - b.theta) / (1.0 + abs(a.theta))
        yield abs(el2.S - el.S) / (1.0 + abs(el.S))


def _check_circum(pool) -> Iterator[float]:
    for tri, _ in pool:
        hyp = circumscribed(tri)
        for v in tri.vertices:
            dx, dy = v.x - hyp.center.x, v.y - hyp.center.y
            err = abs(quadratic_form(dx, dy) - hyp.P)
            # max(P, r2) as the comparison it makes
            P, r2 = abs(hyp.P), dx * dx + dy * dy
            yield err / (r2 if r2 > P else P)


def run_selftest(seed: int = 0, n: int = 1000) -> dict:
    """Run every suite at n samples; returns a JSON-ready report."""
    if not isinstance(n, int):
        raise InvalidInput(f"sample count must be an int, got {n!r}")
    if n <= 0:
        raise InvalidInput(f"sample count must be positive, got {n}")
    rng = random.Random(seed)
    # the suites share one stream: this order fixes every draw and the report order
    worst = {
        "quadratic-identity": _worst(_check_quadratic(rng, n)),
        "angle-addition": _worst(_check_addition(rng, n)),
        "angle-roundtrip": _worst(_check_angle_roundtrip(rng, n)),
        "polar-roundtrip": _worst(_check_polar_roundtrip(rng, n)),
    }
    pool = _triangle_pool(rng, n)
    worst["area-sine-triple"] = _worst(_check_area_triple(pool))
    worst["law-of-sines"] = _worst(_check_sines(pool))
    worst["law-of-cosines"] = _worst(_check_cosines(pool))
    worst["projection-law"] = _worst(_check_projection(pool))
    worst["angle-sum-sinh"] = _worst(_check_angle_sum_sinh(pool))
    worst["angle-sum-cosh"] = _worst(_check_angle_sum_cosh(pool))
    worst["angle-sum-index"] = _check_angle_sum_index(pool)
    worst["motion-invariance"] = _worst(_check_motion_invariance(rng, n))
    worst["circum-equidistance"] = _worst(_check_circum(pool))
    checks = {}
    for name, value in worst.items():
        limit = THRESHOLDS[name]
        checks[name] = {"samples": n, "worst": value, "limit": limit, "ok": value <= limit}
    failed = [name for name, check in checks.items() if not check["ok"]]
    return {"seed": seed, "n": n, "checks": checks, "failed": failed, "ok": not failed}
