"""Seeded randomized identity suites with normalized residual reporting.

Every suite draws its own inputs from one ``random.Random(seed)`` stream, so a
report is reproducible from (seed, n) alone.  Residuals are normalized by the
magnitude of the quantities entering each identity, which keeps the thresholds
meaningful across the whole sampled range instead of only near the origin.
"""
from __future__ import annotations

import math
import random

from . import angle as _angle
from .angle import ExtendedAngle, KleinIndex
from .errors import PseudoEuclidError
from .geometry import Motion, PointP
from .hyperbola import circumscribed
from .hypnum import HyperbolicNumber, from_polar, to_polar
from .tol import quadratic_form
from .triangle import Triangle

_ALL_KS = (KleinIndex.P1, KleinIndex.H, KleinIndex.M1, KleinIndex.MH)
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


def random_angle(rng: random.Random, span: float = ANGLE_RANGE,
                 ks: tuple[KleinIndex, ...] = _ALL_KS) -> ExtendedAngle:
    return ExtendedAngle(rng.uniform(-span, span), rng.choice(ks))


def random_triangle(rng: random.Random, margin: float = TRIANGLE_MARGIN) -> Triangle:
    """Vertices in a +-5 box, rejecting badly conditioned triples: every side
    must stay clear of the null lines and the area clear of zero, both
    relative to the Euclidean size of the sides."""
    while True:
        pts = [PointP(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)) for _ in range(3)]
        vecs = [(pts[1].x - pts[0].x, pts[1].y - pts[0].y),
                (pts[2].x - pts[1].x, pts[2].y - pts[1].y),
                (pts[2].x - pts[0].x, pts[2].y - pts[0].y)]
        if any(abs(quadratic_form(dx, dy)) < margin * (dx * dx + dy * dy) for dx, dy in vecs):
            continue
        two_s = Triangle._two_s(*pts)
        e1, e3 = vecs[0], vecs[2]
        if abs(two_s) < margin * math.hypot(*e1) * math.hypot(*e3):
            continue
        try:
            return Triangle(*pts)
        except PseudoEuclidError:  # pragma: no cover - excluded by the margins
            continue


def random_motion(rng: random.Random) -> Motion:
    rot = ExtendedAngle(rng.uniform(-MOTION_ANGLE_RANGE, MOTION_ANGLE_RANGE),
                        rng.choice(_PROPER_KS))
    return Motion(rot, HyperbolicNumber(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)))


def _check_quadratic(rng: random.Random, n: int) -> float:
    worst = 0.0
    for _ in range(n):
        a = random_angle(rng)
        c, s = _angle.cosh_sinh(a)
        kappa = 1.0 if a.k in _PROPER_KS else -1.0
        worst = max(worst, abs(c * c - s * s - kappa) / (1.0 + c * c + s * s))
    return worst


def _check_addition(rng: random.Random, n: int) -> float:
    worst = 0.0
    for _ in range(n):
        a, b = random_angle(rng), random_angle(rng)
        ca, sa = _angle.cosh_sinh(a)
        cb, sb = _angle.cosh_sinh(b)
        cs, ss = _angle.cosh_sinh(_angle.add_angles(a, b))
        scale = 1.0 + abs(ca * cb) + abs(sa * sb)
        worst = max(worst, abs(cs - (ca * cb + sa * sb)) / scale,
                    abs(ss - (ca * sb + sa * cb)) / scale)
    return worst


def _check_angle_roundtrip(rng: random.Random, n: int) -> float:
    worst = 0.0
    for _ in range(n):
        a = random_angle(rng)
        u = _angle.euler(a)
        back = _angle.from_point(u.x, u.y)
        if back.k is not a.k:
            return math.inf
        worst = max(worst, abs(back.theta - a.theta) / (1.0 + abs(a.theta)))
    return worst


def _check_polar_roundtrip(rng: random.Random, n: int) -> float:
    worst = 0.0
    count = 0
    while count < n:
        z = HyperbolicNumber(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX))
        if z.is_null():
            continue
        count += 1
        rho, a = to_polar(z)
        w = from_polar(rho, a)
        scale = 1.0 + math.hypot(z.x, z.y)
        worst = max(worst, math.hypot(w.x - z.x, w.y - z.y) / scale)
    return worst


def _triangle_pool(rng: random.Random, n: int) -> list:
    pool = []
    for _ in range(n):
        tri = random_triangle(rng)
        pool.append((tri, tri.elements()))
    return pool


def _check_area_triple(pool) -> float:
    worst = 0.0
    for _, el in pool:
        two_s = 2.0 * el.S
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            term = el.d[j] * el.d[k] * _angle.sinh_e(el.angles[i])
            worst = max(worst, abs(term - two_s) / (1.0 + abs(two_s) + abs(term)))
    return worst


def _check_sines(pool) -> float:
    return max(tri.law_of_sines_residual() for tri, _ in pool)


def _check_cosines(pool) -> float:
    return max(max(tri.law_of_cosines_check()[0]) for tri, _ in pool)


def _check_projection(pool) -> float:
    return max(max(tri.law_of_cosines_check()[1]) for tri, _ in pool)


def _check_angle_sum_sinh(pool) -> float:
    return max(abs(_angle.sinh_e(tri.angle_sum())) for tri, _ in pool)


def _check_angle_sum_cosh(pool) -> float:
    worst = 0.0
    for tri, el in pool:
        prod = el.d[0] * el.d[1] * el.d[2]
        target = -(el.D[0] * el.D[1] * el.D[2]) / (prod * prod)
        worst = max(worst, abs(_angle.cosh_e(tri.angle_sum()) - target))
    return worst


def _check_angle_sum_index(pool) -> float:
    bad = sum(1 for tri, _ in pool if tri.angle_sum().k not in _PROPER_KS)
    return float(bad)


def _check_motion_invariance(rng: random.Random, n: int) -> float:
    worst = 0.0
    for _ in range(n):
        tri = random_triangle(rng)
        el = tri.elements()
        moved = tri.transformed(random_motion(rng))
        el2 = moved.elements()
        for i in range(3):
            worst = max(worst, abs(el2.D[i] - el.D[i]) / (1.0 + abs(el.D[i])))
            a, b = el.angles[i], el2.angles[i]
            if a.k is not b.k:
                return math.inf
            worst = max(worst, abs(a.theta - b.theta) / (1.0 + abs(a.theta)))
        worst = max(worst, abs(el2.S - el.S) / (1.0 + abs(el.S)))
    return worst


def _check_circum(pool) -> float:
    worst = 0.0
    for tri, _ in pool:
        hyp = circumscribed(tri)
        for v in tri.vertices:
            dx, dy = v.x - hyp.center.x, v.y - hyp.center.y
            err = abs(quadratic_form(dx, dy) - hyp.P)
            worst = max(worst, err / max(abs(hyp.P), dx * dx + dy * dy))
    return worst


def run_selftest(seed: int = 0, n: int = 1000) -> dict:
    """Run every suite at n samples; returns a JSON-ready report."""
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    rng = random.Random(seed)
    # the suites share one stream: this order fixes every draw and the report order
    worst = {
        "quadratic-identity": _check_quadratic(rng, n),
        "angle-addition": _check_addition(rng, n),
        "angle-roundtrip": _check_angle_roundtrip(rng, n),
        "polar-roundtrip": _check_polar_roundtrip(rng, n),
    }
    pool = _triangle_pool(rng, n)
    worst["area-sine-triple"] = _check_area_triple(pool)
    worst["law-of-sines"] = _check_sines(pool)
    worst["law-of-cosines"] = _check_cosines(pool)
    worst["projection-law"] = _check_projection(pool)
    worst["angle-sum-sinh"] = _check_angle_sum_sinh(pool)
    worst["angle-sum-cosh"] = _check_angle_sum_cosh(pool)
    worst["angle-sum-index"] = _check_angle_sum_index(pool)
    worst["motion-invariance"] = _check_motion_invariance(rng, n)
    worst["circum-equidistance"] = _check_circum(pool)
    checks = {}
    for name, value in worst.items():
        limit = THRESHOLDS[name]
        checks[name] = {"samples": n, "worst": value, "limit": limit, "ok": value <= limit}
    failed = [name for name, check in checks.items() if not check["ok"]]
    return {"seed": seed, "n": n, "checks": checks, "failed": failed, "ok": not failed}
