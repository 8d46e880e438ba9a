"""Ordinary Euclidean angle and area helpers, kept as an independent
cross-check route for the pseudo-Euclidean results."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroVector
from .geometry import PointP
from .hypnum import HyperbolicNumber


@dataclass(frozen=True)
class EuclideanAngleValues:
    cos: float
    sin: float
    radians: float


def euclid_angle(v1: HyperbolicNumber, v2: HyperbolicNumber) -> EuclideanAngleValues:
    """Euclidean angle from v1 to v2 (length-normalized, so null vectors are
    perfectly good arguments; only the zero vector is refused)."""
    n1 = math.hypot(v1.x, v1.y)
    n2 = math.hypot(v2.x, v2.y)
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroVector("cannot measure an angle against the zero vector")
    c = (v1.x * v2.x + v1.y * v2.y) / (n1 * n2)
    s = (v1.x * v2.y - v1.y * v2.x) / (n1 * n2)
    return EuclideanAngleValues(c, s, math.atan2(s, c))


def euclid_signed_area(p1: PointP, p2: PointP, p3: PointP) -> float:
    # kept textually identical to the shoelace sum in triangle.py so the two
    # routes agree bit for bit, not just to rounding
    return 0.5 * (p1.x * (p2.y - p3.y) + p2.x * (p3.y - p1.y) + p3.x * (p1.y - p2.y))
