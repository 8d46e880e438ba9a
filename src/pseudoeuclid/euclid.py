"""Ordinary Euclidean angle and area helpers, kept as an independent
cross-check route for the pseudo-Euclidean results."""

import math

from ._value import _Value, _setters
from .errors import ZeroVector
from .geometry import PointP
from .hypnum import HyperbolicNumber
from .tol import rescaled

__all__ = ["EuclideanAngleValues", "euclid_angle", "euclid_signed_area"]


class EuclideanAngleValues(_Value):
    __slots__ = _fields = ("cos", "sin", "radians")

    def __init__(self, cos: float, sin: float, radians: float) -> None:
        _set_cos(self, cos)
        _set_sin(self, sin)
        _set_radians(self, radians)


_set_cos, _set_sin, _set_radians = _setters(EuclideanAngleValues)


def euclid_angle(v1: HyperbolicNumber, v2: HyperbolicNumber) -> EuclideanAngleValues:
    """Euclidean angle from v1 to v2 (length-normalized, so null vectors are
    perfectly good arguments; only the zero vector is refused)."""
    # on copies scaled by powers of two, which keep the angle, no norm, dot or
    # cross overflows or underflows
    (x1, y1, _), (x2, y2, _) = rescaled(v1.x, v1.y), rescaled(v2.x, v2.y)
    n1 = math.hypot(x1, y1)
    n2 = math.hypot(x2, y2)
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroVector("cannot measure an angle against the zero vector")
    c = (x1 * x2 + y1 * y2) / (n1 * n2)
    s = (x1 * y2 - y1 * x2) / (n1 * n2)
    return EuclideanAngleValues(c, s, math.atan2(s, c))


def euclid_signed_area(p1: PointP, p2: PointP, p3: PointP) -> float:
    # half the cross of p2 - p1 and p3 - p1 in the operations and order of the S of
    # Triangle.elements(), so the two routes agree bit for bit, not just to rounding
    return 0.5 * ((p2.x - p1.x) * (p3.y - p1.y) - (p2.y - p1.y) * (p3.x - p1.x))
