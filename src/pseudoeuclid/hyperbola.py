"""Equilateral hyperbolas as the circles of the pseudo-Euclidean plane.

The locus (x - xc)^2 - (y - yc)^2 = P with P != 0 is the set of points at
constant square distance P from the center.  For P > 0 the two arms open
left and right (Klein indices +1 and -1, a curve of the second kind); for
P < 0 they open up and down (indices +h and -h, first kind).  Points are
parametrized as center + p * euler((theta, k)) with p = sqrt(|P|) and k the
arm index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import angle as _angle
from .angle import ExtendedAngle, KleinIndex
from .errors import InvalidInput, NotOnHyperbola, NullDirection
from .geometry import PELine, PointP, displacement, line_intersection, segment_axis
from .hypnum import HyperbolicNumber, angle_between
from .tol import quadratic_form

CONTAINS_TOL = 1e-9
ORTHO_TOL = 1e-9

_FIRST_ARMS = (KleinIndex.H, KleinIndex.MH)
_SECOND_ARMS = (KleinIndex.P1, KleinIndex.M1)


class ChordClass(Enum):
    EXTERNAL = "external"  # both endpoints on one arm
    INTERNAL = "internal"  # endpoints on opposite arms


@dataclass(frozen=True)
class Chord:
    a: PointP
    b: PointP
    chord_class: ChordClass
    D: float


@dataclass(frozen=True)
class EquilateralHyperbola:
    center: PointP
    P: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "P", float(self.P))
        if not math.isfinite(self.P):
            raise InvalidInput(f"P must be finite, got {self.P!r}")
        if self.P == 0.0:
            raise InvalidInput("P = 0 degenerates to the pair of null lines")

    @property
    def p(self) -> float:
        """Radius modulus sqrt(|P|)."""
        return math.sqrt(abs(self.P))

    @property
    def arms(self) -> tuple[KleinIndex, KleinIndex]:
        return _SECOND_ARMS if self.P > 0 else _FIRST_ARMS

    @property
    def kind(self) -> str:
        # named after the kind of its tangent (and same-arm chord) segments
        return "second" if self.P > 0 else "first"

    def contains(self, point: PointP) -> bool:
        dx, dy = point.x - self.center.x, point.y - self.center.y
        residual = quadratic_form(dx, dy) - self.P
        return abs(residual) <= CONTAINS_TOL * (abs(self.P) + dx * dx + dy * dy)

    def _require(self, point: PointP, name: str) -> HyperbolicNumber:
        if not self.contains(point):
            raise NotOnHyperbola(f"{name} = {point} does not lie on the locus")
        return displacement(self.center, point)

    def param_of(self, point: PointP) -> ExtendedAngle:
        """Angle-plus-arm parameter of a point of the locus."""
        d = self._require(point, "point")
        return _angle.from_point(d.x, d.y)

    def point_at(self, a: ExtendedAngle) -> PointP:
        if a.k not in self.arms:
            raise InvalidInput(f"arm {a.k.label} does not occur on this hyperbola")
        u = _angle.euler(a)
        return PointP(self.center.x + self.p * u.x, self.center.y + self.p * u.y)

    def sample_arm(self, k: KleinIndex, lo: float, hi: float, n: int) -> list[PointP]:
        """n points with evenly spaced parameters on arm k, endpoints included."""
        if k not in self.arms:
            raise InvalidInput(f"arm {k.label} does not occur on this hyperbola")
        if n < 1:
            raise InvalidInput(f"need at least one sample, got n={n}")
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInput("parameter range must be finite")
        if n == 1:
            return [self.point_at(ExtendedAngle(lo, k))]
        step = (hi - lo) / (n - 1)
        return [self.point_at(ExtendedAngle(lo + i * step, k)) for i in range(n)]

    def chord(self, a: PointP, b: PointP) -> Chord:
        """The chord through two distinct points of the locus.

        Chords joining opposite arms are internal (they separate the arms'
        convex sides) and have |D| = 4 p^2 cosh^2((theta_a - theta_b)/2), so
        the diameter is the internal chord of least |D|; same-arm chords are
        external and never null.
        """
        ka = self.param_of(a).k
        kb = self.param_of(b).k
        d = displacement(a, b)
        if d.is_null():
            raise NullDirection("chord endpoints coincide")
        cls = ChordClass.EXTERNAL if (ka * kb) is KleinIndex.P1 else ChordClass.INTERNAL
        return Chord(a, b, cls, d.square_module())

    def diameter_square_length(self) -> float:
        """|D| of every diameter: 4 p^2 (the minimum over internal chords)."""
        return 4.0 * self.p * self.p

    def antipode(self, point: PointP) -> PointP:
        d = self._require(point, "point")
        return PointP(self.center.x - d.x, self.center.y - d.y)

    def midpoint_orthogonality_residual(self, a: PointP, b: PointP) -> float:
        """Normalized scalar product between a chord and the radius through
        its midpoint; vanishes identically (the analogue of the Euclidean
        perpendicular bisector through the center).

        Diameters are excluded: their midpoint is the center itself.
        """
        self._require(a, "a")
        self._require(b, "b")
        chord = displacement(a, b)
        if chord.is_null():
            raise NullDirection("chord endpoints coincide")
        mid = HyperbolicNumber((a.x + b.x) / 2.0 - self.center.x,
                               (a.y + b.y) / 2.0 - self.center.y)
        if mid.is_null():
            raise NullDirection("chord is a diameter: its midpoint is the center")
        dot = mid.x * chord.x - mid.y * chord.y
        return abs(dot) / (math.hypot(mid.x, mid.y) * math.hypot(chord.x, chord.y))

    def tangent_at(self, point: PointP) -> PELine:
        """Tangent line at a point of the locus.

        Its direction swaps the radius components; walking a parameter t along
        the unit direction the square distance from the center is
        P - sign(P) t^2, so the line meets the locus at the tangency point
        only.
        """
        d = self._require(point, "point")
        return PELine(point, HyperbolicNumber(d.y, d.x))

    def central_angle(self, a: PointP, b: PointP) -> ExtendedAngle:
        """Angle between the radii to a and b (from a toward b)."""
        if a == b:
            return ExtendedAngle(0.0, KleinIndex.P1)
        va = self._require(a, "a")
        vb = self._require(b, "b")
        return angle_between(va, vb)

    def inscribed_angle(self, vertex: PointP, a: PointP, b: PointP) -> ExtendedAngle:
        """Angle under which the chord ab is seen from a vertex of the arc.

        The vertex must lie strictly between a and b on their common arm; the
        result ((theta_b - theta_a)/2, k) does not depend on where, and the
        central angle over the same chord doubles its theta with the same
        index k.
        """
        if a == b:
            return ExtendedAngle(0.0, KleinIndex.P1)
        pa, pb = self.param_of(a), self.param_of(b)
        pv = self.param_of(vertex)
        if not (pa.k is pb.k is pv.k):
            raise InvalidInput("vertex and chord endpoints must share one arm")
        if vertex == a or vertex == b:
            raise NullDirection("vertex coincides with a chord endpoint")
        lo, hi = min(pa.theta, pb.theta), max(pa.theta, pb.theta)
        if not (lo < pv.theta < hi):
            raise InvalidInput("vertex does not lie on the arc between a and b")
        return angle_between(displacement(vertex, a), displacement(vertex, b))

    def thales_residual(self, vertex: PointP, a: PointP) -> float:
        """Normalized scalar product of the rays from a vertex to the two ends
        of the diameter through a; identically zero, i.e. a diameter is seen
        from every other point of the locus under a right angle (0, +-h)."""
        b = self.antipode(a)
        self._require(vertex, "vertex")
        if vertex == a or vertex == b:
            raise NullDirection("vertex coincides with a diameter endpoint")
        va = displacement(vertex, a)
        vb = displacement(vertex, b)
        dot = va.x * vb.x - va.y * vb.y
        return abs(dot) / (math.hypot(va.x, va.y) * math.hypot(vb.x, vb.y))


def circumscribed(tri) -> EquilateralHyperbola:
    """The unique equilateral hyperbola through the three vertices of a
    triangle: its center is the meet of two segment axes, and its radius
    satisfies p = d1 d2 d3 / (4S) and P = -D1 D2 D3 / (16 S^2)."""
    axis12 = segment_axis(tri.p1, tri.p2)
    axis13 = segment_axis(tri.p1, tri.p3)
    center = line_intersection(axis12, axis13)
    d = displacement(center, tri.p1)
    return EquilateralHyperbola(center, d.square_module())
