"""Points, segments and straight lines of the pseudo-Euclidean plane.

Lines come in two kinds, named after the kind of segment that spans them:
first kind (more horizontal than the null lines, |slope| < 1) and second kind
(|slope| > 1).  A line is stored as an anchor point plus a unit direction, so
vertical lines need no special casing; slope/intercept is a derived view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import angle as _angle
from .angle import ExtendedAngle, KleinIndex
from .errors import InvalidInput, NullDirection, ParallelRays
from .hypnum import HyperbolicNumber
from .tol import is_null_xy, quadratic_form

# residual thresholds for incidence/orthogonality predicates, scaled by the
# Euclidean size of whatever enters the expression
INCIDENCE_TOL = 1e-9
PARALLEL_TOL = 1e-12


@dataclass(frozen=True)
class PointP:
    """A point of the plane (the same coordinates as a hyperbolic number)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


class SegmentKind(Enum):
    FIRST = "first"
    SECOND = "second"
    NULL = "null"


def displacement(p: PointP, q: PointP) -> HyperbolicNumber:
    """The vector from p to q as a hyperbolic number."""
    return HyperbolicNumber(q.x - p.x, q.y - p.y)


def midpoint(p: PointP, q: PointP) -> PointP:
    return PointP((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


def square_distance(p: PointP, q: PointP) -> float:
    """D = (qx-px)^2 - (qy-py)^2, positive for first-kind separations."""
    return quadratic_form(q.x - p.x, q.y - p.y)


def segment_kind(p: PointP, q: PointP) -> SegmentKind:
    dx, dy = q.x - p.x, q.y - p.y
    if is_null_xy(dx, dy):
        return SegmentKind.NULL
    # off the null lines |dx| > |dy| is the sign of D, and cannot underflow
    return SegmentKind.FIRST if abs(dx) > abs(dy) else SegmentKind.SECOND


def _euclid_norm(v: HyperbolicNumber) -> float:
    return math.hypot(v.x, v.y)


def _cross(v1: HyperbolicNumber, v2: HyperbolicNumber) -> float:
    return v1.x * v2.y - v1.y * v2.x


def _pseudo_dot(v1: HyperbolicNumber, v2: HyperbolicNumber) -> float:
    return v1.x * v2.x - v1.y * v2.y


@dataclass(frozen=True)
class PELine:
    """Anchor plus unit direction; the direction is normalized on construction."""

    anchor: PointP
    direction: HyperbolicNumber

    def __post_init__(self) -> None:
        d = self.direction
        if d.is_null():
            raise NullDirection("a line needs a non-null direction")
        rho = d.module()
        object.__setattr__(self, "direction", HyperbolicNumber(d.x / rho, d.y / rho))

    @property
    def kind(self) -> SegmentKind:
        return SegmentKind.FIRST if self.direction.square_module() > 0 else SegmentKind.SECOND

    @property
    def theta(self) -> float:
        """Hyperbolic slope angle: referred to the x axis for first-kind lines,
        to the y axis for second-kind ones."""
        return _angle.from_point(self.direction.x, self.direction.y).theta

    def residual(self, p: PointP) -> float:
        """Signed incidence defect: the cross term of (p - anchor) with the direction."""
        return _cross(displacement(self.anchor, p), self.direction)

    def contains(self, p: PointP) -> bool:
        scale = 1.0 + abs(p.x) + abs(p.y) + abs(self.anchor.x) + abs(self.anchor.y)
        return abs(self.residual(p)) <= INCIDENCE_TOL * scale * _euclid_norm(self.direction)

    def parallel_to(self, other: "PELine") -> bool:
        n = _euclid_norm(self.direction) * _euclid_norm(other.direction)
        return abs(_cross(self.direction, other.direction)) <= PARALLEL_TOL * n

    def slope_intercept(self) -> tuple[float, float]:
        """(m, q) with y = m x + q; fails for vertical lines."""
        d = self.direction
        if d.x == 0.0:
            raise InvalidInput("vertical line has no slope-intercept form")
        m = d.y / d.x
        return m, self.anchor.y - m * self.anchor.x

    @classmethod
    def from_slope_intercept(cls, m: float, q: float) -> "PELine":
        if is_null_xy(1.0, m):
            raise NullDirection(f"slope {m} is a null direction")
        return cls(PointP(0.0, q), HyperbolicNumber(1.0, m))


def line_through(p: PointP, q: PointP) -> PELine:
    """The unique line through two points; their separation must not be null."""
    disp = displacement(p, q)
    if disp.is_null():
        raise NullDirection(f"{p} and {q} are null-separated")
    return PELine(p, disp)


def pseudo_orthogonal(l1: PELine, l2: PELine) -> bool:
    """True when the directions have vanishing scalar product x1 x2 - y1 y2.

    Equivalent to the slope product m1*m2 = +1, and to the two directions
    being mirror images in the null lines; it never holds for two lines of
    the same kind.
    """
    n = _euclid_norm(l1.direction) * _euclid_norm(l2.direction)
    return abs(_pseudo_dot(l1.direction, l2.direction)) <= INCIDENCE_TOL * n


def orthogonal_line_at(line: PELine, p: PointP) -> PELine:
    """The line through p pseudo-orthogonal to ``line``.

    Swapping the direction components flips the kind and keeps theta, and the
    swapped vector is automatically orthogonal in the pseudo scalar product.
    """
    d = line.direction
    return PELine(p, HyperbolicNumber(d.y, d.x))


def segment_axis(p1: PointP, p2: PointP) -> PELine:
    """Locus of points pseudo-equidistant from p1 and p2.

    Passes through the midpoint with direction (dy, dx): pseudo-orthogonal to
    the segment and of the opposite kind.  Null segments have no axis.
    """
    disp = displacement(p1, p2)
    if disp.is_null():
        raise NullDirection("null segment has no axis")
    return PELine(midpoint(p1, p2), HyperbolicNumber(disp.y, disp.x))


def line_intersection(l1: PELine, l2: PELine) -> PointP:
    den = _cross(l1.direction, l2.direction)
    n = _euclid_norm(l1.direction) * _euclid_norm(l2.direction)
    if abs(den) <= PARALLEL_TOL * n:
        raise ParallelRays("lines are parallel")
    t = _cross(displacement(l1.anchor, l2.anchor), l2.direction) / den
    return PointP(l1.anchor.x + t * l1.direction.x, l1.anchor.y + t * l1.direction.y)


def point_line_distance(p: PointP, line: PELine) -> tuple[float, PointP]:
    """Square distance D from p to a line, as a signed float, and the foot point.

    The foot is where the pseudo-orthogonal line through p meets the given
    line; among nearby points of the line it extremizes |D| (a maximum, in
    contrast with the Euclidean situation).
    """
    foot = line_intersection(line, orthogonal_line_at(line, p))
    return square_distance(p, foot), foot


@dataclass(frozen=True)
class Motion:
    """A pseudo-rotation followed by a translation: p -> p * euler(rotation) + offset.

    With rotation index +-1 this is a proper rigid motion of the plane (it
    preserves square distances, angles, and orientation).
    """

    rotation: ExtendedAngle
    offset: HyperbolicNumber

    @classmethod
    def identity(cls) -> "Motion":
        return cls(ExtendedAngle(0.0, KleinIndex.P1), HyperbolicNumber(0.0, 0.0))

    def is_proper(self) -> bool:
        return self.rotation.k.kappa > 0

    def apply(self, p: PointP) -> PointP:
        w = HyperbolicNumber(p.x, p.y) * _angle.euler(self.rotation) + self.offset
        return PointP(w.x, w.y)

    def inverted(self) -> "Motion":
        back = ExtendedAngle(-self.rotation.theta, self.rotation.k)
        shift = -(self.offset * _angle.euler(back))
        return Motion(back, shift)
