"""Points, segments and straight lines of the pseudo-Euclidean plane.

Lines come in two kinds, named after the kind of segment that spans them:
first kind (more horizontal than the null lines, |slope| < 1) and second kind
(|slope| > 1).  A line is stored as an anchor point plus a unit direction, so
vertical lines need no special casing; slope/intercept is a derived view.
"""

import math
from enum import Enum

from . import angle as _angle
from ._value import _Value, _setters
from .angle import _P1, ExtendedAngle
from .errors import InvalidInput, NullDirection, ParallelRays
from .hypnum import HyperbolicNumber
from .tol import is_null_xy, quadratic_form, rescaled

__all__ = [
    "Motion", "PELine", "PointP", "SegmentKind", "displacement", "line_intersection",
    "line_through", "midpoint", "orthogonal_line_at", "point_line_distance", "pseudo_orthogonal",
    "segment_axis", "segment_kind", "square_distance",
]

# residual thresholds for incidence/orthogonality predicates, scaled by the
# Euclidean size of whatever enters the expression
INCIDENCE_TOL = 1e-9
PARALLEL_TOL = 1e-12


# a point of the plane is the hyperbolic number with its coordinates, so a
# motion is a product with a unit number plus a sum
PointP = HyperbolicNumber


class SegmentKind(Enum):
    FIRST = "first"
    SECOND = "second"
    NULL = "null"


def displacement(p: PointP, q: PointP) -> HyperbolicNumber:
    """The vector from p to q as a hyperbolic number."""
    return HyperbolicNumber(q.x - p.x, q.y - p.y)


def midpoint(p: PointP, q: PointP) -> PointP:
    x, y = (p.x + q.x) / 2.0, (p.y + q.y) / 2.0
    # a sum near the largest double overflows; halving first does not
    if not (math.isfinite(x) and math.isfinite(y)):
        x, y = p.x / 2.0 + q.x / 2.0, p.y / 2.0 + q.y / 2.0
    return PointP(x, y)


def _difference(p: PointP, q: PointP) -> tuple[float, float, float]:
    """(dx, dy, f) with q - p = f (dx, dy): the difference itself and f = 1, or, where
    it overflows near the largest double, the difference of the halves, which fits, and f = 2."""
    dx, dy = q.x - p.x, q.y - p.y
    if math.isfinite(dx) and math.isfinite(dy):
        return dx, dy, 1.0
    return q.x / 2.0 - p.x / 2.0, q.y / 2.0 - p.y / 2.0, 2.0


def square_distance(p: PointP, q: PointP) -> float:
    """D = (qx-px)^2 - (qy-py)^2, positive for first-kind separations."""
    dx, dy, f = _difference(p, q)
    return f * f * quadratic_form(dx, dy)


def segment_kind(p: PointP, q: PointP) -> SegmentKind:
    # the halves of an overflowing difference keep the kind
    dx, dy, _ = _difference(p, q)
    if is_null_xy(dx, dy):
        return SegmentKind.NULL
    # off the null lines |dx| > |dy| is the sign of D, and cannot underflow
    return SegmentKind.FIRST if abs(dx) > abs(dy) else SegmentKind.SECOND


def _parallel(cross: float, ax: float, ay: float, bx: float, by: float) -> bool:
    """The one flatness test: (ax, ay) and (bx, by), whose cross is ``cross``,
    are parallel when |cross| <= PARALLEL_TOL |a| |b|."""
    # TOL |a| first: |a| |b| alone can overflow where the cross fits
    return abs(cross) <= PARALLEL_TOL * math.hypot(ax, ay) * math.hypot(bx, by)


def _normalized_dot(v1: HyperbolicNumber, v2: HyperbolicNumber) -> float:
    # |x1 x2 - y1 y2| per unit of Euclidean size; zero for pseudo-orthogonal vectors.
    # As in euclid_angle: on copies scaled by powers of two, which keep the ratio,
    # neither product overflows or underflows
    (x1, y1, _), (x2, y2, _) = rescaled(v1.x, v1.y), rescaled(v2.x, v2.y)
    return abs(x1 * x2 - y1 * y2) / (math.hypot(x1, y1) * math.hypot(x2, y2))


class PELine(_Value):
    """Anchor plus unit direction; the direction is normalized on construction."""

    __slots__ = _fields = ("anchor", "direction")

    def __init__(self, anchor: PointP, direction: HyperbolicNumber) -> None:
        d = direction
        if d.is_null():
            raise NullDirection(f"({d.x}, {d.y}) is a null direction; a line needs a non-null one")
        rho = d.module()
        _set_anchor(self, anchor)
        _set_direction(self, HyperbolicNumber(d.x / rho, d.y / rho))

    @property
    def kind(self) -> SegmentKind:
        return SegmentKind.FIRST if self.direction.square_module() > 0 else SegmentKind.SECOND

    @property
    def theta(self) -> float:
        """Hyperbolic slope angle: referred to the x axis for first-kind lines,
        to the y axis for second-kind ones."""
        return _angle.from_point(self.direction.x, self.direction.y).theta

    def _defect(self, p: PointP) -> tuple[float, float, float]:
        # residual(p), and the cross and the scale |p| + |anchor| that contains
        # compares, both on the coordinates as scaled.  Near the largest double
        # the scale, and so p - anchor, overflows; both are homogeneous in p and
        # the anchor, and on their quarters neither overflows (on halves, as
        # segment_kind takes, the sum can), so the cross is multiplied back by 4
        px, py, ax, ay, f = p.x, p.y, self.anchor.x, self.anchor.y, 1.0
        scale = abs(px) + abs(py) + abs(ax) + abs(ay)
        if scale == math.inf:
            px, py, ax, ay, f = px / 4.0, py / 4.0, ax / 4.0, ay / 4.0, 4.0
            scale = abs(px) + abs(py) + abs(ax) + abs(ay)
        cross = (px - ax) * self.direction.y - (py - ay) * self.direction.x
        return f * cross, cross, scale

    def residual(self, p: PointP) -> float:
        """Signed incidence defect: the cross term of (p - anchor) with the direction."""
        return self._defect(p)[0]

    def contains(self, p: PointP) -> bool:
        """True when |residual(p)| <= INCIDENCE_TOL (|px| + |py| + |ax| + |ay|) |e|,
        with a the anchor and e the direction: scale-free, so a point and a line
        scaled together get the same verdict at every magnitude."""
        _, cross, scale = self._defect(p)
        d = self.direction
        return abs(cross) <= INCIDENCE_TOL * scale * math.hypot(d.x, d.y)

    def slope_intercept(self) -> tuple[float, float]:
        """(m, q) with y = m x + q; fails for vertical lines, and where m or q
        does not fit a double."""
        d = self.direction
        if d.x == 0.0:
            raise InvalidInput("vertical line has no slope-intercept form")
        m = d.y / d.x
        q = self.anchor.y - m * self.anchor.x
        if not (math.isfinite(m) and math.isfinite(q)):
            raise InvalidInput(f"the slope and intercept ({m!r}, {q!r}) do not fit a double")
        return m, q

    @classmethod
    def from_slope_intercept(cls, m: float, q: float) -> "PELine":
        return cls(PointP(0.0, q), HyperbolicNumber(1.0, m))


_set_anchor, _set_direction = _setters(PELine)


def line_through(p: PointP, q: PointP) -> PELine:
    """The unique line through two points; their separation must not be null."""
    return PELine(p, displacement(p, q))


def pseudo_orthogonal(l1: PELine, l2: PELine) -> bool:
    """True when the directions have vanishing scalar product x1 x2 - y1 y2.

    Equivalent to the slope product m1*m2 = +1, and to the two directions
    being mirror images in the null lines; it never holds for two lines of
    the same kind.
    """
    return _normalized_dot(l1.direction, l2.direction) <= INCIDENCE_TOL


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
    return PELine(midpoint(p1, p2), HyperbolicNumber(disp.y, disp.x))


def line_intersection(l1: PELine, l2: PELine) -> PointP:
    a, e1, e2 = l1.anchor, l1.direction, l2.direction
    den = e1.x * e2.y - e1.y * e2.x
    if _parallel(den, e1.x, e1.y, e2.x, e2.y):
        raise ParallelRays("lines are parallel")
    v = displacement(a, l2.anchor)
    t = (v.x * e2.y - v.y * e2.x) / den
    x, y = a.x + t * e1.x, a.y + t * e1.y
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInput(f"the meet point ({x!r}, {y!r}) does not fit a double")
    return PointP(x, y)


def point_line_distance(p: PointP, line: PELine) -> tuple[float, PointP]:
    """Square distance D from p to a line, as a signed float, and the foot point.

    The foot is where the pseudo-orthogonal line through p meets the given
    line; among nearby points of the line it extremizes |D| (a maximum, in
    contrast with the Euclidean situation).
    """
    foot = line_intersection(line, orthogonal_line_at(line, p))
    return square_distance(p, foot), foot


class Motion(_Value):
    """A pseudo-rotation followed by a translation: p -> p * euler(rotation) + offset.

    With rotation index +-1 this is a proper rigid motion of the plane (it
    preserves square distances, angles, and orientation).
    """

    __slots__ = _fields = ("rotation", "offset")

    def __init__(self, rotation: ExtendedAngle, offset: HyperbolicNumber) -> None:
        _set_rotation(self, rotation)
        _set_offset(self, offset)

    @classmethod
    def identity(cls) -> "Motion":
        return cls(ExtendedAngle(0.0, _P1), HyperbolicNumber(0.0, 0.0))

    def is_proper(self) -> bool:
        return self.rotation.k.kappa > 0

    def apply(self, p: PointP) -> PointP:
        c, s = _angle.cosh_sinh(self.rotation)
        return _moved(p, c, s, self.offset)

    def inverted(self) -> "Motion":
        back = ExtendedAngle(-self.rotation.theta, self.rotation.k)
        c, s = _angle.cosh_sinh(back)
        return Motion(back, _negated_product(self.offset, c, s))


_set_rotation, _set_offset = _setters(Motion)


def _moved(p: PointP, c: float, s: float, offset: HyperbolicNumber) -> PointP:
    # p * (c, s) + offset, formed in floats in the operand order of
    # HyperbolicNumber.__mul__ and then __add__, so the image is bit-identical
    return PointP((p.x * c + p.y * s) + offset.x, (p.x * s + p.y * c) + offset.y)


def _negated_product(p: PointP, c: float, s: float) -> PointP:
    # -(p * (c, s)), formed in floats in the operand order of __mul__, so it
    # is bit-identical to the product and its negation
    return PointP(-(p.x * c + p.y * s), -(p.x * s + p.y * c))
