"""Equilateral hyperbolas as the circles of the pseudo-Euclidean plane.

The locus (x - xc)^2 - (y - yc)^2 = P with P != 0 is the set of points at
constant square distance P from the center.  For P > 0 the two arms open
left and right (Klein indices +1 and -1, a curve of the second kind); for
P < 0 they open up and down (indices +h and -h, first kind).  Points are
parametrized as center + p * euler((theta, k)) with p = sqrt(|P|) and k the
arm index.
"""

import math
from enum import Enum

from . import angle as _angle
from ._value import _Value, _setters
from .angle import _P1, ExtendedAngle, KleinIndex
from .errors import InvalidInput, NotOnHyperbola, NullDirection, ParallelRays
from .geometry import PELine, PointP, _normalized_dot, _parallel, displacement, midpoint
from .hypnum import HyperbolicNumber, _make_number, angle_between, euler
from .tol import _as_float, quadratic_form, rescaled

__all__ = ["Chord", "ChordClass", "EquilateralHyperbola", "circumscribed"]

CONTAINS_TOL = 1e-9

_FIRST_ARMS = (KleinIndex.H, KleinIndex.MH)
_SECOND_ARMS = (KleinIndex.P1, KleinIndex.M1)


class ChordClass(Enum):
    EXTERNAL = "external"  # both endpoints on one arm
    INTERNAL = "internal"  # endpoints on opposite arms


class Chord(_Value):
    __slots__ = _fields = ("a", "b", "chord_class", "D")

    def __init__(self, a: PointP, b: PointP, chord_class: ChordClass, D: float) -> None:
        _set_a(self, a)
        _set_b(self, b)
        _set_chord_class(self, chord_class)
        _set_D(self, D)


_set_a, _set_b, _set_chord_class, _set_D = _setters(Chord)


class EquilateralHyperbola(_Value):
    __slots__ = _fields = ("center", "P")

    def __init__(self, center: PointP, P: float) -> None:
        if type(P) is not float:
            P = _as_float(P)
        if not math.isfinite(P):
            raise InvalidInput(f"P must be finite, got {P!r}")
        if P == 0.0:
            raise InvalidInput("P = 0 degenerates to the pair of null lines")
        _set_center(self, center)
        _set_P(self, P)

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
        P = self.P
        bound = CONTAINS_TOL * (abs(P) + dx * dx + dy * dy)
        if bound == math.inf:
            # a square or the difference overflowed, and every point would
            # pass: test the difference of the halves, which fits, and P, both
            # scaled by one power of two
            dx, dy, s = rescaled(point.x / 2.0 - self.center.x / 2.0, point.y / 2.0 - self.center.y / 2.0)
            P = math.ldexp(P, 2 * s - 2)
            bound = CONTAINS_TOL * (abs(P) + dx * dx + dy * dy)
        return abs(quadratic_form(dx, dy) - P) <= bound

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
        return self.center + self.p * euler(a)

    def sample_arm(self, k: KleinIndex, lo: float, hi: float, n: int) -> list[PointP]:
        """n points with evenly spaced parameters on arm k, endpoints included."""
        if k not in self.arms:
            raise InvalidInput(f"arm {k.label} does not occur on this hyperbola")
        if not isinstance(n, int) or isinstance(n, bool):
            raise InvalidInput(f"sample count must be an int, got {n!r}")
        if n < 1:
            raise InvalidInput(f"need at least one sample, got n={n}")
        if type(lo) is not float or type(hi) is not float:
            lo, hi = _as_float(lo), _as_float(hi)
        # nan or inf in either bound, or a width that overflows, leaves hi - lo non-finite
        if not math.isfinite(hi - lo):
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
        cls = ChordClass.EXTERNAL if (ka * kb) is _P1 else ChordClass.INTERNAL
        return Chord(a, b, cls, d.square_module())

    def diameter_square_length(self) -> float:
        """|D| of every diameter: 4 p^2 (the minimum over internal chords)."""
        return 4.0 * self.p * self.p

    def antipode(self, point: PointP) -> PointP:
        d = self._require(point, "point")
        return self.center - d

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
        mid = midpoint(a, b) - self.center
        if mid.is_null():
            raise NullDirection("chord is a diameter: its midpoint is the center")
        return _normalized_dot(mid, chord)

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
        return _normalized_dot(displacement(vertex, a), displacement(vertex, b))


_set_center, _set_P = _setters(EquilateralHyperbola)


def circumscribed(tri) -> EquilateralHyperbola:
    """The unique equilateral hyperbola through the vertices of a triangle:
    with e = p2 - p1, f = p3 - p1 and x = ex fy - ey fx its center is p1 + (a, b),
    a = (D(e) fy - ey D(f)) / 2x and b = (fx D(e) - ex D(f)) / 2x, and P = a^2 - b^2
    = -D1 D2 D3 / (16 S^2), all formed on e and f rescaled by powers of two (README
    Conventions).  Raises ParallelRays if |x| <= PARALLEL_TOL |e| |f|, and
    InvalidInput if P or the center does not fit a double."""
    p1 = tri.p1
    ex, ey, se = rescaled(tri.p2.x - p1.x, tri.p2.y - p1.y)
    fx, fy, sf = rescaled(tri.p3.x - p1.x, tri.p3.y - p1.y)
    cross, s = ex * fy - ey * fx, (sf if sf < se else se)
    if _parallel(cross, ex, ey, fx, fy):
        raise ParallelRays("lines are parallel")
    # each term on the scale 2^s of the longer of e and f
    De, Df = quadratic_form(ex, ey), quadratic_form(fx, fy)
    a = (math.ldexp(De * fy, s - se) - math.ldexp(ey * Df, s - sf)) / (2.0 * cross)
    b = (math.ldexp(fx * De, s - se) - math.ldexp(ex * Df, s - sf)) / (2.0 * cross)
    scaled_P = quadratic_form(a, b)
    try:
        P = math.ldexp(scaled_P, -2 * s)
    except OverflowError:
        P = math.inf
    # beyond the largest double, or nonzero and below half the least one
    if P == math.inf or P == 0.0 != scaled_P:
        raise InvalidInput("the square radius P does not fit a double")
    # a nonzero P that fits bounds |c - p1|^2 by 2^54 |P|, so only where P
    # rounds to 0 can the center leave the doubles
    try:
        cx, cy = p1.x + math.ldexp(a, -s), p1.y + math.ldexp(b, -s)
    except OverflowError:
        cx = cy = math.inf
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise InvalidInput(f"the center p1 + 2**{-s} * ({a!r}, {b!r}) does not fit a double")
    # trusted: both coordinates passed the test above
    return EquilateralHyperbola(_make_number(cx, cy), P)
