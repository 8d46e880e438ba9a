"""Triangles with hyperbolic side lengths and extended vertex angles.

Vertices are stored counterclockwise (positive signed area); the constructor
swaps two vertices if handed a clockwise triple.  Side i is the side opposite
vertex i, so ``D[0]`` is the square distance from p2 to p3 and so on.  With
that labelling every counterclockwise triangle has all three extended sines
positive, and the familiar relations hold with ordinary signs:

* law of sines      sinh_e(theta_i) / d_i is the same for all i (= 2S/(d1 d2 d3))
* law of cosines    D_i = D_j + D_k - 2 d_j d_k cosh_e(theta_i)
* projections       d_i = |d_j cosh_e(theta_k) + d_k cosh_e(theta_j)|
* angle sum         theta_1 + theta_2 + theta_3 has Klein index +-1 and
                    cosh_e(sum) = -D1 D2 D3 / (d1 d2 d3)^2
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from . import angle as _angle
from .angle import ExtendedAngle, KleinIndex
from .errors import (
    DegenerateTriangle,
    Inconsistent,
    InvalidInput,
    NullDirection,
    NullSide,
    ParallelRays,
)
from .geometry import Motion, PointP, displacement, square_distance
from .hypnum import HyperbolicNumber, angle_between

log = logging.getLogger(__name__)

DEGENERACY_TOL = 1e-12
RIGHT_ANGLE_TOL = 1e-9
# solver round-trip tolerances: candidate solutions must reproduce the data
SOLVE_ANGLE_TOL = 1e-8
SOLVE_SIDE_TOL = 1e-8


@dataclass(frozen=True)
class TriangleElements:
    """The six elements plus area: square sides D, moduli d, vertex angles, S."""

    D: tuple[float, float, float]
    d: tuple[float, float, float]
    angles: tuple[ExtendedAngle, ExtendedAngle, ExtendedAngle]
    S: float


@dataclass(frozen=True)
class Triangle:
    p1: PointP
    p2: PointP
    p3: PointP

    def __post_init__(self) -> None:
        for name, (a, b) in (
            ("p1p2", (self.p1, self.p2)),
            ("p2p3", (self.p2, self.p3)),
            ("p1p3", (self.p1, self.p3)),
        ):
            if displacement(a, b).is_null():
                raise NullSide(f"side {name} lies on a null line")
        e1 = displacement(self.p1, self.p2)
        e2 = displacement(self.p1, self.p3)
        two_s = self._two_s(self.p1, self.p2, self.p3)
        scale = math.hypot(e1.x, e1.y) * math.hypot(e2.x, e2.y)
        if abs(two_s) <= DEGENERACY_TOL * scale:
            raise DegenerateTriangle("vertices are collinear")
        if two_s < 0.0:
            p2, p3 = self.p2, self.p3
            object.__setattr__(self, "p2", p3)
            object.__setattr__(self, "p3", p2)

    @staticmethod
    def _two_s(p1: PointP, p2: PointP, p3: PointP) -> float:
        return p1.x * (p2.y - p3.y) + p2.x * (p3.y - p1.y) + p3.x * (p1.y - p2.y)

    @property
    def vertices(self) -> tuple[PointP, PointP, PointP]:
        return (self.p1, self.p2, self.p3)

    def signed_area(self) -> float:
        """Half the shoelace sum; always positive after normalization."""
        return 0.5 * self._two_s(self.p1, self.p2, self.p3)

    def elements(self) -> TriangleElements:
        """Square sides, moduli, and the three extended vertex angles.

        The angle at a vertex is measured from the ray toward the next
        counterclockwise vertex to the ray toward the previous one; with the
        opposite-side labelling this yields sinh_e(theta_i) = 2S/(d_j d_k).
        """
        D1 = square_distance(self.p2, self.p3)
        D2 = square_distance(self.p1, self.p3)
        D3 = square_distance(self.p1, self.p2)
        a1 = angle_between(displacement(self.p1, self.p2), displacement(self.p1, self.p3))
        a2 = angle_between(displacement(self.p2, self.p3), displacement(self.p2, self.p1))
        a3 = angle_between(displacement(self.p3, self.p1), displacement(self.p3, self.p2))
        return TriangleElements(
            (D1, D2, D3),
            (math.sqrt(abs(D1)), math.sqrt(abs(D2)), math.sqrt(abs(D3))),
            (a1, a2, a3),
            self.signed_area(),
        )

    def law_of_sines_residual(self) -> float:
        """Largest relative deviation of sinh_e(theta_i)/d_i from 2S/(d1 d2 d3)."""
        el = self.elements()
        ref = 2.0 * el.S / (el.d[0] * el.d[1] * el.d[2])
        worst = 0.0
        for i in range(3):
            ratio = _angle.sinh_e(el.angles[i]) / el.d[i]
            worst = max(worst, abs(ratio - ref) / abs(ref))
        return worst

    def law_of_cosines_check(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """Normalized residuals of the cosine and projection laws, per index.

        Unlike the Euclidean projection rule the sum d_j cosh_e(theta_k) +
        d_k cosh_e(theta_j) can come out negative; its absolute value is the
        side modulus.
        """
        el = self.elements()
        cos_res = []
        proj_res = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            ci = _angle.cosh_e(el.angles[i])
            rhs = el.D[j] + el.D[k] - 2.0 * el.d[j] * el.d[k] * ci
            scale = max(1.0, abs(el.D[i]), abs(el.D[j]), abs(el.D[k]),
                        2.0 * el.d[j] * el.d[k] * abs(ci))
            cos_res.append(abs(el.D[i] - rhs) / scale)
            interior = (el.d[j] * _angle.cosh_e(el.angles[k])
                        + el.d[k] * _angle.cosh_e(el.angles[j]))
            if interior < 0.0:
                log.debug("projection interior for side %d is negative (%g)", i + 1, interior)
            proj_res.append(abs(el.d[i] - abs(interior)) / max(1.0, el.d[i]))
        return tuple(cos_res), tuple(proj_res)

    def is_right_angle_at(self, i: int) -> bool:
        """True when vertex i (1-based) carries a right angle, i.e. its
        extended cosine vanishes (the angle is (0, +-h) up to tolerance)."""
        if i not in (1, 2, 3):
            raise InvalidInput(f"vertex index must be 1, 2 or 3, got {i!r}")
        a = self.elements().angles[i - 1]
        return abs(_angle.cosh_e(a)) <= RIGHT_ANGLE_TOL

    def angle_sum(self) -> ExtendedAngle:
        """Sum of the three vertex angles; its Klein index is always +-1."""
        el = self.elements()
        return _angle.add_angles(_angle.add_angles(el.angles[0], el.angles[1]), el.angles[2])

    def transformed(self, motion: Motion) -> "Triangle":
        return Triangle(motion.apply(self.p1), motion.apply(self.p2), motion.apply(self.p3))

    def canonicalize(self) -> tuple[Motion, "Triangle"]:
        """The proper motion taking p1 to the origin and p2 onto an axis.

        The image has p2 = (d3, 0) when D3 > 0 and p2 = (0, -d3) when D3 < 0;
        in both cases p3 lands at d2 * (cosh_e, sinh_e) of theta_1 (components
        swapped in the second case).  The rotation index is always +-1, so the
        image is counterclockwise with the same square sides and angles.
        """
        u = displacement(self.p1, self.p2)
        a = _angle.from_point(u.x, u.y)
        target = KleinIndex.P1 if a.k.kappa > 0 else KleinIndex.MH
        rot = ExtendedAngle(-a.theta, target * a.k)
        spin = _angle.euler(rot)
        shift = -(HyperbolicNumber(self.p1.x, self.p1.y) * spin)
        motion = Motion(rot, shift)
        return motion, self.transformed(motion)


def _as_square(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInput(f"{name} must be finite, got {value!r}")
    if value == 0.0:
        raise NullSide(f"{name} = 0 means a null side")
    return value


def _as_angle(name: str, value: ExtendedAngle) -> ExtendedAngle:
    if not isinstance(value, ExtendedAngle):
        raise InvalidInput(f"{name} must be an ExtendedAngle, got {type(value).__name__}")
    return value


def _place(theta1: ExtendedAngle, d2: float, D3: float) -> tuple[PointP, PointP, PointP]:
    # canonical placement: p1 at the origin, p2 on the axis matching the kind
    # of side 3, p3 reached from p1 at angle theta1
    c1, s1 = _angle.cosh_sinh(theta1)
    d3 = math.sqrt(abs(D3))
    if D3 > 0:
        return PointP(0.0, 0.0), PointP(d3, 0.0), PointP(d2 * c1, d2 * s1)
    return PointP(0.0, 0.0), PointP(0.0, -d3), PointP(d2 * s1, d2 * c1)


def _angles_close(got: ExtendedAngle, want: ExtendedAngle) -> bool:
    return got.k is want.k and abs(got.theta - want.theta) <= SOLVE_ANGLE_TOL * (1.0 + abs(want.theta))


def _rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= SOLVE_SIDE_TOL * max(abs(got), abs(want))


def solve_ssa(theta1: ExtendedAngle, D1: float, D3: float) -> list[Triangle]:
    """All triangles with vertex angle theta1, opposite square side D1, and
    adjacent square side D3 (the side from p1 to p2).

    d2 solves a quadratic, so there are 0, 1 or 2 solutions; the sign of the
    discriminant d3^2 sinh_e^2(theta1) + kappa1 sign(D3) D1 decides which.
    Roots that fail to close into a counterclockwise triangle reproducing the
    data are discarded.
    """
    theta1 = _as_angle("theta1", theta1)
    D1 = _as_square("D1", D1)
    D3 = _as_square("D3", D3)
    c1, s1 = _angle.cosh_sinh(theta1)
    kappa = theta1.k.kappa
    sign3 = 1.0 if D3 > 0 else -1.0
    d3 = math.sqrt(abs(D3))
    disc = d3 * d3 * s1 * s1 + kappa * sign3 * D1
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    base = kappa * sign3 * d3 * c1
    candidates = [base] if root == 0.0 else [base - root, base + root]
    solutions = []
    for d2 in candidates:
        if not d2 > 0.0:
            continue
        try:
            tri = Triangle(*_place(theta1, d2, D3))
        except (NullSide, DegenerateTriangle):
            continue
        el = tri.elements()
        if not _angles_close(el.angles[0], theta1):
            continue
        if not (_rel_close(el.D[0], D1) and _rel_close(el.D[2], D3)):
            continue
        solutions.append(tri)
    return solutions


def solve_asa(theta1: ExtendedAngle, theta2: ExtendedAngle, D3: float) -> Triangle:
    """The triangle with angles theta1, theta2 at the ends of a side of square
    length D3.  Raises ParallelRays when the two rays never meet and
    Inconsistent when they meet on the wrong side."""
    theta1 = _as_angle("theta1", theta1)
    theta2 = _as_angle("theta2", theta2)
    D3 = _as_square("D3", D3)
    sign3 = 1.0 if D3 > 0 else -1.0
    d3 = math.sqrt(abs(D3))
    if D3 > 0:
        p1, p2 = PointP(0.0, 0.0), PointP(d3, 0.0)
        u12 = HyperbolicNumber(1.0, 0.0)
    else:
        p1, p2 = PointP(0.0, 0.0), PointP(0.0, -d3)
        u12 = HyperbolicNumber(0.0, -1.0)
    # ray directions: rotate the base side by each vertex angle (conjugated at
    # p2 because the angle there opens back toward p1)
    e1 = sign3 * (_angle.euler(theta1) * u12)
    e2 = sign3 * ((-u12) * _angle.euler(theta2).conjugate())
    den = e1.x * e2.y - e1.y * e2.x
    norm = math.hypot(e1.x, e1.y) * math.hypot(e2.x, e2.y)
    if abs(den) <= 1e-12 * norm:
        raise ParallelRays("the two rays do not intersect")
    base = displacement(p1, p2)
    t = (base.x * e2.y - base.y * e2.x) / den
    p3 = PointP(p1.x + t * e1.x, p1.y + t * e1.y)
    try:
        tri = Triangle(p1, p2, p3)
    except (NullSide, DegenerateTriangle) as exc:
        raise Inconsistent("the rays meet in a degenerate configuration") from exc
    el = tri.elements()
    if not (_angles_close(el.angles[0], theta1) and _angles_close(el.angles[1], theta2)
            and _rel_close(el.D[2], D3)):
        raise Inconsistent("no counterclockwise triangle has these angles on this side")
    return tri


def solve_sas(theta1: ExtendedAngle, D2: float, D3: float) -> Triangle:
    """The triangle with square sides D2, D3 framing vertex angle theta1."""
    theta1 = _as_angle("theta1", theta1)
    D2 = _as_square("D2", D2)
    D3 = _as_square("D3", D3)
    sign3 = 1.0 if D3 > 0 else -1.0
    # the placement forces sign(D2) = kappa1 * sign(D3); a mismatched datum
    # cannot come from any triangle with this vertex angle
    implied = theta1.k.kappa * sign3
    if (D2 > 0) != (implied > 0):
        raise Inconsistent("sign of D2 contradicts the vertex angle kind")
    try:
        tri = Triangle(*_place(theta1, math.sqrt(abs(D2)), D3))
    except DegenerateTriangle as exc:
        raise Inconsistent("the data determine a flat triangle") from exc
    el = tri.elements()
    if not (_angles_close(el.angles[0], theta1)
            and _rel_close(el.D[1], D2) and _rel_close(el.D[2], D3)):
        raise Inconsistent("no counterclockwise triangle reproduces these data")
    return tri


def solve_sss(D1: float, D2: float, D3: float) -> Triangle:
    """The triangle with square sides D1, D2, D3 (opposite-vertex labelling).

    Realizable exactly when Q = D1^2 + D2^2 + D3^2 - 2(D1 D2 + D1 D3 + D2 D3)
    is positive, in which case the area satisfies (2S)^2 = Q/4.  There is no
    triangle-inequality obstruction: wildly unequal square sides can still
    close (sides of different kinds trade off in the quadratic form).
    """
    D1 = _as_square("D1", D1)
    D2 = _as_square("D2", D2)
    D3 = _as_square("D3", D3)
    d2 = math.sqrt(abs(D2))
    d3 = math.sqrt(abs(D3))
    c1 = (D2 + D3 - D1) / (2.0 * d2 * d3)
    kappa = 1.0 if D2 * D3 > 0 else -1.0
    s1_sq = c1 * c1 - kappa
    if s1_sq <= 0.0:
        raise Inconsistent("square sides violate the realizability condition")
    s1 = math.sqrt(s1_sq)
    try:
        theta1 = _angle.from_point(c1, s1)
        tri = Triangle(*_place(theta1, d2, D3))
    except (NullDirection, NullSide, DegenerateTriangle) as exc:
        raise Inconsistent("square sides only close into a degenerate figure") from exc
    el = tri.elements()
    if not (_rel_close(el.D[0], D1) and _rel_close(el.D[1], D2) and _rel_close(el.D[2], D3)):
        raise Inconsistent("constructed triangle fails to reproduce the square sides")
    return tri


def realizability(D1: float, D2: float, D3: float) -> float:
    """Q = sum of squares minus twice the pairwise products; positive iff the
    three square sides close into a genuine triangle, with (2S)^2 = Q/4."""
    return (D1 * D1 + D2 * D2 + D3 * D3
            - 2.0 * (D1 * D2 + D1 * D3 + D2 * D3))
