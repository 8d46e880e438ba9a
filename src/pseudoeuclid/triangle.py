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
                    cosh_e(sum) = -D1 D2 D3 / (d1 d2 d3)^2 = -sign(D1 D2 D3)
"""
from __future__ import annotations

import math
from collections.abc import Iterable

from . import angle as _angle
from ._value import _Value, _setters
from .angle import _MH, _P1, ExtendedAngle, _angle_of
from .errors import DegenerateTriangle, Inconsistent, InvalidInput, NullSide, ParallelRays
from .geometry import Motion, PointP, _moved, _negated_product, _parallel
# angle_between is re-exported: the public angle is reachable from this module too
from .hypnum import angle_between  # noqa: F401
from .tol import _as_float, is_null_xy, quadratic_form, rescaled

__all__ = [
    "Triangle", "TriangleElements", "realizability", "solve_asa", "solve_sas", "solve_ssa",
    "solve_sss",
]

RIGHT_ANGLE_TOL = 1e-9


def _worst(residuals: Iterable[float]) -> float:
    """The largest residual, or NaN if any is NaN.

    max() would keep a NaN only when it came first, so a NaN residual must
    stick here for its check to fail.
    """
    worst = 0.0
    for r in residuals:
        if r > worst or r != r:
            worst = r
    return worst


class TriangleElements(_Value):
    """The six elements plus area: square sides D, moduli d, vertex angles, S."""

    __slots__ = _fields = ("D", "d", "angles", "S")

    def __init__(self, D: tuple[float, float, float], d: tuple[float, float, float],
                 angles: tuple[ExtendedAngle, ExtendedAngle, ExtendedAngle], S: float) -> None:
        _set_D(self, D)
        _set_d(self, d)
        _set_angles(self, angles)
        _set_S(self, S)


_set_D, _set_d, _set_angles, _set_S = _setters(TriangleElements)


class Triangle(_Value):
    # _elements, the cache of elements(), is a slot but not a field
    __slots__ = ("p1", "p2", "p3", "_elements")
    _fields = ("p1", "p2", "p3")

    def __init__(self, p1: PointP, p2: PointP, p3: PointP) -> None:
        _set_p1(self, p1)
        _set_p2(self, p2)
        _set_p3(self, p3)
        self.__post_init__()

    def __post_init__(self) -> None:
        p1, p2, p3 = self.p1, self.p2, self.p3
        ex, ey = p2.x - p1.x, p2.y - p1.y
        gx, gy = p3.x - p2.x, p3.y - p2.y
        fx, fy = p3.x - p1.x, p3.y - p1.y
        # each side in turn, finite and then not null, in straight-line code:
        # a loop would build a tuple of three tuples on every construction
        if not (math.isfinite(ex) and math.isfinite(ey)):
            raise InvalidInput(f"components must be finite, got ({ex!r}, {ey!r})")
        if is_null_xy(ex, ey):
            raise NullSide("side p1p2 lies on a null line")
        if not (math.isfinite(gx) and math.isfinite(gy)):
            raise InvalidInput(f"components must be finite, got ({gx!r}, {gy!r})")
        if is_null_xy(gx, gy):
            raise NullSide("side p2p3 lies on a null line")
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise InvalidInput(f"components must be finite, got ({fx!r}, {fy!r})")
        if is_null_xy(fx, fy):
            raise NullSide("side p1p3 lies on a null line")
        # 2S is the cross of sides p1p2 and p1p3, as in signed_area()
        two_s = ex * fy - ey * fx
        if not math.isfinite(two_s):
            # a product overflowed; the sign and the test below do not change
            # when each side is scaled by a power of two
            (ex, ey, _), (fx, fy, _) = rescaled(ex, ey), rescaled(fx, fy)
            two_s = ex * fy - ey * fx
        if _parallel(two_s, ex, ey, fx, fy):
            raise DegenerateTriangle("vertices are collinear")
        if two_s < 0.0:
            _set_p2(self, p3)
            _set_p3(self, p2)

    @property
    def vertices(self) -> tuple[PointP, PointP, PointP]:
        return (self.p1, self.p2, self.p3)

    def signed_area(self) -> float:
        """Half the cross of p2 - p1 and p3 - p1; always positive after normalization."""
        p1, p2, p3 = self.p1, self.p2, self.p3
        return 0.5 * ((p2.x - p1.x) * (p3.y - p1.y) - (p2.y - p1.y) * (p3.x - p1.x))

    def elements(self) -> TriangleElements:
        """Square sides, moduli, and the three extended vertex angles.

        The angle at a vertex is measured from the ray toward the next
        counterclockwise vertex to the ray toward the previous one; with the
        opposite-side labelling this yields sinh_e(theta_i) = 2S/(d_j d_k).
        Everything is computed from the vertex coordinates alone: the
        constructor has already refused null sides, so nothing here reads the
        null tolerance.

        The record is computed on the first call and the same immutable object
        is returned on every later one.  It is kept outside the fields:
        equality, hashing and repr see only the vertices.
        """
        el = getattr(self, "_elements", None)
        if el is None:
            p1, p2, p3 = self.p1, self.p2, self.p3
            # six rays, each its own difference: negating one would flip a zero's sign
            x12, y12, x13, y13 = p2.x - p1.x, p2.y - p1.y, p3.x - p1.x, p3.y - p1.y
            x23, y23, x21, y21 = p3.x - p2.x, p3.y - p2.y, p1.x - p2.x, p1.y - p2.y
            x31, y31, x32, y32 = p1.x - p3.x, p1.y - p3.y, p2.x - p3.x, p2.y - p3.y
            D1, D2, D3 = quadratic_form(x23, y23), quadratic_form(x13, y13), quadratic_form(x12, y12)
            el = TriangleElements(
                (D1, D2, D3),
                (math.sqrt(abs(D1)), math.sqrt(abs(D2)), math.sqrt(abs(D3))),
                (_angle_of(x12, y12, x13, y13), _angle_of(x23, y23, x21, y21),
                 _angle_of(x31, y31, x32, y32)),
                # signed_area() on the rays already held: the same operations in the same order
                0.5 * (x12 * y13 - y12 * x13),
            )
            _set_elements(self, el)
        return el

    @staticmethod
    def _sine_products(el: TriangleElements) -> tuple[float, float, float]:
        """d_j d_k sinh_e(theta_i) for i = 1, 2, 3: by the law of sines each one is 2S."""
        d1, d2, d3 = el.d
        a1, a2, a3 = el.angles
        sinh_e = _angle.sinh_e
        return d2 * d3 * sinh_e(a1), d3 * d1 * sinh_e(a2), d1 * d2 * sinh_e(a3)

    def law_of_sines_residual(self) -> float:
        """Largest relative deviation of d_j d_k sinh_e(theta_i) from 2S: the law of sines times
        d1 d2 d3, with no triple product to overflow or underflow.  NaN where 2S rounds to 0."""
        el = self.elements()
        two_s = 2.0 * el.S
        if two_s == 0.0:
            return math.nan
        t1, t2, t3 = Triangle._sine_products(el)
        # one division of the largest deviation: dividing by |2S| > 0 keeps the order
        return _worst((abs(t1 - two_s), abs(t2 - two_s), abs(t3 - two_s))) / abs(two_s)

    def law_of_cosines_check(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """Normalized residuals of the cosine and projection laws, per index.

        Unlike the Euclidean projection rule the sum d_j cosh_e(theta_k) +
        d_k cosh_e(theta_j) can come out negative; its absolute value is the
        side modulus.
        """
        el = self.elements()
        D1, D2, D3 = el.D
        d1, d2, d3 = el.d
        a1, a2, a3 = el.angles
        cosh_e = _angle.cosh_e
        c1, c2, c3 = cosh_e(a1), cosh_e(a2), cosh_e(a3)
        # 2 d_j d_k for each vertex i, with (i, j, k) a cyclic order
        t1, t2, t3 = 2.0 * d2 * d3, 2.0 * d3 * d1, 2.0 * d1 * d2
        # each scale is max(1.0, |D1|, |D2|, |D3|, t_i |c_i|), written as the
        # comparisons max() makes: a NaN never compares greater, so with 1.0
        # first max() never returned a NaN and the order of the rest did not
        # matter; the part shared by the three vertices is taken once
        a1, a2, a3 = abs(D1), abs(D2), abs(D3)
        m = a1 if a1 > 1.0 else 1.0
        if a2 > m:
            m = a2
        if a3 > m:
            m = a3
        n1, n2, n3 = t1 * abs(c1), t2 * abs(c2), t3 * abs(c3)
        cos_res = (
            abs(D1 - (D2 + D3 - t1 * c1)) / (n1 if n1 > m else m),
            abs(D2 - (D3 + D1 - t2 * c2)) / (n2 if n2 > m else m),
            abs(D3 - (D1 + D2 - t3 * c3)) / (n3 if n3 > m else m),
        )
        proj_res = (
            abs(d1 - abs(d2 * c3 + d3 * c2)) / (d1 if d1 > 1.0 else 1.0),
            abs(d2 - abs(d3 * c1 + d1 * c3)) / (d2 if d2 > 1.0 else 1.0),
            abs(d3 - abs(d1 * c2 + d2 * c1)) / (d3 if d3 > 1.0 else 1.0),
        )
        return cos_res, proj_res

    def is_right_angle_at(self, i: int) -> bool:
        """True when vertex i (1-based) carries a right angle, i.e. its
        extended cosine vanishes (the angle is (0, +-h) up to tolerance)."""
        if not isinstance(i, int) or i not in (1, 2, 3):
            raise InvalidInput(f"vertex index must be 1, 2 or 3, got {i!r}")
        a = self.elements().angles[i - 1]
        return abs(_angle.cosh_e(a)) <= RIGHT_ANGLE_TOL

    def angle_sum(self) -> ExtendedAngle:
        """Sum of the three vertex angles; its Klein index is always +-1."""
        a1, a2, a3 = self.elements().angles
        # add_angles(add_angles(a1, a2), a3) without building the partial sum
        return ExtendedAngle((a1.theta + a2.theta) + a3.theta, a1.k * a2.k * a3.k)

    def transformed(self, motion: Motion) -> "Triangle":
        # the images Motion.apply forms, with the unit pair computed once
        (c, s), o = _angle.cosh_sinh(motion.rotation), motion.offset
        return Triangle(_moved(self.p1, c, s, o), _moved(self.p2, c, s, o), _moved(self.p3, c, s, o))

    def canonicalize(self) -> tuple[Motion, "Triangle"]:
        """The proper motion taking p1 to the origin and p2 onto an axis.

        The image has p2 = (d3, 0) when D3 > 0 and p2 = (0, -d3) when D3 < 0;
        in both cases p3 lands at d2 * (cosh_e, sinh_e) of theta_1 (components
        swapped in the second case).  The rotation index is always +-1, so the
        image is counterclockwise with the same square sides and angles.
        """
        a = _angle.from_point(self.p2.x - self.p1.x, self.p2.y - self.p1.y)
        target = _P1 if a.k.kappa > 0 else _MH
        rot = ExtendedAngle(-a.theta, target * a.k)
        c, s = _angle.cosh_sinh(rot)
        motion = Motion(rot, _negated_product(self.p1, c, s))
        return motion, self.transformed(motion)


_set_p1, _set_p2, _set_p3, _set_elements = _setters(Triangle)


def _as_square(name: str, value: float) -> float:
    if type(value) is not float:
        value = _as_float(value)
    if not math.isfinite(value):
        raise InvalidInput(f"{name} must be finite, got {value!r}")
    if value == 0.0:
        raise NullSide(f"{name} = 0 means a null side")
    return value


def _as_angle(name: str, value: ExtendedAngle) -> ExtendedAngle:
    if not isinstance(value, ExtendedAngle):
        raise InvalidInput(f"{name} must be an ExtendedAngle, got {type(value).__name__}")
    return value


# p1 of every placed triangle; a record is immutable, so one instance serves all
_ORIGIN = PointP(0.0, 0.0)


def _place(c1: float, s1: float, d2: float, D3: float) -> tuple[PointP, PointP, PointP]:
    # canonical placement: p1 at the origin, p2 on the axis matching the kind
    # of side 3, p3 at d2 along the unit direction (c1, s1) = (cosh_e, sinh_e)
    # of theta1
    x, y = d2 * c1, d2 * s1
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInput("the third vertex d2 (c1, s1) does not fit a double")
    d3 = math.sqrt(abs(D3))
    if D3 > 0:
        return _ORIGIN, PointP(d3, 0.0), PointP(x, y)
    return _ORIGIN, PointP(0.0, -d3), PointP(y, x)


def solve_ssa(theta1: ExtendedAngle, D1: float, D3: float) -> list[Triangle]:
    """All triangles with vertex angle theta1, opposite square side D1, and
    adjacent square side D3 (the side from p1 to p2).

    d2 solves d2^2 - 2 kappa1 sign(D3) d3 cosh_e d2 + kappa1 sign(D3) (D3 - D1)
    = 0.  Sign tests decide the 0, 1 or 2 solutions: sinh_e(theta1) > 0, a
    discriminant d3^2 sinh_e^2 + kappa1 sign(D3) D1 >= 0, and one per root
    d2 > 0 whose placement is neither null nor flat.  The quadratic is solved
    on D1, D3 scaled by 4^-h, which puts the larger |D| in [1/4, 1)."""
    theta1 = _as_angle("theta1", theta1)
    D1 = _as_square("D1", D1)
    D3 = _as_square("D3", D3)
    c1, s1 = _angle.cosh_sinh(theta1)
    if not s1 > 0.0:
        return []
    # kappa1 sign(D3), the one sign the quadratic carries
    sign = theta1.k.kappa * (1.0 if D3 > 0 else -1.0)
    # on the scaled D no term overflows (s1 <= sinh(THETA_MAX)) and a subnormal
    # D costs no accuracy; each root scales back by 2^h exactly, so data scaled
    # by 4^k give vertices scaled by 2^k bit for bit
    h = (math.frexp(D1 if abs(D1) > abs(D3) else D3)[1] + 1) // 2
    D1s, D3s = math.ldexp(D1, -2 * h), math.ldexp(D3, -2 * h)
    # scaled after the square root, so that d3 keeps every bit where D3s is subnormal
    d3 = math.ldexp(math.sqrt(abs(D3)), -h)
    disc = d3 * d3 * s1 * s1 + sign * D1s
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    base = sign * d3 * c1
    if root == 0.0:
        candidates = (base,)
    else:
        # the root away from zero adds like signs; the other is the product of
        # the roots, kappa1 sign(D3) (D3 - D1), over it, which does not cancel
        # (Higham 2002, sec. 1.8)
        far = base + math.copysign(root, base)
        candidates = (sign * (D3s - D1s) / far, far)
    solutions = []
    for d2 in candidates:
        d2 = math.ldexp(d2, h)
        if not d2 > 0.0:
            continue
        try:
            solutions.append(Triangle(*_place(c1, s1, d2, D3)))
        except Inconsistent:
            # the constructor's NullSide or DegenerateTriangle: no triangle at this root
            continue
    return solutions


def solve_asa(theta1: ExtendedAngle, theta2: ExtendedAngle, D3: float) -> Triangle:
    """The triangle with angles theta1, theta2 at the ends of side D3: d2 = d3 sinh_e(theta2) / S12
    by the law of sines, S12 = sign(D3) sinh_e(theta1 + theta2).  Raises ParallelRays if S12 ~ 0,
    then Inconsistent unless sinh_e(theta1), sinh_e(theta2), S12 > 0 and the figure constructs."""
    theta1 = _as_angle("theta1", theta1)
    theta2 = _as_angle("theta2", theta2)
    D3 = _as_square("D3", D3)
    c1, s1 = _angle.cosh_sinh(theta1)
    c2, s2 = _angle.cosh_sinh(theta2)
    S12 = math.copysign(1.0, D3) * (c1 * s2 + s1 * c2)
    if _parallel(S12, c1, s1, c2, s2):
        raise ParallelRays("lines are parallel")
    if not (s1 > 0.0 and s2 > 0.0 and S12 > 0.0):
        raise Inconsistent("the rays meet on the wrong side: not all of sinh_e(theta1), "
                           "sinh_e(theta2), sign(D3) sinh_e(theta1 + theta2) are > 0")
    return Triangle(*_place(c1, s1, math.sqrt(abs(D3)) * s2 / S12, D3))


def solve_sas(theta1: ExtendedAngle, D2: float, D3: float) -> Triangle:
    """The triangle with square sides D2, D3 framing vertex angle theta1; it needs
    sign(D2) = kappa1 sign(D3), sinh_e(theta1) > 0 and a placement that constructs."""
    theta1 = _as_angle("theta1", theta1)
    D2 = _as_square("D2", D2)
    D3 = _as_square("D3", D3)
    # the placement forces sign(D2) = kappa1 * sign(D3); a mismatched datum
    # cannot come from any triangle with this vertex angle
    if (D2 > 0) != ((theta1.k.kappa > 0) == (D3 > 0)):
        raise Inconsistent("sign of D2 contradicts the vertex angle kind")
    c1, s1 = _angle.cosh_sinh(theta1)
    if s1 < 0.0:
        raise Inconsistent("sinh_e(theta1) < 0: the angle opens clockwise")
    # sinh_e(theta1) = 0 lays p3 on the line p1p2, which the constructor refuses
    return Triangle(*_place(c1, s1, math.sqrt(abs(D2)), D3))


def solve_sss(D1: float, D2: float, D3: float) -> Triangle:
    """The triangle with square sides D1, D2, D3 (opposite-vertex labelling).

    Realizable exactly when Q = D1^2 + D2^2 + D3^2 - 2(D1 D2 + D1 D3 + D2 D3)
    is positive (a sign decided exactly), and then (2S)^2 = Q/4.  There is no
    triangle-inequality obstruction: wildly unequal square sides can still
    close (sides of different kinds trade off in the quadratic form).
    """
    D1 = _as_square("D1", D1)
    D2 = _as_square("D2", D2)
    D3 = _as_square("D3", D3)
    # the float Q is within 8 u (|D1| + |D2| + |D3|)^2, plus underflow, of the
    # true one; only within that bound is Q recomputed exactly on the integers
    # the D are over their common power-of-two denominator (Shewchuk 1997)
    q = realizability(D1, D2, D3)
    a = abs(D1) + abs(D2) + abs(D3)
    if not abs(q) > 2.0 ** -50 * a * a + 2.0 ** -1070:
        ratios = [D.as_integer_ratio() for D in (D1, D2, D3)]
        scale = max(den for _, den in ratios)
        q = realizability(*(num * (scale // den) for num, den in ratios))
    if not q > 0:
        raise Inconsistent("square sides violate the realizability condition Q > 0")
    d2, d3 = math.sqrt(abs(D2)), math.sqrt(abs(D3))
    num, den = D2 + D3 - D1, 2.0 * d2 * d3
    if not (abs(num) < math.inf and den < math.inf):
        # near the largest double the sum or 2 d2 d3 overflows, and an inf den
        # alone would give a wrong c1 = 0.  c1 is scale-free, and on the D
        # scaled by 1/4, whose moduli are exactly d/2, neither overflows
        num, den = D2 / 4.0 + D3 / 4.0 - D1 / 4.0, 0.5 * d2 * d3
    c1 = num / den
    # compared by sign: the product D2 * D3 can underflow to zero
    kappa = 1.0 if (D2 > 0) == (D3 > 0) else -1.0
    s1_sq = c1 * c1 - kappa
    # s1_sq = Q / (4 |D2 D3|) > 0; where it rounded to zero or below, the
    # direction (c1, s1) lies on the base line and cannot be placed
    if not s1_sq > 0.0:
        raise Inconsistent("square sides only close into a degenerate figure")
    # where c1 * c1 overflowed, s1 = sqrt(c1^2 - kappa) rounds to |c1|, so
    # side p1p3 lies on a null line, which the constructor refuses, unless
    # the third vertex d2 (c1, s1) does not even fit a double, which _place refuses
    s1 = math.sqrt(s1_sq) if s1_sq < math.inf else abs(c1)
    # the law of cosines gives the direction of side p1p3 as a unit pair; the
    # constructor's null test on that side is the one null test it gets
    return Triangle(*_place(c1, s1, d2, D3))


def realizability(D1: float, D2: float, D3: float) -> float:
    """Q = sum of squares minus twice the pairwise products, exact on integers;
    positive iff the three square sides close into a genuine triangle, with (2S)^2 = Q/4."""
    return (D1 * D1 + D2 * D2 + D3 * D3
            - 2 * (D1 * D2 + D1 * D3 + D2 * D3))

