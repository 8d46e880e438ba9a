"""Extended hyperbolic angles.

An ordinary hyperbolic angle only parametrizes one sector of the plane.  The
full plane (minus the null lines y = +-x) needs an extra label: one of the
four unit numbers +1, +h, -1, -h, which form a Klein four-group under
multiplication.  A pair (theta, k) reaches every non-null direction exactly
once, and the extended cosine/sine below are total on those pairs.

Both parts are plainest in the null coordinates u = x + y, w = x - y, where
the product of split-complex numbers is componentwise.  The index is the sign
pair (sgn u, sgn w), so the group product is sign multiplication, and
theta = 1/2 log|u/w| in every sector.
"""

import math
from enum import Enum

from ._value import _Value, _setters
from .errors import InvalidInput, NullDirection, OverflowingAngle
from .tol import _as_float, is_null_xy, null_eps, rescaled

__all__ = [
    "THETA_MAX", "ExtendedAngle", "KleinIndex", "add_angles", "circle_map", "cosh_e", "cosh_sinh",
    "from_point", "sinh_e", "sub_angles",
]

# cosh(350)^2 ~ 2.5e303 still fits in a double, so products of two extended
# values stay finite; anything larger is refused instead of returning inf.
THETA_MAX = 350.0


class KleinIndex(Enum):
    """The four unit directions +1, +h, -1, -h.

    ``signs`` is the sign pair (sgn u, sgn w) of their null coordinates and
    ``kappa`` its product: +1 for the proper indices +-1, -1 for +-h, the sign
    of D on the sector.  Both are plain member attributes, set once.  Members
    are singletons, so equality is identity and they hash by identity too.
    """

    P1 = ("+1", 1.0, 1.0)
    H = ("+h", 1.0, -1.0)
    M1 = ("-1", -1.0, -1.0)
    MH = ("-h", -1.0, 1.0)

    # Enum.__hash__ hashes the name in Python; for singletons the identity
    # hash keeps the same contract and keeps the _KLEIN_TABLE lookup in C
    __hash__ = object.__hash__

    def __new__(cls, label: str, su: float, sw: float) -> "KleinIndex":
        member = object.__new__(cls)
        member._value_ = label
        member.signs = (su, sw)
        member.kappa = su * sw
        return member

    def __mul__(self, other: "KleinIndex") -> "KleinIndex":
        return _KLEIN_TABLE[self][other]

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "KleinIndex":
        try:
            return cls(label)
        except ValueError as exc:
            raise InvalidInput(str(exc)) from None

    @property
    def unit(self) -> tuple[float, float]:
        """Component pair of the unit number this index stands for."""
        su, sw = self.signs
        return (su + sw) / 2.0, (su - sw) / 2.0


# the members as module globals for the kernels: on CPython 3.11 reading
# KleinIndex.P1 through the class costs several times a global read
_P1, _H, _M1, _MH = KleinIndex
# the member of each sign pair, read as _BY_SIGNS[u > 0][w > 0]: two lookups on
# bool keys, where one on a (bool, bool) key would build and hash a tuple
_BY_SIGNS = {pu: {k.signs[1] > 0: k for k in KleinIndex if (k.signs[0] > 0) is pu}
             for pu in (True, False)}
# built once from that map: __mul__ stays two lookups instead of multiplying signs per call
_KLEIN_TABLE = {
    a: {b: _BY_SIGNS[a.signs[0] * b.signs[0] > 0][a.signs[1] * b.signs[1] > 0] for b in KleinIndex}
    for a in KleinIndex
}


class ExtendedAngle(_Value):
    """An angle theta plus the Klein index of its sector."""

    __slots__ = _fields = ("theta", "k")

    def __init__(self, theta: float, k: KleinIndex = KleinIndex.P1) -> None:
        _set_theta(self, theta)
        _set_k(self, k)
        self.__post_init__()

    def __post_init__(self) -> None:
        if type(self.theta) is not float:
            _set_theta(self, _as_float(self.theta))
        if not math.isfinite(self.theta):
            raise InvalidInput(f"theta must be finite, got {self.theta!r}")
        if not isinstance(self.k, KleinIndex):
            raise InvalidInput(f"k must be a KleinIndex, got {self.k!r}")


_set_theta, _set_k = _setters(ExtendedAngle)
_new = object.__new__


def _make_angle(theta: float, k: KleinIndex) -> ExtendedAngle:
    # ExtendedAngle(theta, k) without __init__ and __post_init__, for a finite
    # float theta and a KleinIndex k only (the _value module docstring says where)
    a = _new(ExtendedAngle)
    _set_theta(a, theta)
    _set_k(a, k)
    return a


def cosh_sinh(a: ExtendedAngle) -> tuple[float, float]:
    """Both extended values of ``a`` at once.

    The index acts on the plain (cosh, sinh) pair the way its unit number
    multiplies vectors: +1 keeps it, -1 negates it, +-h swaps and signs it.
    """
    theta = a.theta
    if abs(theta) > THETA_MAX:
        raise OverflowingAngle(f"|theta| = {abs(theta)} exceeds {THETA_MAX}")
    c, s = math.cosh(theta), math.sinh(theta)
    k = a.k
    if k is _P1:
        return c, s
    if k is _M1:
        return -c, -s
    if k is _H:
        return s, c
    return -s, -c


def cosh_e(a: ExtendedAngle) -> float:
    """Extended hyperbolic cosine, ``cosh_sinh(a)[0]`` bit for bit."""
    return cosh_sinh(a)[0]


def sinh_e(a: ExtendedAngle) -> float:
    """Extended hyperbolic sine, ``cosh_sinh(a)[1]`` bit for bit."""
    return cosh_sinh(a)[1]


def _angle_of(x1: float, y1: float, x2: float, y2: float) -> ExtendedAngle:
    # The one angle kernel, shared by from_point, hypnum.angle_between and
    # Triangle.elements(): the angle from (x1, y1) to (x2, y2), both finite
    # and non-null.  (c, s) = (x1 x2 - y1 y2, x1 y2 - y1 x2) is the component
    # pair of v2 * conj(v1), and its null coordinates u = c + s, w = c - s
    # factor as (x2 + y2)(x1 - y1) and (x2 - y2)(x1 + y1), so they are formed
    # without cancellation.  With u, w, c and s above 2^-900 and u, w below
    # 2^900 no product overflowed or lost precision to underflow.  Elsewhere
    # each vector is scaled by a power of two, which keeps the angle, to a
    # larger component in [2^448, 2^449): no product overflows, and a
    # component loses bits only below 2^-1470 of the larger, too little to
    # move theta.  Scaled toward 1, a component below 2^-1022 of the larger
    # would lose bits that a subnormal theta keeps.
    u, w = (x2 + y2) * (x1 - y1), (x2 - y2) * (x1 + y1)
    c, s = x1 * x2 - y1 * y2, x1 * y2 - y1 * x2
    au, aw, ac, as_ = abs(u), abs(w), abs(c), abs(s)
    if not (2.0 ** -900 < au < 2.0 ** 900 and 2.0 ** -900 < aw < 2.0 ** 900
            and 2.0 ** -900 < ac and 2.0 ** -900 < as_):
        (x1, y1, _), (x2, y2, _) = rescaled(x1, y1, 449), rescaled(x2, y2, 449)
        u, w = (x2 + y2) * (x1 - y1), (x2 - y2) * (x1 + y1)
        c, s = x1 * x2 - y1 * y2, x1 * y2 - y1 * x2
        au, aw, ac, as_ = abs(u), abs(w), abs(c), abs(s)
    theta = 0.5 * math.log1p(2.0 * (as_ if as_ < ac else ac) / (aw if aw < au else au))
    # trusted: the null coordinates of a finite non-null vector differ by at most
    # about 2^54 in doubles, so the ratio, and with it theta, is finite
    return _make_angle(math.copysign(theta, c * s), _BY_SIGNS[u > 0][w > 0])


def from_point(x: float, y: float) -> ExtendedAngle:
    """Extended angle of the direction (x, y), the angle from +1 to (x, y).

    Raises InvalidInput, as ``HyperbolicNumber`` does, when x or y is not
    finite, and NullDirection when (x, y) lies on y = +-x within tolerance
    (the origin included).  The index is the sign pair of x + y and x - y.
    """
    try:
        finite = math.isfinite(x) and math.isfinite(y)
    except OverflowError:  # an int beyond the doubles
        x, y, finite = _as_float(x), _as_float(y), False
    if not finite:
        raise InvalidInput(f"components must be finite, got ({x!r}, {y!r})")
    if is_null_xy(x, y):
        raise NullDirection(f"({x}, {y}) has no extended angle")
    return _angle_of(1.0, 0.0, x, y)


def add_angles(a: ExtendedAngle, b: ExtendedAngle) -> ExtendedAngle:
    """(theta, k) + (theta', k') = (theta + theta', k*k')."""
    return ExtendedAngle(a.theta + b.theta, a.k * b.k)


def sub_angles(a: ExtendedAngle, b: ExtendedAngle) -> ExtendedAngle:
    # every Klein element is its own inverse, so subtraction reuses k*k'
    return ExtendedAngle(a.theta - b.theta, a.k * b.k)


def _cos_2phi(phi: float) -> float:
    # math.cos raises a bare ValueError on inf and passes nan on; both are refused
    try:
        finite = math.isfinite(2.0 * phi)
    except OverflowError:  # an int beyond the doubles
        phi, finite = _as_float(phi), False
    if not finite:
        raise InvalidInput(f"2 * phi must be finite, got phi = {phi!r}")
    return math.cos(2.0 * phi)


def circle_map(phi: float) -> tuple[float, float]:
    """Map a Euclidean angle phi to extended values on the unit hyperbolas.

    (cos phi, sin phi) normalized by sqrt|cos 2 phi|; undefined at
    phi = pi/4 + n*pi/2 where the ray is null, and wherever 2 phi is not finite.
    """
    c2 = _cos_2phi(phi)
    if abs(c2) <= null_eps():
        raise NullDirection(f"phi = {phi} points along a null line")
    r = math.sqrt(abs(c2))
    return math.cos(phi) / r, math.sin(phi) / r
