"""Split-complex (hyperbolic) numbers z = x + h*y, where h*h = +1.

The product rule (x1, y1)*(x2, y2) = (x1 x2 + y1 y2, x1 y2 + x2 y1) makes the
plane a commutative ring with zero divisors on the lines y = +-x.  Off those
lines every number has a polar form rho * k * exp(h*theta) with k one of the
four Klein units, and multiplication adds extended angles.
"""

import math
from enum import Enum
from numbers import Real

from . import angle as _angle
from ._value import _Value, _setters
from .angle import ExtendedAngle, _angle_of
from .errors import InvalidInput, NonPositiveRho, NullDirection, NullDivisor
from .tol import _as_float, is_null_xy, quadratic_form, rescaled

__all__ = [
    "HyperbolicNumber", "Sector", "angle_between", "classify_sector", "euler", "from_polar",
    "rotate", "to_polar",
]


class Sector(Enum):
    """Where a number sits relative to the null lines."""

    RIGHT = "Right"
    LEFT = "Left"
    UP = "Up"
    DOWN = "Down"
    NULL_PLUS = "null+"
    NULL_MINUS = "null-"
    ORIGIN = "origin"


class HyperbolicNumber(_Value):
    __slots__ = _fields = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        _set_x(self, x)
        _set_y(self, y)
        self.__post_init__()

    def __post_init__(self) -> None:
        # an exact float is kept as is: writing every value back cost more than the check
        if type(self.x) is not float:
            _set_x(self, _as_float(self.x))
        if type(self.y) is not float:
            _set_y(self, _as_float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInput(f"components must be finite, got ({self.x!r}, {self.y!r})")

    def __add__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        if not isinstance(other, HyperbolicNumber):
            return NotImplemented
        return HyperbolicNumber(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        if not isinstance(other, HyperbolicNumber):
            return NotImplemented
        return HyperbolicNumber(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "HyperbolicNumber":
        return HyperbolicNumber(-self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, HyperbolicNumber):
            return HyperbolicNumber(
                self.x * other.x + self.y * other.y,
                self.x * other.y + self.y * other.x,
            )
        # a float first: every float is a Real, and the ABC's check runs in Python
        if type(other) is float or isinstance(other, Real):
            try:
                return HyperbolicNumber(self.x * other, self.y * other)
            except OverflowError:  # an int beyond the doubles
                return self * _as_float(other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "HyperbolicNumber":
        return HyperbolicNumber(self.x, -self.y)

    def square_module(self) -> float:
        """The invariant z * conj(z) = x^2 - y^2 (sign carries the sector kind)."""
        return quadratic_form(self.x, self.y)

    def module(self) -> float:
        # sqrt|D| is representable even where D itself overflows or underflows
        x, y, s = rescaled(self.x, self.y)
        return math.ldexp(math.sqrt(abs(quadratic_form(x, y))), -s)

    def is_null(self) -> bool:
        return is_null_xy(self.x, self.y)

    def inverse(self) -> "HyperbolicNumber":
        """conj(z) / (z conj(z)).

        Defined off the null lines (NullDivisor within tolerance of them) for
        every z whose inverse fits a double; that fails, with InvalidInput,
        only for |z| below about 1e-296.
        """
        if self.is_null():
            raise NullDivisor(f"({self.x}, {self.y}) is a null divisor")
        # on the rescaled pair D cannot overflow or underflow, as in module()
        x, y, s = rescaled(self.x, self.y)
        d = quadratic_form(x, y)
        try:
            return HyperbolicNumber(math.ldexp(x / d, s), math.ldexp(-y / d, s))
        except OverflowError as exc:
            raise InvalidInput(f"the inverse of ({self.x}, {self.y}) does not fit a double") from exc


_set_x, _set_y = _setters(HyperbolicNumber)
_new = object.__new__


def _make_number(x: float, y: float) -> HyperbolicNumber:
    # HyperbolicNumber(x, y) without __init__ and __post_init__, for finite
    # floats x and y only (the _value module docstring says where)
    z = _new(HyperbolicNumber)
    _set_x(z, x)
    _set_y(z, y)
    return z


def euler(a: ExtendedAngle) -> HyperbolicNumber:
    """The unit number k * exp(h * theta) = cosh_e + h sinh_e."""
    c, s = _angle.cosh_sinh(a)
    # trusted: cosh_sinh refuses |theta| > THETA_MAX, so both are finite floats
    return _make_number(c, s)


def classify_sector(z: HyperbolicNumber) -> Sector:
    """Sector tag of z under the scale-invariant null test."""
    if z.x == 0.0 and z.y == 0.0:
        return Sector.ORIGIN
    if z.is_null():
        return Sector.NULL_PLUS if (z.x > 0) == (z.y > 0) else Sector.NULL_MINUS
    if abs(z.x) > abs(z.y):
        return Sector.RIGHT if z.x > 0 else Sector.LEFT
    return Sector.UP if z.y > 0 else Sector.DOWN


def to_polar(z: HyperbolicNumber) -> tuple[float, ExtendedAngle]:
    """Decompose z = rho * k * exp(h*theta).  Raises NullDirection on y = +-x."""
    return z.module(), _angle.from_point(z.x, z.y)


def from_polar(rho: float, a: ExtendedAngle) -> HyperbolicNumber:
    """Rebuild rho * (cosh_e, sinh_e); rho must be strictly positive."""
    try:
        # a float first, as in __mul__
        valid = (type(rho) is float or isinstance(rho, Real)) and math.isfinite(rho) and rho > 0
    except OverflowError:  # an int beyond the doubles
        rho, valid = _as_float(rho), False
    if not valid:
        raise NonPositiveRho(f"rho must be positive and finite, got {rho!r}")
    c, s = _angle.cosh_sinh(a)
    return HyperbolicNumber(rho * c, rho * s)


def rotate(z: HyperbolicNumber, a: ExtendedAngle) -> HyperbolicNumber:
    """Multiply by the unit k * exp(h*theta).

    For k = +-1 this is a proper pseudo-rotation: it preserves the square
    module and the orientation.  For k = +-h it additionally swaps the two
    sector kinds (the square module changes sign).
    """
    return z * euler(a)


def angle_between(v1: HyperbolicNumber, v2: HyperbolicNumber) -> ExtendedAngle:
    """Extended angle carried by the invariant pair of two non-null vectors.

    The pair (x1 x2 - y1 y2, x1 y2 - x2 y1) is the component pair of
    v2 * conj(v1), whose angle is the angle of v2 as seen from v1; it does not
    depend on either vector's positive scale.  This is the null test followed
    by the one angle kernel, ``angle._angle_of``, which ``angle.from_point``
    shares and ``Triangle.elements()`` calls directly on coordinates it has
    already tested.
    """
    if v1.is_null() or v2.is_null():
        raise NullDirection("angle between null vectors is undefined")
    return _angle_of(v1.x, v1.y, v2.x, v2.y)
