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
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import NullDirection, OverflowingAngle
from .tol import is_null_xy, null_eps

if TYPE_CHECKING:  # pragma: no cover
    from .hypnum import HyperbolicNumber

# cosh(350)^2 ~ 2.5e303 still fits in a double, so products of two extended
# values stay finite; anything larger is refused instead of returning inf.
THETA_MAX = 350.0


class KleinIndex(Enum):
    """The four unit directions +1, +h, -1, -h, with the signs (sgn u, sgn w)
    of their null coordinates."""

    P1 = ("+1", 1.0, 1.0)
    H = ("+h", 1.0, -1.0)
    M1 = ("-1", -1.0, -1.0)
    MH = ("-h", -1.0, 1.0)

    def __new__(cls, label: str, su: float, sw: float) -> "KleinIndex":
        member = object.__new__(cls)
        member._value_ = label
        member.signs = (su, sw)
        return member

    def __mul__(self, other: "KleinIndex") -> "KleinIndex":
        return _KLEIN_TABLE[(self, other)]

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "KleinIndex":
        return cls(label)

    @property
    def unit(self) -> tuple[float, float]:
        """Component pair of the unit number this index stands for."""
        su, sw = self.signs
        return (su + sw) / 2.0, (su - sw) / 2.0

    @property
    def kappa(self) -> float:
        """+1 for the proper indices +-1, -1 for +-h: the sign of D on the sector."""
        return self.signs[0] * self.signs[1]


_BY_SIGNS = {(k.signs[0] > 0, k.signs[1] > 0): k for k in KleinIndex}
# built once: __mul__ stays a single lookup instead of multiplying signs per call
_KLEIN_TABLE = {
    (a, b): _BY_SIGNS[(a.signs[0] * b.signs[0] > 0, a.signs[1] * b.signs[1] > 0)]
    for a in KleinIndex for b in KleinIndex
}


@dataclass(frozen=True)
class ExtendedAngle:
    """An angle theta plus the Klein index of its sector."""

    theta: float
    k: KleinIndex = KleinIndex.P1

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(self.theta))
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if not isinstance(self.k, KleinIndex):
            raise ValueError(f"k must be a KleinIndex, got {self.k!r}")


def _checked_cosh_sinh(theta: float) -> tuple[float, float]:
    if abs(theta) > THETA_MAX:
        raise OverflowingAngle(f"|theta| = {abs(theta)} exceeds {THETA_MAX}")
    return math.cosh(theta), math.sinh(theta)


def cosh_sinh(a: ExtendedAngle) -> tuple[float, float]:
    """Both extended values of ``a`` at once.

    The index acts on the plain (cosh, sinh) pair the way its unit number
    multiplies vectors: +1 keeps it, -1 negates it, +-h swaps and signs it.
    """
    c, s = _checked_cosh_sinh(a.theta)
    k = a.k
    if k is KleinIndex.P1:
        return c, s
    if k is KleinIndex.M1:
        return -c, -s
    if k is KleinIndex.H:
        return s, c
    return -s, -c


def cosh_e(a: ExtendedAngle) -> float:
    """Extended hyperbolic cosine."""
    return cosh_sinh(a)[0]


def sinh_e(a: ExtendedAngle) -> float:
    """Extended hyperbolic sine."""
    return cosh_sinh(a)[1]


def _from_null_coords(c: float, s: float, u: float, w: float) -> ExtendedAngle:
    # (c, s) is a non-null direction and u = c + s, w = c - s its null
    # coordinates, each formed without cancellation.  The larger of |u|, |w|
    # exceeds the smaller by 2 min(|c|, |s|), so log1p of that excess keeps
    # full relative accuracy down to tiny theta, where 1/2 log|u/w| would not.
    theta = 0.5 * math.log1p(2.0 * min(abs(c), abs(s)) / min(abs(u), abs(w)))
    return ExtendedAngle(math.copysign(theta, c * s), _BY_SIGNS[(u > 0, w > 0)])


def from_point(x: float, y: float) -> ExtendedAngle:
    """Extended angle of the direction (x, y).

    Raises NullDirection when (x, y) lies on y = +-x within tolerance (the
    origin included).  The index is the sign pair of x + y and x - y.
    """
    if is_null_xy(x, y):
        raise NullDirection(f"({x}, {y}) has no extended angle")
    return _from_null_coords(x, y, x + y, x - y)


def add_angles(a: ExtendedAngle, b: ExtendedAngle) -> ExtendedAngle:
    """(theta, k) + (theta', k') = (theta + theta', k*k')."""
    return ExtendedAngle(a.theta + b.theta, a.k * b.k)


def sub_angles(a: ExtendedAngle, b: ExtendedAngle) -> ExtendedAngle:
    # every Klein element is its own inverse, so subtraction reuses k*k'
    return ExtendedAngle(a.theta - b.theta, a.k * b.k)


def euler(a: ExtendedAngle) -> "HyperbolicNumber":
    """The unit number k * exp(h * theta) = cosh_e + h sinh_e."""
    from .hypnum import HyperbolicNumber

    c, s = cosh_sinh(a)
    return HyperbolicNumber(c, s)


def circle_map(phi: float) -> tuple[float, float]:
    """Map a Euclidean angle phi to extended values on the unit hyperbolas.

    (cos phi, sin phi) normalized by sqrt|cos 2 phi|; undefined at
    phi = pi/4 + n*pi/2 where the ray is null.
    """
    c2 = math.cos(2.0 * phi)
    if abs(c2) <= null_eps():
        raise NullDirection(f"phi = {phi} points along a null line")
    r = math.sqrt(abs(c2))
    return math.cos(phi) / r, math.sin(phi) / r
