"""Tolerance policy and the one quadratic form D = x^2 - y^2 = u w, on the
null coordinates u = x + y and w = x - y.

Every null test in the package but one goes through ``is_null_xy``, so the
policy is scale invariant: a vector counts as null when |x^2 - y^2| <=
eps (x^2 + y^2), that is |u w| <= eps (u^2 + w^2) / 2.  The exception,
``angle.circle_map``, tests |cos 2 phi| <= eps directly: the same criterion
on the unit vector (cos phi, sin phi).  The threshold is process-global and
can be changed (the CLI reads it from the PSEUDOEUCLID_EPS variable).
"""
from __future__ import annotations

import math

from .errors import InvalidInput

__all__ = ["is_null_xy", "null_eps", "quadratic_form", "set_null_eps"]

DEFAULT_NULL_EPS = 1e-12

_null_eps = DEFAULT_NULL_EPS


def null_eps() -> float:
    """Current relative threshold for the null-line test."""
    return _null_eps


def set_null_eps(value: float) -> None:
    try:
        valid = isinstance(value, (int, float)) and math.isfinite(value) and value > 0
    except OverflowError:  # an int beyond the doubles
        value, valid = _as_float(value), False
    if not valid:
        raise InvalidInput(f"null epsilon must be a positive finite number, got {value!r}")
    global _null_eps
    _null_eps = float(value)


def _as_float(value) -> float:
    """float(value), with a number beyond the doubles (an int such as 10**400) read as the
    infinity of its sign, so that the caller's finiteness check refuses it by name.  Called
    only on what is not already a float, or where a float operation on it overflowed."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def quadratic_form(x: float, y: float) -> float:
    """The invariant x^2 - y^2 as the paper's D = u w, the one square-module formula:
    the product cancels nothing, so it is within 3 u wherever no sum overflows and D is normal."""
    d = (x - y) * (x + y)
    # inf * 0, where one null coordinate overflows and the other is exactly 0:
    # on the halves the product is the exact 0 (and a NaN input stays NaN)
    if d != d:
        return 4.0 * ((x / 2.0 - y / 2.0) * (x / 2.0 + y / 2.0))
    return d


def rescaled(x: float, y: float, e: int = 0) -> tuple[float, float, int]:
    """(x * 2**s, y * 2**s, s) with the larger component in [2**(e-1), 2**e), by default [0.5, 1)
    where no square overflows or underflows; exact unless a component falls below 2**-1022."""
    ax, ay = abs(x), abs(y)
    # max(ax, ay) as the comparison it makes, which costs a fraction of the call
    s = e - math.frexp(ay if ay > ax else ax)[1]
    return math.ldexp(x, s), math.ldexp(y, s), s


def is_null_xy(x: float, y: float) -> bool:
    """Scale-invariant test for membership of the lines y = +-x.  With t = min/max of
    |u| and |w|, the policy over the larger square is 2 t <= eps (1 + t^2): no coordinate
    is squared, so the verdict holds at every magnitude; the zero vector counts as null."""
    u, w = abs(x + y), abs(x - y)
    # where a sum overflows, the halves give the same t
    if u == math.inf or w == math.inf:
        u, w = abs(x / 2.0 + y / 2.0), abs(x / 2.0 - y / 2.0)
    # the zero vector has t = 0; a NaN coordinate gives t = NaN, never null
    t = u / w if u < w else w / u if u != 0.0 else 0.0
    return 2.0 * t <= _null_eps * (1.0 + t * t)
