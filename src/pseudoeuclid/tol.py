"""Tolerance policy and the one canonical quadratic form x^2 - y^2.

Every null test in the package but one goes through ``is_null_xy`` so the
policy is scale invariant: a vector counts as null when
|x^2 - y^2| <= eps * (x^2 + y^2).  The exception, ``angle.circle_map``, tests
|cos 2 phi| <= eps directly, which is the same criterion applied to the unit
vector (cos phi, sin phi).
The threshold is process-global and can be changed (the CLI reads it from the
PSEUDOEUCLID_EPS environment variable).
"""
from __future__ import annotations

import math

__all__ = ["is_null_xy", "null_eps", "quadratic_form", "set_null_eps"]

DEFAULT_NULL_EPS = 1e-12

_null_eps = DEFAULT_NULL_EPS


def null_eps() -> float:
    """Current relative threshold for the null-line test."""
    return _null_eps


def set_null_eps(value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"null epsilon must be a positive finite number, got {value!r}")
    global _null_eps
    _null_eps = float(value)


def quadratic_form(x: float, y: float) -> float:
    """The invariant x*x - y*y.

    This exact expression is the only square-module formula in the package;
    factored variants like (x-y)*(x+y) round differently and are not used.
    """
    return x * x - y * y


def rescaled(x: float, y: float) -> tuple[float, float, int]:
    """(x * 2**s, y * 2**s, s) with the larger component in [0.5, 1), where no
    square overflows or underflows; scaling by a power of two is exact."""
    ax, ay = abs(x), abs(y)
    # max(ax, ay) as the comparison it makes, which costs a fraction of the call
    s = -math.frexp(ay if ay > ax else ax)[1]
    return math.ldexp(x, s), math.ldexp(y, s), s


def is_null_xy(x: float, y: float) -> bool:
    """Scale-invariant test for membership of the lines y = +-x.

    The verdict is the same at every magnitude; the zero vector counts as null.
    """
    n = x * x + y * y
    # outside this band a square overflowed or lost precision to underflow
    if not 2.0 ** -900 < n < 2.0 ** 900:
        x, y, _ = rescaled(x, y)
        n = x * x + y * y
    return abs(quadratic_form(x, y)) <= _null_eps * n
