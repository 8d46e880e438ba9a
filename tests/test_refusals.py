"""Every refusal of the public API is a PseudoEuclidError.

On finite doubles from the whole exponent range each operation either
returns or raises one of the package's errors; an OverflowError,
ZeroDivisionError or bare ValueError escaping from it fails these properties.
"""
from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import ExtendedAngle, KleinIndex
from pseudoeuclid.errors import InvalidInput, PseudoEuclidError
from pseudoeuclid.euclid import euclid_angle
from pseudoeuclid.geometry import Motion, PointP
from pseudoeuclid.hyperbola import EquilateralHyperbola, circumscribed
from pseudoeuclid.hypnum import HyperbolicNumber, from_polar, to_polar
from pseudoeuclid.triangle import Triangle, solve_asa, solve_sas, solve_ssa, solve_sss

finite = st.floats(allow_nan=False, allow_infinity=False)
klein = st.sampled_from(list(KleinIndex))
# six coordinates anywhere, or a +-5 box scaled by one power of two, so that
# triangles construct at every scale
coordinates = st.one_of(
    st.tuples(*[finite] * 6),
    st.builds(lambda e, v: tuple(math.ldexp(c, e) for c in v),
              st.integers(-1074, 1020), st.tuples(*[st.floats(-5.0, 5.0)] * 6)),
)


def outcome(fn, *args):
    """fn(*args), or None where it refuses; any other exception propagates."""
    try:
        return fn(*args)
    except PseudoEuclidError:
        return None


def exercise(tri: Triangle) -> None:
    for method in (tri.elements, tri.law_of_sines_residual, tri.law_of_cosines_check,
                   tri.angle_sum, tri.canonicalize):
        outcome(method)
    outcome(circumscribed, tri)


def test_invalid_input_is_both_a_domain_error_and_a_value_error():
    assert issubclass(InvalidInput, PseudoEuclidError) and issubclass(InvalidInput, ValueError)


@pytest.mark.parametrize("label", ["x", "+2", ""])
def test_an_unknown_klein_label_is_refused_as_invalid_input(label):
    with pytest.raises(InvalidInput) as info:
        KleinIndex.from_label(label)
    assert type(info.value) is InvalidInput
    assert str(info.value) == f"{label!r} is not a valid KleinIndex"


@settings(max_examples=500, deadline=None)
@given(finite, finite, finite, finite, finite, finite, klein)
def test_numbers_and_motions_refuse_only_with_domain_errors(x1, y1, x2, y2, r, theta, k):
    z, w, a = HyperbolicNumber(x1, y1), HyperbolicNumber(x2, y2), ExtendedAngle(theta, k)
    for op in (operator.add, operator.sub, operator.mul):
        outcome(op, z, w)
    outcome(operator.mul, z, r)
    outcome(z.inverse)
    outcome(to_polar, z)
    outcome(from_polar, r, a)
    motion = Motion(a, w)
    outcome(motion.apply, z)
    outcome(motion.inverted)
    outcome(euclid_angle, z, w)


@settings(max_examples=500, deadline=None)
@given(coordinates)
def test_triangles_refuse_only_with_domain_errors(c):
    tri = outcome(Triangle, PointP(c[0], c[1]), PointP(c[2], c[3]), PointP(c[4], c[5]))
    if tri is not None:
        exercise(tri)


@settings(max_examples=500, deadline=None)
@given(finite, klein, finite, klein, finite, finite, finite)
def test_solvers_refuse_only_with_domain_errors(theta1, k1, theta2, k2, D1, D2, D3):
    a1, a2 = ExtendedAngle(theta1, k1), ExtendedAngle(theta2, k2)
    solutions = outcome(solve_ssa, a1, D1, D3) or []
    solutions += [outcome(solve_asa, a1, a2, D3), outcome(solve_sas, a1, D2, D3),
                  outcome(solve_sss, D1, D2, D3)]
    for tri in solutions:
        if tri is not None:
            exercise(tri)


@settings(max_examples=500, deadline=None)
@given(finite, finite, finite, finite, klein, finite, finite, finite, finite, st.integers(1, 4))
def test_hyperbolas_refuse_only_with_domain_errors(cx, cy, P, theta, k, px, py, lo, hi, n):
    hyp = outcome(EquilateralHyperbola, PointP(cx, cy), P)
    if hyp is None:
        return
    outcome(hyp.point_at, ExtendedAngle(theta, k))
    outcome(hyp.contains, PointP(px, py))
    for arm in KleinIndex:
        outcome(hyp.sample_arm, arm, lo, hi, n)
