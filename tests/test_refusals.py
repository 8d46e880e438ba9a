"""Every refusal of the public API is a PseudoEuclidError.

On finite doubles from the whole exponent range each operation either
returns or raises one of the package's errors; an OverflowError,
ZeroDivisionError or bare ValueError escaping from it fails these properties.
"""
from __future__ import annotations

import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoeuclid import triangle
from pseudoeuclid.angle import THETA_MAX, ExtendedAngle, KleinIndex, circle_map, from_point
from pseudoeuclid.errors import (
    DegenerateTriangle,
    Inconsistent,
    InvalidInput,
    NullSide,
    OverflowingAngle,
    ParallelRays,
    PseudoEuclidError,
)
from pseudoeuclid.euclid import euclid_angle
from pseudoeuclid.geometry import Motion, PointP
from pseudoeuclid.hyperbola import EquilateralHyperbola, circumscribed
from pseudoeuclid.hypnum import HyperbolicNumber, from_polar, to_polar
from pseudoeuclid.selftest import run_selftest
from pseudoeuclid.tol import DEFAULT_NULL_EPS, null_eps, set_null_eps
from pseudoeuclid.triangle import Triangle, realizability, solve_asa, solve_sas, solve_ssa, solve_sss

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


def test_a_null_side_and_a_flat_triangle_are_inconsistent_data():
    assert issubclass(NullSide, Inconsistent) and issubclass(DegenerateTriangle, Inconsistent)


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
@given(coordinates, st.integers(-1, 5) | finite)
@example((0.0, 0.0, 5.0, 0.0, 5.0, 3.0), 2.0)  # a float equal to a valid index
def test_triangles_refuse_only_with_domain_errors(c, i):
    tri = outcome(Triangle, PointP(c[0], c[1]), PointP(c[2], c[3]), PointP(c[4], c[5]))
    if tri is not None:
        exercise(tri)
        outcome(tri.is_right_angle_at, i)


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


def attempt(fn, *args):
    """fn(*args), or the type and message of the PseudoEuclidError it raises."""
    try:
        return fn(*args)
    except PseudoEuclidError as exc:
        return type(exc), str(exc)


angles = st.builds(ExtendedAngle, st.floats(-THETA_MAX, THETA_MAX), klein)
refusals = (Inconsistent, InvalidInput, OverflowingAngle)


@settings(max_examples=500, deadline=None)
@given(angles, angles, finite, finite, finite)
@example(ExtendedAngle(30.0), ExtendedAngle(0.5), 1.0, 4.0, 1.0)     # null sides in ASA and SAS
@example(ExtendedAngle(1e-13), ExtendedAngle(1.0), 1.0, 1.0, 1.0)    # flat in ASA and SAS
@example(ExtendedAngle(300.0), ExtendedAngle(0.5), 1e300, 1.0, 1e300)  # SSA vertex beyond a double
@example(ExtendedAngle(0.5), ExtendedAngle(0.5), -1e200, 1e200, 1e-200)  # SSS p2p3 null
def test_solvers_refuse_as_their_placement_does(a1, a2, D1, D2, D3):
    # a solver refuses with one of four types, and where it reaches a
    # placement, it answers what the constructor makes of it: SSA keeps the
    # roots whose triangles construct and drops those refused as
    # Inconsistent; the other solvers pass the refusal through as it is
    place = triangle._place
    for solver, args, types in ((triangle.solve_ssa, (a1, D1, D3), refusals),
                                (triangle.solve_asa, (a1, a2, D3), (*refusals, ParallelRays)),
                                (triangle.solve_sas, (a1, D2, D3), refusals),
                                (triangle.solve_sss, (D1, D2, D3), refusals)):
        placements = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(triangle, "_place", lambda *p: placements.append(p) or place(*p))
            got = attempt(solver, *args)
        assert not isinstance(got, tuple) or issubclass(got[0], types), (solver.__name__, got)
        # what the constructor makes of each placement the solver reached
        built = [attempt(lambda p=p: triangle.Triangle(*place(*p))) for p in placements]
        if not built:
            continue  # decided by the input checks and sign tests alone
        if solver is triangle.solve_ssa:
            raised = [b for b in built if isinstance(b, tuple) and not issubclass(b[0], Inconsistent)]
            want = raised[0] if raised else [b for b in built if not isinstance(b, tuple)]
        else:
            (want,) = built
        assert got == want, (solver.__name__, args, got, want)


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


def huge_int_entries(v: int):
    """Each entry point that reads a number, given the int v beyond the doubles, and the
    refusal it raises for the infinity of v's sign: the finiteness check names it."""
    a, inf = ExtendedAngle(0.5), "inf" if v > 0 else "-inf"
    hyp = EquilateralHyperbola(PointP(0.0, 0.0), 1.0)
    return [
        (lambda: HyperbolicNumber(v, 0.0), f"components must be finite, got ({inf}, 0.0)"),
        (lambda: HyperbolicNumber(0.0, v), f"components must be finite, got (0.0, {inf})"),
        (lambda: ExtendedAngle(v, KleinIndex.H), f"theta must be finite, got {inf}"),
        (lambda: from_point(v, 1.0), f"components must be finite, got ({inf}, 1.0)"),
        (lambda: from_polar(v, a), f"rho must be positive and finite, got {inf}"),
        (lambda: EquilateralHyperbola(PointP(0.0, 0.0), v), f"P must be finite, got {inf}"),
        (lambda: solve_ssa(a, v, 1.0), f"D1 must be finite, got {inf}"),
        (lambda: solve_asa(a, a, v), f"D3 must be finite, got {inf}"),
        (lambda: solve_sas(a, v, 1.0), f"D2 must be finite, got {inf}"),
        (lambda: solve_sss(1.0, 1.0, v), f"D3 must be finite, got {inf}"),
        (lambda: set_null_eps(v), f"null epsilon must be a positive finite number, got {inf}"),
        (lambda: circle_map(v), f"2 * phi must be finite, got phi = {inf}"),
        (lambda: HyperbolicNumber(1.0, 0.5) * v, f"components must be finite, got ({inf}, {inf})"),
        (lambda: v * HyperbolicNumber(1.0, 0.5), f"components must be finite, got ({inf}, {inf})"),
        (lambda: hyp.sample_arm(KleinIndex.P1, v, 1.0, 3), "parameter range must be finite"),
        (lambda: hyp.sample_arm(KleinIndex.P1, 0.0, v, 3), "parameter range must be finite"),
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 2000), st.sampled_from([1, -1]))
@example(10 ** 400 - 2 ** 1024, 1)
def test_an_int_beyond_the_doubles_is_refused_as_infinite(k, sign):
    v = sign * (2 ** 1024 + k)
    for entry, message in huge_int_entries(v):
        with pytest.raises(PseudoEuclidError) as info:
            entry()
        assert str(info.value) == message
    assert null_eps() == DEFAULT_NULL_EPS


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 2000), st.sampled_from([1, -1]), finite, finite, st.permutations(range(3)))
@example(10 ** 400 - 2 ** 1024, 1, 1.0, 1.0, [0, 1, 2])
@example(0, -1, 0.0, -0.0, [2, 0, 1])
def test_realizability_reads_an_int_beyond_the_doubles_as_infinite(k, sign, a, b, order):
    # realizability refuses nothing: where the int meets a float it counts as
    # the infinity of its sign, so Q is what that infinity gives, inf or NaN
    v = sign * (2 ** 1024 + k)
    args = [(v, a, b)[i] for i in order]
    want = realizability(*[math.copysign(math.inf, sign) if x is v else x for x in args])
    got = realizability(*args)
    assert not got < math.inf
    assert got == want or got != got and want != want
    # on ints alone Q stays exact
    assert realizability(v, 1, -1) == v * v + 4
    assert realizability(v, v, 1) == 1 - 4 * v


@settings(max_examples=100, deadline=None)
@given(st.floats() | st.text(max_size=3) | st.booleans())
@example(1.5)
@example("3")
@example(True)
@example(False)
def test_a_count_that_is_not_an_int_is_refused(n):
    hyp = EquilateralHyperbola(PointP(0.0, 0.0), 1.0)
    for entry in (lambda: run_selftest(0, n), lambda: hyp.sample_arm(KleinIndex.P1, 0.0, 1.0, n)):
        with pytest.raises(InvalidInput) as info:
            entry()
        assert str(info.value) == f"sample count must be an int, got {n!r}"


def test_a_count_below_one_keeps_its_message():
    hyp = EquilateralHyperbola(PointP(0.0, 0.0), 1.0)
    with pytest.raises(InvalidInput, match=r"^sample count must be positive, got 0$"):
        run_selftest(0, 0)
    with pytest.raises(InvalidInput, match=r"^need at least one sample, got n=0$"):
        hyp.sample_arm(KleinIndex.P1, 0.0, 1.0, 0)
