from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoeuclid.angle import THETA_MAX, ExtendedAngle, KleinIndex, cosh_sinh
from pseudoeuclid.errors import (
    DegenerateTriangle,
    Inconsistent,
    InvalidInput,
    NullSide,
    ParallelRays,
    PseudoEuclidError,
)
from pseudoeuclid.geometry import PointP
from pseudoeuclid.hypnum import HyperbolicNumber
from pseudoeuclid.selftest import random_triangle
from pseudoeuclid.triangle import (
    _ORIGIN,
    Triangle,
    realizability,
    solve_asa,
    solve_sas,
    solve_ssa,
    solve_sss,
)

from builds import counting_builds

P = PointP
P1, H, M1 = KleinIndex.P1, KleinIndex.H, KleinIndex.M1
A06 = ExtendedAngle(math.atanh(0.6), KleinIndex.P1)


def _close(p: PointP, q: PointP, tol: float = 1e-8) -> bool:
    scale = 1.0 + abs(q.x) + abs(q.y)
    return abs(p.x - q.x) <= tol * scale and abs(p.y - q.y) <= tol * scale


def _same_triangle(a: Triangle, b: Triangle) -> bool:
    return all(_close(p, q) for p, q in zip(a.vertices, b.vertices))


# --- SSA ---------------------------------------------------------------

def test_ssa_two_solutions_worked():
    sols = solve_ssa(A06, -9.0, 25.0)
    assert len(sols) == 2
    assert _close(sols[0].p3, P(5.0, 3.0))
    assert _close(sols[1].p3, P(10.625, 6.375))
    for tri in sols:
        el = tri.elements()
        assert el.D[0] == pytest.approx(-9.0, rel=1e-9)
        assert el.D[2] == pytest.approx(25.0, rel=1e-9)
        assert el.angles[0].k is A06.k
        assert el.angles[0].theta == pytest.approx(A06.theta, rel=1e-9)


def test_ssa_no_solution():
    assert solve_ssa(ExtendedAngle(0.5), -9.0, 25.0) == []


def test_ssa_exact_double_root():
    # craft D1 so the discriminant is exactly zero
    c1, s1 = cosh_sinh(A06)
    d3 = 5.0
    D1 = -(d3 * d3 * s1 * s1)
    sols = solve_ssa(A06, D1, 25.0)
    assert len(sols) == 1
    el = sols[0].elements()
    assert el.D[0] == pytest.approx(D1, rel=1e-12)
    assert el.d[1] == pytest.approx(d3 * c1, rel=1e-12)


def test_ssa_negative_adjacent_side():
    # second-kind base: p2 sits at (0, -d3)
    theta = ExtendedAngle(0.4)
    sols = solve_ssa(theta, -16.0, -9.0)
    assert len(sols) == 1
    el = sols[0].elements()
    assert el.D[0] == pytest.approx(-16.0, rel=1e-9)
    assert el.D[2] == pytest.approx(-9.0, rel=1e-9)
    assert sols[0].p2 == P(0.0, -3.0)


def test_ssa_counts_match_root_analysis():
    # stratified grid: compare against an independent positive-root count of
    # kappa d2^2 - 2 kappa sign3 d3 cosh_e d2 + kappa sign3 (D3 - D1) = 0
    cases = [
        (ExtendedAngle(0.5, KleinIndex.P1), -9.0, 25.0),
        (ExtendedAngle(math.atanh(0.6), KleinIndex.P1), -9.0, 25.0),
        (ExtendedAngle(0.3, KleinIndex.H), 9.0, 25.0),
        (ExtendedAngle(-0.8, KleinIndex.H), -4.0, 9.0),
        (ExtendedAngle(-0.5, KleinIndex.M1), 3.0, 4.0),
        (ExtendedAngle(-0.5, KleinIndex.M1), 9.0, 4.0),
        (ExtendedAngle(0.4, KleinIndex.P1), -16.0, -9.0),
        (ExtendedAngle(0.4, KleinIndex.P1), -4.0, -9.0),
        (ExtendedAngle(1.0, KleinIndex.MH), -9.0, 25.0),
        (ExtendedAngle(0.7, KleinIndex.H), 30.0, -25.0),
    ]
    for theta1, D1, D3 in cases:
        c1, s1 = cosh_sinh(theta1)
        kappa = 1.0 if theta1.k in (KleinIndex.P1, KleinIndex.M1) else -1.0
        sign3 = 1.0 if D3 > 0 else -1.0
        d3 = math.sqrt(abs(D3))
        disc = d3 * d3 * s1 * s1 + kappa * sign3 * D1
        if s1 <= 0.0 or disc < 0.0:
            expected = 0
        else:
            roots = {kappa * sign3 * d3 * c1 - math.sqrt(disc),
                     kappa * sign3 * d3 * c1 + math.sqrt(disc)}
            expected = sum(1 for r in roots if r > 1e-12)
        got = solve_ssa(theta1, D1, D3)
        assert len(got) == expected, (theta1, D1, D3)
        for tri in got:
            el = tri.elements()
            assert el.angles[0].k is theta1.k
            assert el.angles[0].theta == pytest.approx(theta1.theta, rel=1e-8, abs=1e-8)
            assert el.D[0] == pytest.approx(D1, rel=1e-8)


def test_ssa_rejects_zero_square_side():
    with pytest.raises(NullSide):
        solve_ssa(A06, 0.0, 25.0)
    with pytest.raises(InvalidInput):
        solve_ssa(A06, math.nan, 25.0)
    with pytest.raises(InvalidInput):
        solve_ssa(0.6, -9.0, 25.0)  # type: ignore[arg-type]


# --- ASA ---------------------------------------------------------------

def test_asa_worked_example():
    tri = solve_asa(ExtendedAngle(math.atanh(1.0 / 3.0)), ExtendedAngle(math.atanh(0.5)), 25.0)
    assert _close(tri.p3, P(3.0, 1.0))
    assert tri.p1 == P(0.0, 0.0)
    assert tri.p2 == P(5.0, 0.0)


def test_asa_second_kind_angle_at_p2():
    tri = solve_asa(A06, ExtendedAngle(0.0, KleinIndex.H), 25.0)
    assert _close(tri.p3, P(5.0, 3.0))


def test_asa_parallel_rays():
    with pytest.raises(ParallelRays):
        solve_asa(A06, ExtendedAngle(-A06.theta, KleinIndex.P1), 25.0)


def test_asa_negative_base():
    # the fixture reflected into a second-kind base side
    source = Triangle(P(0.0, 0.0), P(0.0, 5.0), P(-5.0, 3.0))
    el = source.elements()
    tri = solve_asa(el.angles[0], el.angles[1], el.D[2])
    assert _close(tri.p2, P(0.0, -5.0))
    assert _close(tri.p3, P(5.0, -3.0))


@pytest.mark.parametrize("theta1, theta2, D3, want", [
    ((0.7, P1), (0.2, P1), 2.5,
     (0.0, 0.0, 1.5811388300841898, 0.0, 0.38924910478493036, 0.23524961620371418)),
    ((math.atanh(0.6), P1), (0.0, H), 25.0, (0.0, 0.0, 5.0, 0.0, 5.0, 3.0)),
    ((-0.0, H), (0.4, P1), 3.0, (0.0, 0.0, 1.7320508075688772, 0.0, -0.0, 0.658090906909119)),
    ((1.272, P1), (-0.563, M1), -11.28,
     (0.0, 0.0, 0.0, -3.358571124749333, 4.253939672062553, 4.979218705919342)),
    ((-0.62, M1), (-0.473, H), -42.12,
     (0.0, 0.0, 0.0, -6.48999229583518, 2.877942625954159, -5.221913016450694)),
    ((-0.0, H), (-0.2, M1), -3.0,
     (0.0, 0.0, 0.0, -1.7320508075688772, 0.34186408278971075, -0.0)),
    ((0.4, H), (-0.4, H), -3.0, ParallelRays),
])
def test_asa_vertices_bit_for_bit(theta1, theta2, D3, want):
    # pinned outputs of the construction: any change in how d2 is formed or
    # placed shows up here, signed zeros included.  theta1 = (-0.0, +h) has
    # cosh_e = -0.0, which the placement d2 * (cosh_e, sinh_e) keeps
    args = (ExtendedAngle(*theta1), ExtendedAngle(*theta2), D3)
    if want is ParallelRays:
        with pytest.raises(ParallelRays):
            solve_asa(*args)
        return
    tri = solve_asa(*args)
    got = tuple(c for p in tri.vertices for c in (p.x, p.y))
    assert got == want
    assert [c.hex() for c in got] == [c.hex() for c in want]


@pytest.mark.parametrize("theta2, D3", [((0.4, P1), 3.0), ((-0.2, M1), -3.0)])
def test_asa_places_like_sas(theta2, D3):
    # both solvers put p3 at d2 * (cosh_e, sinh_e) of theta1, so where the
    # two agree on d2 their vertices agree bit for bit, signed zeros included
    theta1 = ExtendedAngle(-0.0, H)
    tri = solve_asa(theta1, ExtendedAngle(*theta2), D3)
    same = solve_sas(theta1, tri.elements().D[1], D3)
    assert [c.hex() for p in tri.vertices for c in (p.x, p.y)] == \
        [c.hex() for p in same.vertices for c in (p.x, p.y)]


def test_asa_roundtrips_random_triangles():
    rng = random.Random(7)
    for _ in range(100):
        src = random_triangle(rng)
        el = src.elements()
        _, canon = src.canonicalize()
        tri = solve_asa(el.angles[0], el.angles[1], el.D[2])
        assert _same_triangle(tri, canon)


# --- SAS ---------------------------------------------------------------

def test_sas_worked_example():
    tri = solve_sas(ExtendedAngle(math.log(2.0)), 16.0, 25.0)
    assert _close(tri.p3, P(5.0, 3.0))


def test_sas_sign_mismatch():
    with pytest.raises(Inconsistent):
        solve_sas(ExtendedAngle(math.log(2.0)), -16.0, 25.0)
    with pytest.raises(Inconsistent):
        solve_sas(ExtendedAngle(0.3, KleinIndex.H), 16.0, 25.0)


def test_sas_null_third_side():
    # apex placed on the null line through p2: theta1 with tanh = d3/d2... use
    # d2 cosh - d3 = d2 sinh, i.e. p3 - p2 on y = x
    d3 = 1.0
    d2 = 2.0
    # solve cosh t - sinh t = d3/d2 -> exp(-t) = 0.5
    t = math.log(2.0)
    with pytest.raises(NullSide):
        solve_sas(ExtendedAngle(t), d2 * d2, d3 * d3)


def test_sas_flat_triangle():
    # theta1 = 1e-13 lays p3 along p1p2: a genuine angle, but no area
    with pytest.raises(Inconsistent, match="vertices are collinear"):
        solve_sas(ExtendedAngle(1e-13, KleinIndex.P1), 1.0, 1.0)


def test_sas_roundtrips_random_triangles():
    rng = random.Random(8)
    for _ in range(100):
        src = random_triangle(rng)
        el = src.elements()
        _, canon = src.canonicalize()
        tri = solve_sas(el.angles[0], el.D[1], el.D[2])
        assert _same_triangle(tri, canon)


# --- SSS ---------------------------------------------------------------

def test_sss_worked_example():
    tri = solve_sss(-9.0, 16.0, 25.0)
    assert _same_triangle(tri, Triangle(P(0, 0), P(5, 0), P(5, 3)))


def test_sss_equal_positive_sides_do_not_close():
    for D in [(1.0, 1.0, 1.0), (4.0, 4.0, 4.0), (1.0, 4.0, 9.0)]:
        assert realizability(*D) <= 0.0
        with pytest.raises(Inconsistent):
            solve_sss(*D)


def test_sss_wildly_unequal_sides_close():
    # no triangle inequality here: (1, 1, 100) is realizable
    assert realizability(1.0, 1.0, 100.0) == 9600.0
    tri = solve_sss(1.0, 1.0, 100.0)
    el = tri.elements()
    assert el.D[0] == pytest.approx(1.0, rel=1e-8)
    assert el.D[1] == pytest.approx(1.0, rel=1e-8)
    assert el.D[2] == pytest.approx(100.0, rel=1e-8)
    assert (2.0 * el.S) ** 2 == pytest.approx(9600.0 / 4.0, rel=1e-8)


def test_sss_mixed_signs():
    tri = solve_sss(1.0, 1.0, -100.0)
    el = tri.elements()
    assert el.D[2] == pytest.approx(-100.0, rel=1e-9)
    assert realizability(1.0, 1.0, -100.0) == 10400.0


def test_sss_area_matches_realizability():
    rng = random.Random(9)
    for _ in range(200):
        src = random_triangle(rng)
        el = src.elements()
        Q = realizability(*el.D)
        assert Q > 0.0
        assert (2.0 * el.S) ** 2 == pytest.approx(Q / 4.0, rel=1e-8)


def test_sss_roundtrips_random_triangles():
    rng = random.Random(10)
    for _ in range(100):
        src = random_triangle(rng)
        el = src.elements()
        _, canon = src.canonicalize()
        tri = solve_sss(*el.D)
        assert _same_triangle(tri, canon)


def test_sss_at_tiny_scale():
    # D2 * D3 underflows to zero here, yet the sides are those of the worked
    # example scaled by 1e-85
    tri = solve_sss(-9e-170, 1.6e-169, 2.5e-169)
    for p, want in zip(tri.vertices, [(0.0, 0.0), (5.0, 0.0), (5.0, 3.0)]):
        assert p.x / 1e-85 == pytest.approx(want[0], abs=1e-12)
        assert p.y / 1e-85 == pytest.approx(want[1], abs=1e-12)


def test_sss_rejects_null_side():
    with pytest.raises(NullSide):
        solve_sss(0.0, 16.0, 25.0)


def test_sss_whose_cosine_overflows_is_inconsistent():
    # (D2 + D3 - D1) / (2 d2 d3) = 1e200 fits, but its square does not, so s1
    # rounds to |c1|; the vertex d2 (c1, s1), about 1e300, fits, and the
    # placed sides p1p3 and p2p3 lie on null lines, although Q = 4e400 > 0;
    # the constructor names p2p3, which it tests first
    with pytest.raises(Inconsistent, match="side p2p3 lies on a null line"):
        solve_sss(-1e200, 1e200, 1e-200)
    # equal positive sides have Q < 0, which the exact sign test sees first
    with pytest.raises(Inconsistent, match="realizability condition"):
        solve_sss(1e308, 1e308, 1e308)


@pytest.mark.parametrize("D", [
    (-1e300, 1e300, 1e-300),   # c1 = 1e300: the vertex d2 (c1, s1) is about 1e450
    (-1e300, 1e-300, 1e-300),  # c1 = inf
])
def test_sss_whose_third_vertex_does_not_fit_is_invalid(D):
    # the data close (Q > 0), but no double holds the answer
    with pytest.raises(InvalidInput, match="third vertex"):
        solve_sss(*D)


@pytest.mark.parametrize("D", [
    (-1e308, 1e308, 1e308),    # D2 + D3 - D1 and 2 d2 d3 overflow: c1 was inf / inf
    (1e308, 1.5e308, -1e308),  # only 2 d2 d3 overflows: c1 was 0, and D1 came out 5e307
    (1.5e308, 1e308, -1e308),
    (-1e307, 1.5e308, 1.5e308),
])
def test_sss_near_the_largest_double_matches_oracle(D):
    # c1 is formed on the D scaled by 1/4; the vertices are within the oracle
    # bound of test_oracle.test_sss_vertex_matches_oracle, 4 u cond
    tri = solve_sss(*D)
    with mpmath.workprec(200):
        D1, D2, D3 = (mpmath.mpf(v) for v in D)
        d2, d3 = mpmath.sqrt(abs(D2)), mpmath.sqrt(abs(D3))
        kappa = 1 if (D2 > 0) == (D3 > 0) else -1
        c1 = (D2 + D3 - D1) / (2 * d2 * d3)
        s1 = mpmath.sqrt(c1 * c1 - kappa)
        p2, p3 = ((d3, 0), (d2 * c1, d2 * s1)) if D3 > 0 else ((0, -d3), (d2 * s1, d2 * c1))
        cond = (abs(D1) + abs(D2) + abs(D3)) / abs(D2 + D3 - D1) * (1 + c1 * c1 / (s1 * s1))
        assert tri.p1 == _ORIGIN
        assert (tri.p2.x, tri.p2.y) == (float(p2[0]), float(p2[1]))
        err = mpmath.hypot(tri.p3.x - p3[0], tri.p3.y - p3[1])
        assert err <= 4 * 2.0 ** -53 * cond * mpmath.hypot(*p3)


@pytest.mark.parametrize("D, realizable", [
    ((14.65685424949238, 8.0, 1.0), False),   # float Q = +5.7e-14, exact Q = -5.7e-15
    ((3.0000000000000004, 12.0, 3.0), False),  # float Q = 0, exact Q = -1.1e-14
    ((0.9999999999999999, 4.0, 1.0), True),    # float Q = 0, exact Q = +8.9e-16
])
def test_sss_decides_realizability_by_the_exact_sign_of_q(D, realizable):
    # square sides a rounding away from closing flat: the float Q has no sign
    # or the wrong one, the exact Q of the three doubles gives the verdict
    assert (realizability(*map(Fraction, D)) > 0) == realizable
    q = realizability(*D)
    assert q == 0.0 or (q > 0) != realizable
    # realizable data whose rounded cosine lies on the base line close flat
    with pytest.raises(Inconsistent, match="degenerate figure" if realizable else "Q > 0"):
        solve_sss(*D)


WRONG_SIDE = ("the rays meet on the wrong side: not all of sinh_e(theta1), "
              "sinh_e(theta2), sign(D3) sinh_e(theta1 + theta2) are > 0")


@pytest.mark.parametrize("solve, args, error, message", [
    # exact Q = 0 fails the realizability test, before the cosine is formed
    (solve_sss, (4.0, 1.0, 1.0), Inconsistent,
     "square sides violate the realizability condition Q > 0"),
    # sinh_e(theta1) = 0 opens neither way: the constructor refuses the flat placement
    (solve_sas, (ExtendedAngle(0.0, P1), 4.0, 1.0), DegenerateTriangle, "vertices are collinear"),
    # sinh_e(theta1) = 0 or sinh_e(theta2) = 0 fails the sign test, before any placement
    (solve_asa, (ExtendedAngle(0.0, P1), ExtendedAngle(1.0, P1), 1.0), Inconsistent, WRONG_SIDE),
    (solve_asa, (ExtendedAngle(1.0, P1), ExtendedAngle(0.0, P1), 1.0), Inconsistent, WRONG_SIDE),
], ids=["sss-q-zero", "sas-sinh1-zero", "asa-sinh1-zero", "asa-sinh2-zero"])
def test_solver_sign_tests_at_exact_equality(solve, args, error, message):
    # NullSide and DegenerateTriangle are Inconsistent too, so the exact type
    # and message tell which test refused
    with pytest.raises(Inconsistent) as info:
        solve(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_solvers_decide_without_building_elements(monkeypatch):
    # every verdict is a sign test on the data, taken before or without
    # recomputing a candidate's elements.  A solver builds p2 and p3 of each
    # triangle it places and no other number (p1 is the one shared origin):
    # none at all when a sign test refuses, two when the placed figure is
    # refused as flat
    def refuse(self):
        raise AssertionError("a solver built the elements of a candidate")

    monkeypatch.setattr(Triangle, "elements", refuse)
    assert _ORIGIN == P(0.0, 0.0)

    def solved(solver, *args) -> int:
        with counting_builds(HyperbolicNumber) as built:
            got = solver(*args)
        found = got if isinstance(got, list) else [got]
        assert len(built) == 2 * len(found), (solver.__name__, args, len(built))
        assert all(t.p1 is _ORIGIN for t in found), (solver.__name__, args)
        return len(found)

    def refused(numbers, exc, match, solver, *args) -> None:
        with counting_builds(HyperbolicNumber) as built, pytest.raises(exc, match=match):
            solver(*args)
        assert len(built) == numbers, (solver.__name__, args, len(built))

    assert solved(solve_ssa, A06, -9.0, 25.0) == 2
    assert solved(solve_ssa, ExtendedAngle(0.4), -16.0, -9.0) == 1
    assert solved(solve_ssa, ExtendedAngle(0.5), -9.0, 25.0) == 0       # discriminant < 0
    assert solved(solve_ssa, ExtendedAngle(-0.5), -9.0, 25.0) == 0      # sinh_e(theta1) < 0
    assert solved(solve_ssa, ExtendedAngle(0.5, M1), -9.0, 25.0) == 0   # no root d2 > 0
    solved(solve_asa, ExtendedAngle(math.atanh(1.0 / 3.0)), ExtendedAngle(math.atanh(0.5)), 25.0)
    solved(solve_asa, ExtendedAngle(-0.0, H), ExtendedAngle(-0.2, M1), -3.0)
    refused(0, Inconsistent, "wrong side", solve_asa, ExtendedAngle(-0.3), ExtendedAngle(0.5), 25.0)
    refused(0, Inconsistent, "wrong side", solve_asa, A06, ExtendedAngle(-0.5), 25.0)
    refused(0, Inconsistent, "wrong side", solve_asa, A06, ExtendedAngle(0.1, H), -25.0)
    refused(0, ParallelRays, "parallel", solve_asa, A06, ExtendedAngle(-A06.theta, P1), 25.0)
    refused(2, Inconsistent, "vertices are collinear", solve_asa,
            ExtendedAngle(1e-13), ExtendedAngle(1.0), 1.0)
    solved(solve_sas, ExtendedAngle(math.log(2.0)), 16.0, 25.0)
    refused(0, Inconsistent, "clockwise", solve_sas, ExtendedAngle(-math.log(2.0)), 16.0, 25.0)
    refused(0, Inconsistent, "contradicts", solve_sas, ExtendedAngle(math.log(2.0)), -16.0, 25.0)
    refused(2, Inconsistent, "vertices are collinear", solve_sas, ExtendedAngle(1e-13, P1), 1.0, 1.0)
    solved(solve_sss, -9.0, 16.0, 25.0)
    refused(0, Inconsistent, "Q > 0", solve_sss, 1.0, 1.0, 1.0)
    refused(0, Inconsistent, "degenerate figure", solve_sss, 0.9999999999999999, 4.0, 1.0)


def test_ssa_whose_placement_overflows_is_invalid_input():
    # the far root is about 2 d3 cosh(300) = 2e280, and its vertex about 1e410
    with pytest.raises(InvalidInput, match="^the third vertex d2 \\(c1, s1\\) does not fit a double$"):
        solve_ssa(ExtendedAngle(300.0, P1), 1e300, 1e300)


def _magnitude(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * min(10.0 ** rng.uniform(-323.0, 308.25), 1.7e308)


def _any_angle(rng: random.Random) -> ExtendedAngle:
    span = 349.0 if rng.random() < 0.5 else 5.0
    return ExtendedAngle(rng.uniform(-span, span), rng.choice(list(KleinIndex)))


def test_solvers_raise_only_domain_errors_on_finite_input():
    # every finite datum, from subnormal to near the largest double, either
    # solves or is refused with a PseudoEuclidError
    rng = random.Random(8)
    for i in range(4000):
        kind = i % 4
        try:
            if kind == 0:
                solve_ssa(_any_angle(rng), _magnitude(rng), _magnitude(rng))
            elif kind == 1:
                solve_asa(_any_angle(rng), _any_angle(rng), _magnitude(rng))
            elif kind == 2:
                solve_sas(_any_angle(rng), _magnitude(rng), _magnitude(rng))
            else:
                solve_sss(_magnitude(rng), _magnitude(rng), _magnitude(rng))
        except PseudoEuclidError:
            pass


def _triangle_data(seed: int) -> tuple[ExtendedAngle, ExtendedAngle, float, float, float]:
    el = random_triangle(random.Random(seed)).elements()
    return (el.angles[0], el.angles[1], *el.D)


def _answer(k: int, solver, *args) -> list[list[str]] | str:
    """The vertices of each triangle times 2^k as float.hex, or the refusal's type name."""
    try:
        got = solver(*args)
    except PseudoEuclidError as exc:
        return type(exc).__name__
    return [[math.ldexp(c, k).hex() for p in t.vertices for c in (p.x, p.y)]
            for t in (got if isinstance(got, list) else [got])]


@settings(max_examples=300, deadline=None)
@given(st.builds(_triangle_data, st.integers(0, 2 ** 32 - 1)), st.integers(-480, 480))
# SSA data whose discriminant overflowed or underflowed unscaled, with data for the other solvers
@example((ExtendedAngle(1.0, P1), A06, 1e308, 1.0, 1e308), -480)
@example((ExtendedAngle(300.0, P1), A06, -1e300, 1.0, 1e60), -480)
@example((ExtendedAngle(-3.0136966872462176, H), A06, -1.05e-321, 1.0, -2.22212326569e-312), 480)
def test_solvers_scale_by_powers_of_four(data, k):
    # square sides scaled by 4^k give every vertex scaled by 2^k, bit for bit,
    # or the same refusal: no solver's verdict depends on scale
    theta1, theta2, D1, D2, D3 = data
    S1, S2, S3 = (math.ldexp(D, 2 * k) for D in (D1, D2, D3))
    for solver, unit, scaled in (
            (solve_ssa, (theta1, D1, D3), (theta1, S1, S3)),
            (solve_asa, (theta1, theta2, D3), (theta1, theta2, S3)),
            (solve_sas, (theta1, D2, D3), (theta1, S2, S3)),
            (solve_sss, (D1, D2, D3), (S1, S2, S3))):
        assert _answer(0, solver, *scaled) == _answer(k, solver, *unit), (solver.__name__, data, k)


@settings(max_examples=300, deadline=None)
@given(st.builds(_triangle_data, st.integers(0, 2 ** 32 - 1)), st.integers(-480, 480))
# at THETA_MAX the far SSA root places its vertex beyond the largest double,
# and the near one within it
@example((ExtendedAngle(THETA_MAX, P1), A06, -1.0, 1.0, 1e10), 0)
@example((ExtendedAngle(THETA_MAX, P1), A06, -1.0, 1.0, 1e10), -480)
@example((ExtendedAngle(300.0, P1), A06, 1e300, 1.0, 1e300), 0)
def test_placement_builds_only_numbers_the_check_accepts(data, k):
    # _place builds p2 and p3 without __post_init__: every number a solver
    # builds, on data scaled by 4^k, passes the check it skipped
    theta1, theta2, D1, D2, D3 = data
    S1, S2, S3 = (math.ldexp(D, 2 * k) for D in (D1, D2, D3))
    with counting_builds(HyperbolicNumber) as built:
        for solver, args in ((solve_ssa, (theta1, S1, S3)), (solve_asa, (theta1, theta2, S3)),
                             (solve_sas, (theta1, S2, S3)), (solve_sss, (S1, S2, S3))):
            try:
                solver(*args)
            except PseudoEuclidError:
                pass
    for z in built:
        assert type(z.x) is float and type(z.y) is float
        z.__post_init__()
