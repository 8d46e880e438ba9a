"""Acceptance gate: one test per shipping criterion, one printed verdict line each.

Every test prints ``PASS criterion-N ...`` or ``FAIL criterion-N ...`` straight
to the terminal (bypassing capture) before asserting, so a plain ``pytest`` run
of this module doubles as the release checklist.
"""
from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time

from pseudoeuclid.angle import ExtendedAngle, KleinIndex, cosh_sinh, sinh_e
from pseudoeuclid.errors import NullDirection
from pseudoeuclid.euclid import euclid_angle, euclid_signed_area
from pseudoeuclid.geometry import PointP
from pseudoeuclid.hyperbola import ChordClass, EquilateralHyperbola, circumscribed
from pseudoeuclid.hypnum import HyperbolicNumber, classify_sector, to_polar
from pseudoeuclid.selftest import random_motion, random_triangle, run_selftest
from pseudoeuclid.tol import quadratic_form
from pseudoeuclid.triangle import (
    Triangle,
    solve_asa,
    solve_sas,
    solve_ssa,
    solve_sss,
)

P = PointP
LN2 = math.log(2.0)
SEED = 20260822


def _report(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# --------------------------------------------------------------------------
# criterion 1: the worked example reproduces every frozen value to 1e-12
# --------------------------------------------------------------------------

def test_criterion_1_worked_example(capsys):
    t0 = time.monotonic()
    tol = 1e-12
    bad: list[str] = []

    def want(name: str, got: float, expect: float) -> None:
        if _rel(got, expect) > tol:
            bad.append(f"{name}={got!r} want {expect!r}")

    tri = Triangle(P(0, 0), P(5, 0), P(5, 3))
    el = tri.elements()
    for i, (gD, wD) in enumerate(zip(el.D, (-9.0, 16.0, 25.0)), 1):
        want(f"D{i}", gD, wD)
    for i, (gd, wd) in enumerate(zip(el.d, (3.0, 4.0, 5.0)), 1):
        want(f"d{i}", gd, wd)
    want("S", el.S, 7.5)
    for i, (ang, wt, wk) in enumerate(zip(
            el.angles,
            (LN2, 0.0, -LN2),
            (KleinIndex.P1, KleinIndex.H, KleinIndex.H)), 1):
        want(f"theta{i}", ang.theta, wt)
        if ang.k is not wk:
            bad.append(f"k{i}={ang.k.label} want {wk.label}")

    # point classification of the hypotenuse tip
    z = HyperbolicNumber(5, 3)
    if classify_sector(z).value != "Right":
        bad.append("sector(5,3)")
    rho, ang = to_polar(z)
    want("rho(5,3)", rho, 4.0)
    want("theta(5,3)", ang.theta, LN2)

    # two-solution side-side-angle instance
    sols = solve_ssa(ExtendedAngle(math.atanh(0.6), KleinIndex.P1), -9.0, 25.0)
    if len(sols) != 2:
        bad.append(f"ssa count={len(sols)}")
    else:
        tips = sorted((s.p3.x, s.p3.y) for s in sols)
        for (gx, gy), (wx, wy) in zip(tips, ((5.0, 3.0), (10.625, 6.375))):
            want("ssa.p3.x", gx, wx)
            want("ssa.p3.y", gy, wy)

    hyp = circumscribed(tri)
    want("circum.cx", hyp.center.x, 2.5)
    want("circum.cy", hyp.center.y, 1.5)
    want("circum.P", hyp.P, 4.0)
    want("circum.p", hyp.p, 2.0)
    if hyp.kind != "second":
        bad.append("circum.kind")

    dt = time.monotonic() - t0
    ok = not bad and dt < 1.0
    _report(capsys, ok, "criterion-1 worked-example",
            f"{'all frozen values at rel<=1e-12' if not bad else '; '.join(bad)}"
            f" ({dt:.2f}s)")


# --------------------------------------------------------------------------
# criterion 2: full randomized identity suite at n=10^4
# --------------------------------------------------------------------------

def test_criterion_2_identity_suite(capsys):
    t0 = time.monotonic()
    report = run_selftest(seed=SEED, n=10_000)
    dt = time.monotonic() - t0
    ok = report["ok"] and dt < 30.0
    worst = max(c["worst"] for c in report["checks"].values())
    _report(capsys, ok, "criterion-2 identity-suite",
            f"{len(report['checks'])} checks, n=10000, worst residual "
            f"{worst:.2e}, failed={report['failed']} ({dt:.1f}s)")


# --------------------------------------------------------------------------
# criterion 3: triangle elements are invariant under proper motions
# --------------------------------------------------------------------------

def test_criterion_3_motion_invariance(capsys):
    t0 = time.monotonic()
    rng = random.Random(SEED)
    tol = 1e-9
    worst = 0.0
    mismatched = 0
    for _ in range(1000):
        tri = random_triangle(rng)
        el = tri.elements()
        el2 = tri.transformed(random_motion(rng)).elements()
        for i in range(3):
            worst = max(worst, _rel(el2.D[i], el.D[i]), _rel(el2.d[i], el.d[i]))
            a, b = el.angles[i], el2.angles[i]
            if a.k is not b.k:
                mismatched += 1
            worst = max(worst, abs(b.theta - a.theta) / (1.0 + abs(a.theta)))
        worst = max(worst, _rel(el2.S, el.S))
    dt = time.monotonic() - t0
    ok = worst <= tol and mismatched == 0 and dt < 10.0
    _report(capsys, ok, "criterion-3 motion-invariance",
            f"1000 pairs, worst rel {worst:.2e} (limit 1e-09), "
            f"index mismatches {mismatched} ({dt:.1f}s)")


# --------------------------------------------------------------------------
# criterion 4: solvers round-trip random triangles; SSA counts match the
# discriminant on a stratified grid
# --------------------------------------------------------------------------

def _vertices_close(a: Triangle, b: Triangle, tol: float = 1e-8) -> bool:
    for p, q in zip(a.vertices, b.vertices):
        for u, v in ((p.x, q.x), (p.y, q.y)):
            if abs(u - v) > tol * (1.0 + abs(u) + abs(v)):
                return False
    return True


# stratified over angle index, adjacent-side sign, and root pattern; the
# expected count is recomputed from the discriminant in the test body
SSA_GRID = [
    # (theta1, k1, D1, D3)
    (math.atanh(0.6), KleinIndex.P1, -9.0, 25.0),             # two roots
    (math.atanh(0.6), KleinIndex.P1, -(25.0 * 0.75 ** 2), 25.0),  # disc == 0
    (0.4, KleinIndex.P1, -16.0, -9.0),
    (1.0, KleinIndex.MH, -9.0, 25.0),                         # sinh_e < 0
    (0.7, KleinIndex.H, 30.0, -25.0),
    (0.5, KleinIndex.P1, 9.0, 25.0),
    (0.5, KleinIndex.M1, -9.0, 25.0),
    (-0.3, KleinIndex.H, -4.0, 16.0),
    (0.9, KleinIndex.H, -30.0, -25.0),
    (0.2, KleinIndex.P1, -100.0, 25.0),                       # disc < 0
]


def _ssa_expected(theta1: ExtendedAngle, D1: float, D3: float) -> int:
    """Positive-root count of the quadratic for the unknown side, computed
    without the solver: kappa d2^2 - 2 kappa sign3 d3 c1 d2
    + kappa sign3 (D3 - D1) = 0."""
    c1, s1 = cosh_sinh(theta1)
    kappa = 1.0 if theta1.k in (KleinIndex.P1, KleinIndex.M1) else -1.0
    sign3 = 1.0 if D3 > 0 else -1.0
    d3 = math.sqrt(abs(D3))
    disc = d3 * d3 * s1 * s1 + kappa * sign3 * D1
    if s1 <= 0.0 or disc < 0.0:
        return 0
    roots = {kappa * sign3 * d3 * c1 - math.sqrt(disc),
             kappa * sign3 * d3 * c1 + math.sqrt(disc)}
    return sum(1 for r in roots if r > 1e-12)


def test_criterion_4_solver_round_trips(capsys):
    t0 = time.monotonic()
    rng = random.Random(SEED + 4)
    bad: list[str] = []
    for trial in range(1000):
        _, canon = random_triangle(rng).canonicalize()
        el = canon.elements()
        try:
            if not _vertices_close(solve_sss(*el.D), canon):
                bad.append(f"sss#{trial}")
            if not _vertices_close(solve_sas(el.angles[0], el.D[1], el.D[2]), canon):
                bad.append(f"sas#{trial}")
            if not _vertices_close(solve_asa(el.angles[0], el.angles[1], el.D[2]), canon):
                bad.append(f"asa#{trial}")
            if not any(_vertices_close(s, canon)
                       for s in solve_ssa(el.angles[0], el.D[0], el.D[2])):
                bad.append(f"ssa#{trial}")
        except Exception as exc:  # a solver refusing its own triangle is a failure
            bad.append(f"{type(exc).__name__}#{trial}")
        if len(bad) > 4:
            break
    counts_ok = True
    for theta, k, D1, D3 in SSA_GRID:
        ang = ExtendedAngle(theta, k)
        expect = _ssa_expected(ang, D1, D3)
        got = len(solve_ssa(ang, D1, D3))
        if got != expect:
            counts_ok = False
            bad.append(f"grid({theta:.3f},{k.label},{D1},{D3})={got} want {expect}")
    dt = time.monotonic() - t0
    ok = not bad and counts_ok
    _report(capsys, ok, "criterion-4 solver-round-trips",
            f"1000 triangles x 4 solvers at 1e-08, SSA grid {len(SSA_GRID)} rows"
            f"{'' if not bad else '; ' + '; '.join(bad[:5])} ({dt:.1f}s)")


# --------------------------------------------------------------------------
# criterion 5: the seven pseudo-circle theorems on 10^3 random configs each
# --------------------------------------------------------------------------

def _random_hyperbola(rng: random.Random) -> EquilateralHyperbola:
    mag = rng.uniform(0.5, 10.0)
    return EquilateralHyperbola(
        P(rng.uniform(-5, 5), rng.uniform(-5, 5)),
        mag if rng.random() < 0.5 else -mag)


def test_criterion_5_hyperbola_theorems(capsys):
    t0 = time.monotonic()
    rng = random.Random(SEED + 5)
    n = 1000
    fails: dict[str, int] = {}

    def count(name: str, bad: bool) -> None:
        if bad:
            fails[name] = fails.get(name, 0) + 1

    for _ in range(n):
        hyp = _random_hyperbola(rng)
        arm_a, arm_b = hyp.arms  # opposite arms
        a1, a2 = sorted(rng.uniform(-3, 3) for _ in range(2))
        if a2 - a1 < 1e-3:
            a2 = a1 + rng.uniform(1e-3, 3.0)
        p2 = hyp.p * hyp.p
        A = hyp.point_at(ExtendedAngle(a1, arm_a))
        B_opp = hyp.point_at(ExtendedAngle(a2, arm_b))
        B_same = hyp.point_at(ExtendedAngle(a2, arm_a))

        # T1: internal chords satisfy the cosh formula and never undercut
        # the diameter
        ch = hyp.chord(A, B_opp)
        count("T1-class", ch.chord_class is not ChordClass.INTERNAL)
        want = 4.0 * p2 * math.cosh((a2 - a1) / 2.0) ** 2
        count("T1-formula", _rel(abs(ch.D), want) > 1e-9)
        count("T1-minimal",
              abs(ch.D) < hyp.diameter_square_length() * (1.0 - 1e-9))

        # T2: chord midpoints are pseudo-orthogonal to their chords,
        # across arms and along one arm alike
        count("T2-ortho", hyp.midpoint_orthogonality_residual(A, B_opp) > 1e-9)
        count("T2-ortho", hyp.midpoint_orthogonality_residual(A, B_same) > 1e-9)

        # T3: along the tangent the form is P - sign(P) t^2: one touch point
        tang = hyp.tangent_at(A)
        for t in (-1.3, -0.5, 0.5, 1.3):
            pt = P(A.x + t * tang.direction.x, A.y + t * tang.direction.y)
            got = quadratic_form(pt.x - hyp.center.x, pt.y - hyp.center.y)
            expect = hyp.P - math.copysign(1.0, hyp.P) * t * t
            count("T3-identity", _rel(got, expect) > 1e-9)
            count("T3-touch", hyp.contains(pt))
        count("T3-touch", not hyp.contains(A))

        # T4/T5: the inscribed angle is half the central angle component-wise
        # and does not depend on the vertex position on the arc
        v1 = rng.uniform(a1 + 2e-4, a2 - 2e-4)
        V1 = hyp.point_at(ExtendedAngle(v1, arm_a))
        V2 = hyp.point_at(ExtendedAngle((a1 + a2) / 2.0, arm_a))
        ins = hyp.inscribed_angle(V1, A, B_same)
        cen = hyp.central_angle(A, B_same)
        if abs(v1 - (a1 + a2) / 2.0) > 1e-6:
            ins2 = hyp.inscribed_angle(V2, A, B_same)
            count("T4-constant",
                  ins.k is not ins2.k or abs(ins.theta - ins2.theta) > 1e-9)
        count("T5-double",
              cen.k is not ins.k
              or abs(cen.theta - 2.0 * ins.theta) > 1e-9 * (1 + abs(cen.theta)))

        # T6: every diameter is seen from the rest of the locus under a
        # right angle
        v = rng.uniform(-3, 3)
        if abs(v - a1) < 1e-3:
            v += 0.1
        V = hyp.point_at(ExtendedAngle(v, rng.choice(hyp.arms)))
        count("T6-thales", hyp.thales_residual(V, A) > 1e-9)

    # T7: circumscribed hyperbola equidistance and closed forms
    for _ in range(n):
        tri = random_triangle(rng)
        el = tri.elements()
        hyp = circumscribed(tri)
        for v in tri.vertices:
            count("T7-equidistant",
                  _rel(quadratic_form(v.x - hyp.center.x, v.y - hyp.center.y),
                       hyp.P) > 1e-9)
        d1, d2, d3 = el.d
        count("T7-p-closed", _rel(hyp.p, d1 * d2 * d3 / (4.0 * el.S)) > 1e-9)
        count("T7-P-closed",
              _rel(hyp.P, -el.D[0] * el.D[1] * el.D[2] / (16.0 * el.S ** 2)) > 1e-9)
        for di, ang in zip(el.d, el.angles):
            count("T7-sine-form", _rel(hyp.p, di / (2.0 * sinh_e(ang))) > 1e-9)

    dt = time.monotonic() - t0
    ok = not fails and dt < 30.0
    _report(capsys, ok, "criterion-5 hyperbola-theorems",
            f"7 theorems x {n} configs, failures {fails or 'none'} ({dt:.1f}s)")


# --------------------------------------------------------------------------
# criterion 6: dual-metric area agreement is exact, and the planar angle is
# rotation invariant
# --------------------------------------------------------------------------

def test_criterion_6_euclidean_bridge(capsys):
    t0 = time.monotonic()
    rng = random.Random(SEED + 6)
    exact = 0
    for _ in range(1000):
        tri = random_triangle(rng)
        p1, p2, p3 = tri.vertices
        if euclid_signed_area(p1, p2, p3) == tri.signed_area() == tri.elements().S:
            exact += 1
    worst = 0.0
    for _ in range(1000):
        v1 = HyperbolicNumber(rng.uniform(-5, 5), rng.uniform(-5, 5))
        v2 = HyperbolicNumber(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if math.hypot(v1.x, v1.y) < 1e-6 or math.hypot(v2.x, v2.y) < 1e-6:
            continue
        before = euclid_angle(v1, v2)
        phi = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(phi), math.sin(phi)

        def rot(v: HyperbolicNumber) -> HyperbolicNumber:
            return HyperbolicNumber(c * v.x - s * v.y, s * v.x + c * v.y)

        after = euclid_angle(rot(v1), rot(v2))
        worst = max(worst,
                    abs(after.cos - before.cos),
                    abs(after.sin - before.sin),
                    abs(after.radians - before.radians))
    dt = time.monotonic() - t0
    ok = exact == 1000 and worst <= 1e-12
    _report(capsys, ok, "criterion-6 euclid-bridge",
            f"area equality {exact}/1000 bit-for-bit, rotation residual "
            f"{worst:.2e} (limit 1e-12) ({dt:.1f}s)")


# --------------------------------------------------------------------------
# criterion 7: command-line contract
# --------------------------------------------------------------------------

def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pseudoeuclid.cli", *argv],
                          capture_output=True, text=True)


def test_criterion_7_cli_contract(capsys):
    t0 = time.monotonic()
    bad: list[str] = []

    r = _cli("classify", "--point", "5,3")
    if r.returncode != 0:
        bad.append("classify rc")
    else:
        data = json.loads(r.stdout)
        if data["sector"] != "Right" or data["D"] != 16.0:
            bad.append("classify payload")

    r = _cli("solve", "ssa", "--theta1", "atanh(0.6),+1",
             "--D1", "-9", "--D3", "25")
    if r.returncode != 0 or json.loads(r.stdout)["count"] != 2:
        bad.append("solve ssa")

    r = _cli("circumhyperbola", "--vertices", "0,0", "5,0", "5,3")
    if r.returncode != 0:
        bad.append("circumhyperbola rc")
    else:
        data = json.loads(r.stdout)
        if (data["cx"], data["cy"], data["P"]) != (2.5, 1.5, 4.0):
            bad.append("circumhyperbola payload")

    r = _cli("check", "--seed", "1", "--n", "100")
    if r.returncode != 0 or not json.loads(r.stdout)["ok"]:
        bad.append("check rc")

    r = _cli("classify", "--point", "1;2")
    if r.returncode != 2:
        bad.append(f"malformed rc={r.returncode}")
    r = _cli("solve", "sss", "--D", "1,1")
    if r.returncode != 2:
        bad.append(f"short --D rc={r.returncode}")

    dt = time.monotonic() - t0
    ok = not bad
    _report(capsys, ok, "criterion-7 cli-contract",
            f"{'6 subprocess probes' if ok else '; '.join(bad)} ({dt:.1f}s)")
