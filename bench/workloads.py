"""Workload inputs, independent references and per-op output checks.

Everything here runs in the benchmark's parent process.  The ``solve``
references come from ``mpmath`` and never call the library; ``cli`` ops are
checked against the in-process result of the same request, which is the one
place the parent imports ``pseudoeuclid``.
"""
from __future__ import annotations

import contextlib
import io
import math
import random

import mpmath
from mpmath import mp

# selftest: one op is run_selftest(seed_i, SELFTEST_N); at this n an op takes
# ~0.15-0.2 s, so a 30 s run gives the >=100 samples a p90 needs.  A timed
# run cycles over SELFTEST_POOL distinct seed_i: about 20-25 s of ops today, so
# all are checked in every run and few are repeated.
SELFTEST_N = 300
SELFTEST_POOL = 120

# solve: the timed loop cycles over a pool of distinct requests; the first
# answer to each is checked against mpmath, every repeat must equal it bit
# for bit.  Scale is spread over SCALE_DECADES decades around 1.
SOLVE_POOL = 2100
SCALE_DECADES = 6.0
SOLVE_KINDS = ("ssa", "asa", "sas", "sss", "circumscribed")
UNSOLVABLE_KINDS = ("ssa", "sas", "sss")
# every 5th request is unsolvable (20%); the kinds cycle, so every seed gets
# the same mix: 16% of each solvable kind, 6.7% of each unsolvable one
# vertex triples keep every side clear of the null lines and the area clear
# of zero, relative to the sides' Euclidean size (selftest's margin)
MARGIN = 1e-3
# the solvers' own round-trip tolerance (SOLVE_ANGLE_TOL, SOLVE_SIDE_TOL)
TOL = 1e-8

# cli: a fixed cycle of request kinds; CLI_CHECK_N keeps `check` small.  A
# timed run cycles over CLI_POOL distinct argvs, like selftest.
CLI_CHECK_N = 20
CLI_POOL = 150
DPS = 40  # mpmath digits for references and checks


# ---------------------------------------------------------------- selftest

def selftest_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(f"selftest:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def selftest_verdict(report, seed: int, n: int) -> str:
    """'pass', 'reported' (a well-formed report whose own verdict is a failed
    identity) or 'wrong' (malformed, inconsistent, or not this request's)."""
    try:
        checks = report["checks"]
        if report["seed"] != seed or report["n"] != n or not checks:
            return "wrong"
        bad = [name for name, c in checks.items() if not c["worst"] <= c["limit"]]
        if any(c["samples"] != n or c["ok"] != (name not in bad)
               for name, c in checks.items()):
            return "wrong"
        if report["failed"] != bad or report["ok"] != (not bad):
            return "wrong"
    except (KeyError, TypeError, AttributeError):
        return "wrong"
    return "reported" if bad else "pass"


# ------------------------------------------------------------------- solve

def _qf(x, y):
    return x * x - y * y


def _two_s(p):
    (x1, y1), (x2, y2), (x3, y3) = p
    return x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2)


def well_conditioned(p, margin: float = MARGIN) -> bool:
    """Sides clear of the null lines and area clear of zero (in doubles)."""
    for a, b in ((0, 1), (1, 2), (0, 2)):
        dx, dy = p[b][0] - p[a][0], p[b][1] - p[a][1]
        if abs(_qf(dx, dy)) < margin * (dx * dx + dy * dy):
            return False
    e1 = math.hypot(p[1][0] - p[0][0], p[1][1] - p[0][1])
    e3 = math.hypot(p[2][0] - p[0][0], p[2][1] - p[0][1])
    return abs(_two_s(p)) >= margin * e1 * e3


def _mp_angle(ux, uy, vx, vy):
    """Extended angle from ray u to ray v: (theta, k label), in mpmath."""
    den = mp.sqrt(abs(_qf(ux, uy))) * mp.sqrt(abs(_qf(vx, vy)))
    c = (ux * vx - uy * vy) / den
    s = (ux * vy - uy * vx) / den
    if abs(s) < abs(c):
        return mp.atanh(s / c), ("+1" if c > 0 else "-1")
    return mp.atanh(c / s), ("+h" if s > 0 else "-h")


def mp_elements(p):
    """Square sides D1..D3 and vertex angles of the vertex order given
    (side i opposite vertex i), computed in mpmath from the exact doubles."""
    (x1, y1), (x2, y2), (x3, y3) = [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in p]
    D = (_qf(x3 - x2, y3 - y2), _qf(x3 - x1, y3 - y1), _qf(x2 - x1, y2 - y1))
    angles = (_mp_angle(x2 - x1, y2 - y1, x3 - x1, y3 - y1),
              _mp_angle(x3 - x2, y3 - y2, x1 - x2, y1 - y2),
              _mp_angle(x1 - x3, y1 - y3, x2 - x3, y2 - y3))
    return D, angles, _two_s([(x1, y1), (x2, y2), (x3, y3)])


def _mp_cosh_sinh(theta: float, k: str):
    c, s = mp.cosh(theta), mp.sinh(theta)
    return {"+1": (c, s), "-1": (-c, -s), "+h": (s, c), "-h": (-s, -c)}[k]


def _ssa_roots(theta, k, D1, D3):
    """d2 roots > 0 of the SSA quadratic, plus the root-size scale, in mpmath."""
    c1, s1 = _mp_cosh_sinh(theta, k)
    kappa = 1 if k in ("+1", "-1") else -1
    sign3 = 1 if D3 > 0 else -1
    d3 = mp.sqrt(abs(mpmath.mpf(D3)))
    disc = d3 * d3 * s1 * s1 + kappa * sign3 * mpmath.mpf(D1)
    base = kappa * sign3 * d3 * c1
    if disc < 0:
        return [], disc, abs(base), c1, s1
    root = mp.sqrt(disc)
    return [r for r in (base - root, base + root) if r > 0], disc, abs(base) + root, c1, s1


def _draw_triangle(rng: random.Random):
    """A counterclockwise, well-conditioned vertex triple at a random scale."""
    while True:
        scale = 10.0 ** rng.uniform(-SCALE_DECADES / 2, SCALE_DECADES / 2)
        cx, cy = scale * rng.uniform(-2, 2), scale * rng.uniform(-2, 2)
        p = [(cx + scale * rng.uniform(-1, 1), cy + scale * rng.uniform(-1, 1))
             for _ in range(3)]
        if not well_conditioned(p):
            continue
        if _two_s(p) < 0:
            p[1], p[2] = p[2], p[1]
        return p


def _ssa_request(rng, theta, k, D, unsolvable):
    D1, D3 = D[0], D[2]
    if unsolvable:
        # push kappa*sign3*D1 below -d3^2 s1^2: the discriminant goes negative
        s1 = float(_mp_cosh_sinh(theta, k)[1])
        kappa = 1 if k in ("+1", "-1") else -1
        sign3 = 1 if D3 > 0 else -1
        D1 = -kappa * sign3 * abs(D3) * s1 * s1 * rng.uniform(1.1, 3.0)
    roots, disc, size, c1, s1 = _ssa_roots(theta, k, D1, D3)
    if unsolvable:
        return ({"kind": "ssa", "theta1": [theta, k], "D1": D1, "D3": D3},
                {"roots": []}) if disc < -MARGIN * size * size else None
    # keep the quadratic clear of a double root and every root clear of 0,
    # and every second solution as well conditioned as the first
    if disc < MARGIN * size * size or any(r < MARGIN * size for r in roots):
        return None
    d3 = math.sqrt(abs(D3))
    for r in roots:
        r, c, s = float(r), float(c1), float(s1)
        p3 = (r * c, r * s) if D3 > 0 else (r * s, r * c)
        p2 = (d3, 0.0) if D3 > 0 else (0.0, -d3)
        if not well_conditioned([(0.0, 0.0), p2, p3]):
            return None
    return ({"kind": "ssa", "theta1": [theta, k], "D1": D1, "D3": D3},
            {"roots": [float(r) for r in roots]})


def solve_requests(seed: int, count: int = SOLVE_POOL):
    """``count`` solver requests and, separately, what each should produce.

    Returns (requests, expected); the worker only ever sees ``requests``.
    """
    rng = random.Random(f"solve:{seed}")
    requests, expected = [], []
    with mp.workdps(DPS):
        while len(requests) < count:
            j = len(requests)
            unsolvable = j % 5 == 4
            kind = (UNSOLVABLE_KINDS[(j // 5) % 3] if unsolvable
                    else SOLVE_KINDS[(j - j // 5) % 5])
            p = _draw_triangle(rng)
            D_mp, angles_mp, _ = mp_elements(p)
            D = [float(v) for v in D_mp]
            ang = [[float(t), k] for t, k in angles_mp]
            if kind == "ssa":
                pair = _ssa_request(rng, ang[0][0], ang[0][1], D, unsolvable)
                if pair is None:
                    continue
                req, exp = pair
            elif kind == "asa":
                req, exp = {"kind": "asa", "theta1": ang[0], "theta2": ang[1], "D3": D[2]}, {}
            elif kind == "sas":
                D2 = -D[1] if unsolvable else D[1]
                req = {"kind": "sas", "theta1": ang[0], "D2": D2, "D3": D[2]}
                exp = {"error": "Inconsistent"} if unsolvable else {}
            elif kind == "sss":
                if unsolvable:
                    D = _unrealizable(rng)
                req = {"kind": "sss", "D": D}
                exp = {"error": "Inconsistent"} if unsolvable else {}
            else:
                req, exp = {"kind": "circumscribed", "vertices": p}, _mp_circle(p)
            requests.append(req)
            expected.append(exp)
    return requests, expected


def _unrealizable(rng):
    """Square sides with Q = sum D^2 - 2 sum D_i D_j clearly negative."""
    while True:
        scale = 10.0 ** rng.uniform(-SCALE_DECADES / 2, SCALE_DECADES / 2)
        D = [scale * scale * rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for _ in range(3)]
        q = D[0] ** 2 + D[1] ** 2 + D[2] ** 2 - 2 * (D[0] * D[1] + D[0] * D[2] + D[1] * D[2])
        if q < -0.1 * (D[0] ** 2 + D[1] ** 2 + D[2] ** 2):
            return D


def _mp_circle(p):
    """Centre and P of the hyperbola through three points, in mpmath: the
    centre solves D(c, p1) = D(c, p2) = D(c, p3), which is linear in c."""
    (x1, y1), (x2, y2), (x3, y3) = [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in p]
    a11, a12, b1 = 2 * (x2 - x1), -2 * (y2 - y1), _qf(x2, y2) - _qf(x1, y1)
    a21, a22, b2 = 2 * (x3 - x1), -2 * (y3 - y1), _qf(x3, y3) - _qf(x1, y1)
    det = a11 * a22 - a12 * a21
    cx = (b1 * a22 - a12 * b2) / det
    cy = (a11 * b2 - b1 * a21) / det
    r2 = max((x - cx) ** 2 + (y - cy) ** 2 for x, y in ((x1, y1), (x2, y2), (x3, y3)))
    return {"center": [float(cx), float(cy)], "P": float(_qf(x1 - cx, y1 - cy)),
            "r2": float(r2)}


def _close(got, want) -> bool:
    return abs(got - want) <= TOL * abs(want)


def _angle_close(got, want) -> bool:
    return got[1] == want[1] and abs(got[0] - want[0]) <= TOL * (1 + abs(want[0]))


def _triangle_ok(tri, req) -> bool:
    """A returned triangle (six coordinates) is counterclockwise and
    reproduces the request's data to the solvers' tolerance."""
    p = [(tri[0], tri[1]), (tri[2], tri[3]), (tri[4], tri[5])]
    with mp.workdps(DPS):
        D, angles, two_s = mp_elements(p)
        if not two_s > 0:
            return False
        given = {"theta1": (angles, 0), "theta2": (angles, 1),
                 "D1": (D, 0), "D2": (D, 1), "D3": (D, 2)}
        for key, value in req.items():
            if key == "D":
                if not all(_close(D[i], value[i]) for i in range(3)):
                    return False
            elif key in given:
                seq, i = given[key]
                ok = _angle_close(seq[i], value) if key.startswith("theta") else _close(seq[i], value)
                if not ok:
                    return False
    return True


def solve_ok(req, exp, out) -> bool:
    """Check one solver answer: the right count, or the right domain error,
    and every solution reproducing the data."""
    if "error" in exp:
        return out == exp["error"]
    if req["kind"] == "circumscribed":
        if not isinstance(out, list) or len(out) != 3:
            return False
        r = math.sqrt(exp["r2"])
        return (abs(out[0] - exp["center"][0]) <= TOL * r
                and abs(out[1] - exp["center"][1]) <= TOL * r
                and abs(out[2] - exp["P"]) <= TOL * exp["r2"])
    if not isinstance(out, list):
        return False
    want = len(exp["roots"]) if req["kind"] == "ssa" else 1
    if len(out) != want or not all(_triangle_ok(t, req) for t in out):
        return False
    if req["kind"] == "ssa" and out:
        # the solutions are the two distinct roots, not one root twice
        got = sorted(math.sqrt(abs(_qf(t[4] - t[0], t[5] - t[1]))) for t in out)
        top = max(exp["roots"])
        return all(abs(g - r) <= TOL * top for g, r in zip(got, sorted(exp["roots"])))
    return True


# --------------------------------------------------------------------- cli

def _r(x: float) -> str:
    return repr(float(x))


def _point(x, y) -> str:
    return f"{_r(x)},{_r(y)}"


def _positive(p):
    """Shift a triple right so no coordinate text starts with '-': argparse
    reads such values of the multi-value --segment/--vertices as flags."""
    shift = max(0.0, 1.0 - min(x for x, _ in p))
    return [(x + shift, y) for x, y in p]


def _cli_triangle(rng):
    p = _draw_triangle(rng)
    with mp.workdps(DPS):
        D, angles, _ = mp_elements(p)
    return p, [float(v) for v in D], [f"{_r(float(t))},{k}" for t, k in angles]


def _cli_classify_point(rng):
    return ["classify", f"--point={_point(rng.uniform(-10, 10), rng.uniform(-10, 10))}"]


def _cli_classify_segment(rng):
    a, b = _positive([(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(2)])
    return ["classify", "--segment", _point(*a), _point(*b)]


def _cli_ssa(rng):
    _, D, th = _cli_triangle(rng)
    return ["solve", "ssa", f"--theta1={th[0]}", f"--D1={_r(D[0])}", f"--D3={_r(D[2])}"]


def _cli_asa(rng):
    _, D, th = _cli_triangle(rng)
    return ["solve", "asa", f"--theta1={th[0]}", f"--theta2={th[1]}", f"--D3={_r(D[2])}",
            "--format", "csv"]


def _cli_sas_inconsistent(rng):
    _, D, th = _cli_triangle(rng)
    return ["solve", "sas", f"--theta1={th[0]}", f"--D2={_r(-D[1])}", f"--D3={_r(D[2])}"]


def _cli_sss(rng):
    _, D, _ = _cli_triangle(rng)
    return ["solve", "sss", f"--D={_r(D[0])},{_r(D[1])},{_r(D[2])}", "--format", "csv"]


def _cli_circum(rng):
    p, _, _ = _cli_triangle(rng)
    return ["circumhyperbola", "--vertices", *(_point(x, y) for x, y in _positive(p))]


def _cli_unit(rng):
    span = rng.uniform(0.5, 3.0)
    return ["sample", "unit-hyperbolas", f"--theta={_r(-span)}:{_r(span)}:{rng.randint(5, 12)}",
            "--format", "csv"]


def _cli_cosh(rng):
    return ["sample", "cosh-e", f"--phi=0:{_r(rng.uniform(1.0, 6.0))}:{rng.randint(5, 12)}"]


def _cli_check(rng):
    return ["check", "--n", str(CLI_CHECK_N), "--seed", str(rng.randrange(2**31))]


CLI_KINDS = (_cli_classify_point, _cli_classify_segment, _cli_ssa, _cli_asa,
             _cli_sas_inconsistent, _cli_sss, _cli_circum, _cli_unit, _cli_cosh, _cli_check)


def cli_requests(seed: int, count: int) -> list[list[str]]:
    """argv lists cycling through CLI_KINDS, so every prefix has the mix."""
    rng = random.Random(f"cli:{seed}")
    return [CLI_KINDS[i % len(CLI_KINDS)](rng) for i in range(count)]


def cli_in_process(argv: list[str]) -> list:
    """[exit code, stdout] of pseudoeuclid.cli.main(argv) in this process."""
    from pseudoeuclid.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
    return [code, out.getvalue()]
