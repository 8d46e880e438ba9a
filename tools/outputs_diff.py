"""Compare the outputs of two source trees, family by family, line by line.

    python tools/outputs_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``pseudoeuclid`` package
(the ``src`` directory of each checkout).  Each tree writes one line per
output, in one subprocess per tree and family, the two trees at once:

- selftest: ``run_selftest(s, 300)`` for s = 0-399, one line per suite with
  its ``worst`` as float.hex, then one line with the report's repr;
- solve: the answers to ``bench/workloads.solve_requests(seed)`` for seeds
  401-410, the vertices of every triangle or the ``circumscribed`` center
  and P as float.hex, or the refusal's type and message;
- angle: ``cosh_sinh``, ``cosh_e``, ``sinh_e``, ``from_point``,
  ``angle_between`` and ``add_angles`` on a fixed fuzz of finite inputs
  (every Klein index, signed zeros, subnormals, the edges of the angle
  kernel's band 2^+-900 and 2^+-450, +-THETA_MAX and their neighbours, and
  seeded draws across the exponent range), in hex or the refusal;
- cli: a fixed corpus of about 2,500 argvs run in-process through
  ``pseudoeuclid.cli.main``: every command and format, the
  ``solve_requests(411)`` data as ``solve`` and ``circumhyperbola`` argvs,
  values that start with ``-``, malformed values, ``PSEUDOEUCLID_EPS``
  settings, usage errors and ``check`` at small n.  Each line holds the
  argv, the exit code, and stdout and stderr escaped.  The null tolerance is
  reset after each argv, and no argv writes a file.

For each family the script prints, per kind (suite, request kind, function
or command), how many lines differ and the first few places, then the count and
the sha256 of each tree's lines.  It exits 0 when no line differs, 1 when
some line differs, and 2 when a run fails.  It reads ``bench/`` and writes
nothing there.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path
from typing import IO

BENCH = Path(__file__).resolve().parents[1] / "bench"
SELFTEST_SEEDS = range(400)
SELFTEST_N = 300
SOLVE_SEEDS = range(401, 411)
CLI_SOLVE_SEED = 411
FIRST = 5

# run in each tree: "suite:seed worst" per suite, then "repr:seed report"
_SELFTEST = """
import sys
from pseudoeuclid.selftest import run_selftest
start, stop, n = map(int, sys.argv[1:])
for s in range(start, stop):
    report = run_selftest(s, n)
    for name, check in report["checks"].items():
        print(f"{name}:{s} {check['worst'].hex()}")
    print(f"repr:{s} {report!r}")
"""

# run in each tree: one line per request, "seed:index kind answer"
_SOLVE = """
import sys
sys.dont_write_bytecode = True  # bench/ is read, never written
sys.path.insert(0, sys.argv[1])
import workloads
import pseudoeuclid as pe

def angle(pair):
    return pe.ExtendedAngle(pair[0], pe.KleinIndex.from_label(pair[1]))

def answer(req):
    kind = req["kind"]
    if kind == "ssa":
        return pe.solve_ssa(angle(req["theta1"]), req["D1"], req["D3"])
    if kind == "asa":
        return [pe.solve_asa(angle(req["theta1"]), angle(req["theta2"]), req["D3"])]
    if kind == "sas":
        return [pe.solve_sas(angle(req["theta1"]), req["D2"], req["D3"])]
    if kind == "sss":
        return [pe.solve_sss(*req["D"])]
    hyp = pe.circumscribed(pe.Triangle(*(pe.PointP(x, y) for x, y in req["vertices"])))
    return "center and P " + " ".join(map(float.hex, (hyp.center.x, hyp.center.y, hyp.P)))

def text(req):
    try:
        got = answer(req)
    except pe.PseudoEuclidError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(got, str):
        return got
    return f"{len(got)} triangles " + " | ".join(
        " ".join(float.hex(c) for p in t.vertices for c in (p.x, p.y)) for t in got)

for seed in range(int(sys.argv[2]), int(sys.argv[3])):
    for i, req in enumerate(workloads.solve_requests(seed)[0]):
        print(f"{seed}:{i} {req['kind']} {text(req)}")
"""

# run in each tree: one line per call, "function:index inputs -> result"
_ANGLE = """
import math, random
from pseudoeuclid import angle as pa
from pseudoeuclid.errors import PseudoEuclidError
from pseudoeuclid.hypnum import HyperbolicNumber, angle_between

rng = random.Random(20050101)
KS = list(pa.KleinIndex)
TINY = [5e-324, float.fromhex("0x0.fffffffffffffp-1022"), 2.0 ** -1022]
# magnitudes at the edges of the kernel's band, one step to either side
EDGES = [v for e in (-900, -450, 450, 900)
         for v in (2.0 ** e, math.nextafter(2.0 ** e, 0.0), math.nextafter(2.0 ** e, math.inf))]
MAGNITUDES = [0.0, 1.0, 0.5, 3.0, *TINY, *EDGES, 1.7e308]
COORDS = [s * m for m in MAGNITUDES for s in (1.0, -1.0)]
T = pa.THETA_MAX
THETAS = [0.0, -0.0, *(s * v for v in (*TINY, T, math.nextafter(T, 0.0), math.nextafter(T, math.inf))
                       for s in (1.0, -1.0))]


def anywhere():
    # a signed mantissa in [0.5, 1) at any exponent: finite, subnormal or zero
    m = math.ldexp(0.5 + 0.5 * rng.random(), rng.randint(-1074, 1024))
    return m if rng.random() < 0.5 else -m


def coord():
    return rng.choice(COORDS) if rng.random() < 0.3 else anywhere()


def theta():
    r = rng.random()
    if r < 0.2:
        return rng.choice(THETAS)
    if r < 0.6:
        return rng.uniform(-1.01 * T, 1.01 * T)
    return anywhere()


def show(v):
    if isinstance(v, tuple):
        return " ".join(map(show, v))
    if isinstance(v, pa.ExtendedAngle):
        return f"{v.theta.hex()} {v.k.label}"
    return v.hex()


def call(fn, *args):
    try:
        return show(fn(*args))
    except PseudoEuclidError as exc:
        return f"{type(exc).__name__}: {exc}"


lines = {name: [] for name in ("cosh_sinh", "cosh_e", "sinh_e", "from_point", "angle_between",
                               "add_angles")}
angles = [pa.ExtendedAngle(t, k) for t in THETAS for k in KS]
angles += [pa.ExtendedAngle(theta(), rng.choice(KS)) for _ in range(2000)]
for a in angles:
    for name in ("cosh_sinh", "cosh_e", "sinh_e"):
        lines[name].append(f"{show(a)} -> {call(getattr(pa, name), a)}")
for _ in range(4000):
    a, b = rng.choice(angles), rng.choice(angles)
    lines["add_angles"].append(f"{show(a)} {show(b)} -> {call(pa.add_angles, a, b)}")
points = [(x, y) for x in COORDS for y in COORDS]
points += [(coord(), coord()) for _ in range(4000)]
for x, y in points:
    lines["from_point"].append(f"{show((x, y))} -> {call(pa.from_point, x, y)}")
for _ in range(8000):
    (x1, y1), (x2, y2) = rng.choice(points), rng.choice(points)
    v1, v2 = HyperbolicNumber(x1, y1), HyperbolicNumber(x2, y2)
    lines["angle_between"].append(f"{show((x1, y1, x2, y2))} -> {call(angle_between, v1, v2)}")
for name, got in lines.items():
    for i, line in enumerate(got):
        print(f"{name}:{i} {line}")
"""

# run in each tree: one line per argv, "kind:index command-line -> code stdout stderr"
_CLI = """
import contextlib, io, json, os, shlex, sys
sys.dont_write_bytecode = True  # bench/ is read, never written
sys.path.insert(0, sys.argv[1])
import workloads
from pseudoeuclid import cli, tol

os.environ["COLUMNS"] = "80"  # argparse wraps its help and usage to this width
FORMATS = ([], ["--format", "csv"], ["--format=json"])
POINTS = ["1,0", "3,4", "-1,0", "-.5,2", "0,0", "1,1", "2,-2", "1e200,0", "5e-324,0",
          "-1.7976931348623157e308,1", "1e-300,3e-300", "0.25,-0.75"]
THETAS = ["atanh(0.6),+1", "-atanh(0.5),+h", "0.5,-1", "-0.5,-h", "0,+h", "349.9,+1", "351,+1",
          "-0.0,+1"]
SIDES = ["-9", "16", "25", "1e-300", "-1e300", "0.5", "-4"]
RANGES = ["-1:1:5", "0:0:2", "-3:3:12", "-350:350:3", "-351:351:3", "1e-300:2e-300:4"]
PHIS = ["0:3.14159:9", "0:6.283:12", "-1:1:7", "0.785398:0.785399:3"]
EPS = ["1e-12", "1e-3", "0.5", "5e-324", "0", "-1", "nan", "inf", "abc", ""]
SEPARATE = ("--D1", "--D2", "--D3", "--theta1", "--theta2")


def number(x):
    return repr(float(x))


def angle(pair):
    return f"{number(pair[0])},{pair[1]}"


def option(i, name, value):
    # every other argv passes a value as its own argument, the others with "="
    return [name, value] if i % 2 and name in SEPARATE else [f"{name}={value}"]


def request(i, req):
    kind = req["kind"]
    if kind == "circumscribed":
        return "circumhyperbola", ["circumhyperbola", "--vertices",
                                   *(f"{number(x)},{number(y)}" for x, y in req["vertices"])]
    argv = ["solve", kind]
    if kind == "sss":
        argv += option(i, "--D", ",".join(map(number, req["D"])))
    for name in ("theta1", "theta2"):
        if name in req:
            argv += option(i, f"--{name}", angle(req[name]))
    for name in ("D1", "D2", "D3"):
        if name in req:
            argv += option(i, f"--{name}", number(req[name]))
    return "solve", argv


def corpus():
    # (kind, PSEUDOEUCLID_EPS or None, argv), in a fixed order
    for i, p in enumerate(POINTS):
        for fmt in FORMATS:
            yield "classify", None, ["classify", "--point", p, *fmt]
            yield "classify", None, [*fmt, "classify", f"--point={p}"]
            yield "classify", None, ["classify", "--segment", p, POINTS[i - 1], *fmt]
    for i, theta in enumerate(THETAS):
        for j, fmt in enumerate(FORMATS):
            D1, D2, D3 = SIDES[i % 7], SIDES[(i + j + 1) % 7], SIDES[(i + 2 * j + 2) % 7]
            yield "solve", None, ["solve", "ssa", *option(j, "--theta1", theta),
                                  *option(j + 1, "--D1", D1), *option(j, "--D3", D3), *fmt]
            yield "solve", None, ["solve", "asa", *option(j, "--theta1", theta),
                                  f"--theta2={THETAS[i - 1]}", *option(j, "--D3", D3), *fmt]
            yield "solve", None, [*fmt, "solve", "sas", f"--theta1={theta}",
                                  *option(j + 1, "--D2", D2), *option(j, "--D3", D3)]
            yield "solve", None, ["solve", "sss", f"--D={D1},{D2},{D3}", *fmt]
    for argv in (["solve", "sss", "--D=4,1,1"], ["solve", "sas", "--theta1=0,+1", "--D2", "4", "--D3", "1"],
                 ["solve", "asa", "--theta1=0,+1", "--theta2=1,+1", "--D3", "1"],
                 ["solve", "ssa", "--theta1=300,+1", "--D1=1e300", "--D3=1e300"]):
        yield "solve", None, argv
    requests = workloads.solve_requests(int(sys.argv[2]))[0]
    for i, req in enumerate(requests):
        kind, argv = request(i, req)
        yield kind, None, argv + FORMATS[i % 3]
    for i, (a, b, c) in enumerate(zip(POINTS, POINTS[1:], POINTS[2:])):
        yield "circumhyperbola", None, ["circumhyperbola", "--vertices", a, b, c, *FORMATS[i % 3]]
    for i, fmt in enumerate(FORMATS):
        for r in RANGES:
            yield "sample", None, ["sample", "unit-hyperbolas", f"--theta={r}", *fmt]
        for phi in PHIS:
            for gap in ("1e-2", "0", "0.5", "nan"):
                yield "sample", None, ["sample", "cosh-e", "--phi", phi, f"--gap-eps={gap}", *fmt]
    # a range whose last sample lo + (n - 1) step rounds off hi, a range from -0.0,
    # and a segment whose q - p overflows
    for argv in (["sample", "unit-hyperbolas", "--theta=-3:-1.2:4"],
                 ["sample", "unit-hyperbolas", "--theta=-0.0:1:3", "--format", "csv"],
                 ["classify", "--segment", "1.5e308,1.5e308", "-1.5e308,-1.5e308"],
                 ["classify", "--segment", "1.5e308,1.5e308", "-1.5e308,-1.5e308", "--format", "csv"]):
        yield argv[0], None, argv
    for seed in range(10):
        for n in ("1", "4"):
            yield "check", None, ["check", "--seed", str(seed), "--n", n, *FORMATS[seed % 3]]
    for eps in EPS:
        for argv in (["classify", "--point", "1,0.9999"], ["classify", "--segment", "0,0", "1,0.5"],
                     ["solve", "sss", "--D=-9,16,25"], ["sample", "cosh-e", "--phi=0:3.14159:9"],
                     ["check", "--n", "3", "--seed", "1", "--format", "csv"]):
            yield "eps", eps, argv
    for argv in (["classify", "--point", "1"], ["classify", "--point", "1,2,3"], ["classify", "--point=a,b"],
                 ["classify", "--point=nan,0"], ["classify", "--point=inf,1"], ["classify", "--point="],
                 ["classify", "--segment", "1,0", "1,0"], ["classify", "--segment", "1e308,0", "-1e308,0"],
                 ["solve", "ssa", "--theta1=0.5", "--D1=1", "--D3=1"],
                 ["solve", "ssa", "--theta1=0.5,+2", "--D1=1", "--D3=1"],
                 ["solve", "ssa", "--theta1=atanh(2),+1", "--D1=1", "--D3=1"],
                 ["solve", "ssa", "--theta1=atanh(x),+1", "--D1=1", "--D3=1"],
                 ["solve", "ssa", "--theta1=nan,+1", "--D1=1", "--D3=1"],
                 ["solve", "sas", "--theta1=0.5,+1", "--D2=nan", "--D3=1"],
                 ["solve", "sas", "--theta1=0.5,+1", "--D2=1", "--D3=inf"],
                 ["solve", "asa", "--theta1=0.5,+1", "--theta2=0.5,+1", "--D3=0"],
                 ["solve", "asa", "--theta1=0.5,+1", "--theta2=0.5,+1", "--D3=x"],
                 ["solve", "sss", "--D=1,2"], ["solve", "sss", "--D=a,b,c"], ["solve", "sss", "--D=1e400,1,1"],
                 ["solve", "sss", "--D=1,2,3,4"], ["solve", "sss", "--D="],
                 ["classify", "--segment", "1,0", "a,b"], ["sample", "cosh-e", "--phi=0:1"],
                 ["sample", "unit-hyperbolas", "--theta=0:1:2:3"],
                 ["circumhyperbola", "--vertices", "0,0", "1,0", "x,1"],
                 ["circumhyperbola", "--vertices", "0,0", "1,1", "3,0"],
                 ["circumhyperbola", "--vertices", "0,0", "1,0", "2,0"],
                 ["circumhyperbola", "--vertices", "0,0", "1,0", "0,2", "3,3"],
                 ["circumhyperbola", "--vertices", "-inf,0", "1,0", "0,1"],
                 ["sample", "unit-hyperbolas", "--theta=0:1"], ["sample", "unit-hyperbolas", "--theta=0:1:1"],
                 ["sample", "unit-hyperbolas", "--theta=a:b:3"], ["sample", "unit-hyperbolas", "--theta=0:inf:3"],
                 ["sample", "unit-hyperbolas", "--theta=-1e308:1e308:3"],
                 ["sample", "unit-hyperbolas", "--theta=0:1:x"],
                 ["check", "--n", "0"], ["check", "--n", "-3"], ["check", "--n", "x"], ["check", "--seed", "x"]):
        yield "malformed", None, argv
    for argv in ([], ["--help"], ["classify", "-h"], ["solve"], ["solve", "ssa", "--help"],
                 ["sample", "cosh-e", "--help"], ["check", "--help"], ["bogus"], ["--format", "xml", "check"],
                 ["classify", "--point", "1,0", "--segment", "1,0", "2,0"], ["solve", "ssa", "--D1", "1"]):
        yield "usage", None, argv


def run(eps, argv):
    if eps is None:
        os.environ.pop(cli.ENV_EPS, None)
    else:
        os.environ[cli.ENV_EPS] = eps
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses an argv this way
            code = exc.code
        except Exception as exc:  # a crash is an output too
            code = f"raised-{type(exc).__name__}"
            print(exc, file=sys.stderr)
    tol.set_null_eps(tol.DEFAULT_NULL_EPS)
    return code, out.getvalue(), err.getvalue()


for i, (kind, eps, argv) in enumerate(corpus()):
    shown = shlex.join(argv) if eps is None else f"{cli.ENV_EPS}={shlex.quote(eps)} {shlex.join(argv)}"
    code, out, err = run(eps, argv)
    print(f"{kind}:{i} {json.dumps(shown)} -> {code} {json.dumps(out)} {json.dumps(err)}")
"""


def prefix_and_place(line: str) -> tuple[str, str]:
    """(suite or function, place) of a selftest or angle line."""
    where = line.split(" ", 1)[0]
    return where.split(":")[0], where


def kind_and_place(line: str) -> tuple[str, str]:
    """(request kind, place) of a solve line."""
    where, kind, _ = line.split(" ", 2)
    return kind, where


def kind_and_argv(line: str) -> tuple[str, str]:
    """(kind, the command line run) of a cli line."""
    where, rest = line.split(" ", 1)
    return where.split(":")[0], json.JSONDecoder().raw_decode(rest)[0]


def start(code: str, src: str, *args: str) -> tuple[subprocess.Popen, IO[str]]:
    # the output goes to a file, not a pipe: a full pipe would stall the second tree
    out = tempfile.TemporaryFile("w+")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=out, text=True), out


def run_trees(code: str, old_src: str, new_src: str, *args: str) -> list[list[str]] | None:
    """The lines that ``code`` prints with the package of each tree, or None where
    a run fails.  The two trees run side by side, and both finish before either is read."""
    children = [start(code, src, *args) for src in (old_src, new_src)]
    status = [child.wait() for child, _ in children]
    lines = []
    for _, out in children:
        with out:
            out.seek(0)
            lines.append(out.read().splitlines())
    if any(status):
        print(f"the runs exited with status {status}", file=sys.stderr)
        return None
    return lines


def compare_lines(old: list[str], new: list[str], key) -> int:
    """Print per kind how many paired lines differ and the first few places,
    then the count and the sha256 of each tree's lines; return the count.
    ``key(line)`` is the line's (kind, place); a line without a partner differs."""
    differ: dict[str, list[str]] = {}
    for a, b in zip_longest(old, new, fillvalue=""):
        kind, where = key(a or b)
        places = differ.setdefault(kind, [])
        if a != b:
            places.append(where)
    for kind, where in differ.items():
        print(f"{kind:<20} {len(where):>5} differ  {where[:FIRST]}")
    count = sum(map(len, differ.values()))
    print(f"lines that differ: {count} of {max(len(old), len(new))}")
    for name, lines in (("old", old), ("new", new)):
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"sha256 {name} {digest}")
    return count


def compare_trees(old_src: str, new_src: str, selftest_seeds: range = SELFTEST_SEEDS,
                  solve_seeds: range = SOLVE_SEEDS) -> int:
    """Run and compare every family; the exit status of the command."""
    for src in (old_src, new_src):
        if not os.path.isfile(os.path.join(src, "pseudoeuclid", "__init__.py")):
            print(f"{src} holds no pseudoeuclid package", file=sys.stderr)
            return 2
    families = (
        ("selftest", _SELFTEST, prefix_and_place,
         (selftest_seeds.start, selftest_seeds.stop, SELFTEST_N)),
        ("solve", _SOLVE, kind_and_place, (BENCH, solve_seeds.start, solve_seeds.stop)),
        ("angle", _ANGLE, prefix_and_place, ()),
        ("cli", _CLI, kind_and_argv, (BENCH, CLI_SOLVE_SEED)),
    )
    differ = 0
    for family, code, key, args in families:
        print(f"[{family}]", flush=True)
        lines = run_trees(code, old_src, new_src, *map(str, args))
        if lines is None:
            return 2
        differ += compare_lines(*lines, key)
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage:", __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    return compare_trees(*argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
