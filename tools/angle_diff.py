"""Compare the angle functions of two source trees on a fixed fuzz.

    python tools/angle_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``pseudoeuclid`` package
(the ``src`` directory of each checkout).  Each tree calls ``cosh_sinh``,
``cosh_e``, ``sinh_e``, ``from_point``, ``angle_between`` and ``add_angles``
on the same fixed inputs, in a subprocess of its own, and the two
subprocesses run at the same time.  The inputs are finite: every Klein index,
signed zeros, subnormals, both band edges of the angle kernel (2^+-900, and
2^+-450 whose products reach them), +-THETA_MAX and their neighbours, and
seeded random draws across the exponent range.  Each call is one line: its
inputs and its result as float.hex, or the refusal's type and message.  The
script prints, per function, how many lines differ and the first few (as
function:index), then the sha256 of each tree's lines.  It exits 0 when every
line is identical, and 1 otherwise.
"""
from __future__ import annotations

import argparse
import sys

from selftest_diff import compare_lines, run_trees

FUNCTIONS = ("cosh_sinh", "cosh_e", "sinh_e", "from_point", "angle_between", "add_angles")

# run in each tree: one line per call, "function:index inputs -> result"
_CHILD = """
import math, random, sys
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


lines = {name: [] for name in sys.argv[1:]}
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


def function_and_place(line: str) -> tuple[str, str]:
    where = line.split(" ", 1)[0]
    return where.split(":")[0], where


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    old, new = run_trees(_CHILD, args.old_src, args.new_src, *FUNCTIONS)
    return 1 if compare_lines(old, new, function_and_place) else 0


if __name__ == "__main__":
    sys.exit(main())
