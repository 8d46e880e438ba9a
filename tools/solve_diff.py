"""Compare the solver answers of two source trees on the bench's solve traffic.

    python tools/solve_diff.py OLD_SRC NEW_SRC [--seeds 10]

OLD_SRC and NEW_SRC are directories that hold the ``pseudoeuclid`` package
(the ``src`` directory of each checkout).  Each tree answers the requests of
``bench/workloads.solve_requests(401 + i)`` for i = 0 .. SEEDS-1 in a
subprocess of its own, and the two subprocesses run at the same time.  Each
answer is one line: the vertices of every triangle as float.hex, the
``circumscribed`` center and P as float.hex, or the refusal's type and
message.  The script prints, per request kind, how many lines differ and the
first few (as seed:index), then the sha256 of each tree's lines.  It exits 0
when every line is identical, and 1 otherwise.  It only reads ``bench/``.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from selftest_diff import compare_lines, run_trees

BENCH = Path(__file__).resolve().parents[1] / "bench"
FIRST_SEED = 401

# run in each tree: one line per request, "seed:index kind answer"
_CHILD = """
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

first, seeds = int(sys.argv[2]), int(sys.argv[3])
for seed in range(first, first + seeds):
    for i, req in enumerate(workloads.solve_requests(seed)[0]):
        print(f"{seed}:{i} {req['kind']} {text(req)}")
"""


def kind_and_place(line: str) -> tuple[str, str]:
    where, kind, _ = line.split(" ", 2)
    return kind, where


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, default=10,
                        help=f"seeds {FIRST_SEED} .. {FIRST_SEED - 1} + SEEDS (default 10)")
    args = parser.parse_args(argv)
    old, new = run_trees(_CHILD, args.old_src, args.new_src, str(BENCH), str(FIRST_SEED),
                         str(args.seeds))
    return 1 if compare_lines(old, new, kind_and_place) else 0


if __name__ == "__main__":
    sys.exit(main())
