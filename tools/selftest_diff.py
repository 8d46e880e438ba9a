"""Compare the ``run_selftest`` reports of two source trees, suite by suite.

    python tools/selftest_diff.py OLD_SRC NEW_SRC [--seeds 400]

OLD_SRC and NEW_SRC are directories that hold the ``pseudoeuclid`` package
(the ``src`` directory of each checkout).  Each tree runs
``run_selftest(s, 300)`` for s = 0 .. SEEDS-1 in a subprocess of its own, and
the two subprocesses run at the same time.  For each suite the script prints
how many ``worst`` values differ in their bits and the first few seeds where
they do, then how many whole reports differ in repr.  It exits 0 when every
report is identical, and 1 otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import IO

# run in each tree: one JSON line per seed, the worst values as float.hex
# so that equal lines mean equal bits (NaN included)
_CHILD = """
import json, sys
from pseudoeuclid.selftest import run_selftest
for s in range(int(sys.argv[1])):
    report = run_selftest(s, 300)
    worst = {name: float.hex(check["worst"]) for name, check in report["checks"].items()}
    print(json.dumps({"repr": repr(report), "worst": worst}))
"""

FIRST = 5


def start(code: str, src: str, *args: str) -> tuple[subprocess.Popen, IO[str]]:
    # the output goes to a file, not a pipe: a full pipe would stall the second tree
    out = tempfile.TemporaryFile("w+")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=out, text=True), out


def run_trees(code: str, old_src: str, new_src: str, *args: str) -> list[list[str]]:
    """The lines that ``code`` prints with the package of each tree.  The two
    trees run side by side, and both finish before either is read."""
    children = [start(code, src, *args) for src in (old_src, new_src)]
    for child, _ in children:
        child.wait()
    lines = []
    for child, out in children:
        with out:
            if child.returncode:
                raise SystemExit(f"a run exited with status {child.returncode}")
            out.seek(0)
            lines.append(out.read().splitlines())
    return lines


def compare_lines(old: list[str], new: list[str], key) -> int:
    """Print per kind how many paired lines differ and the first few places,
    then the count and the sha256 of each tree's lines; return the count.
    ``key(line)`` is the line's (kind, place)."""
    differ: dict[str, list[str]] = {}
    for a, b in zip(old, new):
        kind, where = key(a)
        places = differ.setdefault(kind, [])
        if a != b:
            places.append(where)
    for kind, where in differ.items():
        print(f"{kind:<14} {len(where):>5} differ  {where[:FIRST]}")
    count = sum(map(len, differ.values()))
    print(f"lines that differ: {count} of {len(old)}")
    for name, lines in (("old", old), ("new", new)):
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"sha256 {name} {digest}")
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, default=400, help="seeds 0 .. SEEDS-1 (default 400)")
    args = parser.parse_args(argv)
    old, new = ([json.loads(line) for line in lines]
                for lines in run_trees(_CHILD, args.old_src, args.new_src, str(args.seeds)))
    for name in old[0]["worst"]:
        seeds = [s for s, (a, b) in enumerate(zip(old, new)) if a["worst"][name] != b["worst"][name]]
        print(f"{name:<20} {len(seeds):>4} differ  {seeds[:FIRST]}")
    differ = sum(a["repr"] != b["repr"] for a, b in zip(old, new))
    print(f"reports that differ in repr: {differ} of {len(old)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
