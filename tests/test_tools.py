"""Smoke tests for tools/outputs_diff.py, on fewer seeds than the command runs."""
from __future__ import annotations

import contextlib
import importlib.util
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "outputs_diff.py"
SUITES = ["quadratic-identity", "angle-addition", "angle-roundtrip", "polar-roundtrip",
          "area-sine-triple", "law-of-sines", "law-of-cosines", "projection-law",
          "angle-sum-sinh", "angle-sum-cosh", "angle-sum-index", "motion-invariance",
          "circum-equidistance", "repr"]
FAMILIES = {
    "selftest": SUITES,
    "solve": ["ssa", "asa", "sas", "sss", "circumscribed"],
    "angle": ["cosh_sinh", "cosh_e", "sinh_e", "from_point", "angle_between", "add_angles"],
}
SIZES = {"selftest": 2 * len(SUITES), "solve": 2100, "angle": 23768}
SMALL = {"selftest_seeds": range(2), "solve_seeds": range(401, 402)}


def load_tool():
    spec = importlib.util.spec_from_file_location("outputs_diff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def report(text: str) -> dict[str, tuple[dict[str, int], str, list[str]]]:
    """Per family: the count per kind, the total line and the two digests."""
    families, lines = {}, iter(text.splitlines())
    for header in lines:
        counts = {}
        for line in lines:
            if line.startswith("lines that differ: "):
                break
            kind, count, _ = line.split(maxsplit=2)
            counts[kind] = int(count)
        digests = [next(lines), next(lines)]
        families[header.strip("[]")] = counts, line, digests
    return families


@pytest.fixture(scope="module")
def same():
    """The exit status and report of the source tree compared with itself."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = load_tool().compare_trees(str(ROOT / "src"), str(ROOT / "src"), **SMALL)
    return status, report(out.getvalue())


def no_difference(same, family: str) -> None:
    """A tree against itself: exit 0, every kind of ``family`` at 0, equal digests."""
    status, families = same
    assert status == 0
    counts, total, (old, new) = families[family]
    assert list(counts) == FAMILIES[family] and not any(counts.values()), (family, counts)
    assert total == f"lines that differ: 0 of {SIZES[family]}"
    assert old.startswith("sha256 old ") and new.startswith("sha256 new ")
    assert old[11:] == new[11:]


def test_selftest_diff_finds_no_difference_between_a_tree_and_itself(same):
    no_difference(same, "selftest")


def test_solve_diff_finds_no_difference_between_a_tree_and_itself(same):
    no_difference(same, "solve")


def test_angle_diff_finds_no_difference_between_a_tree_and_itself(same):
    no_difference(same, "angle")


def test_outputs_diff_reports_each_family_and_exit_code(same, tmp_path, capfd):
    tool, src = load_tool(), str(ROOT / "src")
    status, same = same
    assert status == 0 and list(same) == list(FAMILIES)

    # one refusal message changed: exit 1, and only the lines that carry it differ
    mutated = tmp_path / "mutated"
    shutil.copytree(ROOT / "src" / "pseudoeuclid", mutated / "pseudoeuclid",
                    ignore=shutil.ignore_patterns("__pycache__"))
    angle = mutated / "pseudoeuclid" / "angle.py"
    angle.write_text(angle.read_text().replace("exceeds {THETA_MAX}", "is above {THETA_MAX}"))
    assert tool.compare_trees(src, str(mutated), **SMALL) == 1
    moved = report(capfd.readouterr().out)
    assert not any(moved["selftest"][0].values())
    assert all(moved["angle"][0][f] > 0 for f in ("cosh_sinh", "cosh_e", "sinh_e"))
    assert moved["angle"][0]["from_point"] == 0
    assert moved["angle"][2][0][11:] != moved["angle"][2][1][11:]
    # the families that raise no such refusal keep the digests of the first run
    assert moved["selftest"][2] == same["selftest"][2] and moved["solve"][2] == same["solve"][2]

    # a run that fails: exit 2, with the child's error on stderr
    broken = tmp_path / "broken" / "pseudoeuclid"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text("raise ImportError('a broken tree')\n")
    assert tool.compare_trees(src, str(broken.parent), **SMALL) == 2
    out, err = capfd.readouterr()
    assert out == "[selftest]\n" and "ImportError: a broken tree" in err, (out, err)

    # from the command line: exit 2 for a tree without the package or a wrong argument count
    for args, said in (([src, str(tmp_path)], "holds no pseudoeuclid package"), ([src], "usage:")):
        done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 2 and said in done.stderr and not done.stdout, done
