"""Smoke tests for the scripts under tools/."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_selftest_diff_finds_no_difference_between_a_tree_and_itself():
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "selftest_diff.py"), src, src,
                           "--seeds", "3"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # one line per suite, then the repr count
    assert len(lines) == 14
    assert all(" 0 differ  []" in line for line in lines[:-1]), lines
    assert lines[-1] == "reports that differ in repr: 0 of 3"


def test_solve_diff_finds_no_difference_between_a_tree_and_itself():
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "solve_diff.py"), src, src,
                           "--seeds", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # one line per request kind, the count, then one digest per tree
    assert [line.split()[0] for line in lines[:5]] == ["ssa", "asa", "sas", "sss", "circumscribed"]
    assert all(" 0 differ  []" in line for line in lines[:5]), lines
    assert lines[5] == "lines that differ: 0 of 2100"
    assert lines[6].startswith("sha256 old ") and lines[6][11:] == lines[7][11:]
    assert len(lines) == 8


def test_angle_diff_finds_no_difference_between_a_tree_and_itself():
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "angle_diff.py"), src, src],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # one line per function, the count, then one digest per tree
    assert [line.split()[0] for line in lines[:6]] == ["cosh_sinh", "cosh_e", "sinh_e", "from_point",
                                                       "angle_between", "add_angles"]
    assert all(" 0 differ  []" in line for line in lines[:6]), lines
    assert lines[6].startswith("lines that differ: 0 of ")
    assert lines[7].startswith("sha256 old ") and lines[7][11:] == lines[8][11:]
    assert len(lines) == 9
