from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from pseudoeuclid.cli import main

LN2 = math.log(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "--point", "5,3")
    assert code == 0
    data = json.loads(out)
    assert data["sector"] == "Right"
    assert data["D"] == 16.0
    assert data["rho"] == 4.0
    assert data["theta"] == pytest.approx(LN2, rel=1e-12)
    assert data["k"] == "+1"


def test_classify_null_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "--point=-2,2")
    assert code == 0
    data = json.loads(out)
    assert data["sector"] == "null-"
    assert data["theta"] is None and data["k"] is None


def test_classify_segment(capsys):
    code, out, _ = run_cli(capsys, "classify", "--segment", "0,0", "3,5")
    assert code == 0
    data = json.loads(out)
    assert data["segment_kind"] == "second"
    assert data["D"] == -16.0
    assert data["d"] == 4.0


def test_solve_ssa_worked(capsys):
    code, out, _ = run_cli(capsys, "solve", "ssa",
                           "--theta1", "atanh(0.6),+1", "--D1", "-9", "--D3", "25")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    p3s = sorted((s["p3x"], s["p3y"]) for s in data["solutions"])
    assert p3s[0] == pytest.approx((5.0, 3.0), rel=1e-9)
    assert p3s[1] == pytest.approx((10.625, 6.375), rel=1e-9)


def test_solve_asa_worked(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "asa",
        "--theta1", "atanh(0.3333333333333333),+1",
        "--theta2", "atanh(0.5),+1", "--D3", "25")
    assert code == 0
    sol = json.loads(out)["solutions"][0]
    assert (sol["p3x"], sol["p3y"]) == pytest.approx((3.0, 1.0), rel=1e-9)


def test_solve_sas_with_plain_float_angle(capsys):
    code, out, _ = run_cli(capsys, "solve", "sas",
                           "--theta1", f"{LN2},+1", "--D2", "16", "--D3", "25")
    assert code == 0
    sol = json.loads(out)["solutions"][0]
    assert (sol["p3x"], sol["p3y"]) == pytest.approx((5.0, 3.0), rel=1e-9)


def test_solve_sss_inconsistent_is_domain_outcome(capsys):
    code, out, _ = run_cli(capsys, "solve", "sss", "--D", "1,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["error"] == "inconsistent"


def test_solve_sss_unequal_sides(capsys):
    code, out, _ = run_cli(capsys, "solve", "sss", "--D", "1,1,100")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["solutions"][0]["D1"] == pytest.approx(1.0, rel=1e-8)


def test_solve_negative_theta_with_equals_form(capsys):
    code, out, _ = run_cli(capsys, "solve", "sas",
                           "--theta1=-atanh(0.6),-1", "--D2", "16", "--D3", "25")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1


def test_circumhyperbola(capsys):
    code, out, _ = run_cli(capsys, "circumhyperbola",
                           "--vertices", "0,0", "5,0", "5,3")
    assert code == 0
    data = json.loads(out)
    assert (data["cx"], data["cy"]) == (2.5, 1.5)
    assert data["P"] == 4.0 and data["p"] == 2.0 and data["kind"] == "second"


def test_sample_unit_hyperbolas(capsys):
    code, out, _ = run_cli(capsys, "sample", "unit-hyperbolas", "--theta=-1:1:5")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 20  # 4 arms x 5 samples
    for row in rows:
        assert abs(abs(row["x"] ** 2 - row["y"] ** 2) - 1.0) <= 1e-12


def test_sample_cosh_e_gaps(capsys):
    code, out, _ = run_cli(capsys, "sample", "cosh-e", "--phi", "0:6.283:1000")
    assert code == 0
    rows = json.loads(out)["rows"]
    gaps = [r for r in rows if r["gap"]]
    assert len(gaps) == 6
    for row in rows:
        if not row["gap"]:
            assert abs(abs(row["x"] ** 2 - row["y"] ** 2) - 1.0) <= 1e-9


def test_sample_csv_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv",
                           "sample", "unit-hyperbolas", "--theta", "0:1:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,theta,x,y"
    assert len(lines) == 13
    assert lines[1].startswith("+1,0,1,")


def test_format_flag_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "sample", "unit-hyperbolas",
                           "--theta", "0:1:3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "k,theta,x,y"


def test_check_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--seed", "3", "--n", "150")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["failed"] == []
    assert set(data["checks"]) == {
        "quadratic-identity", "angle-addition", "angle-roundtrip",
        "polar-roundtrip", "area-sine-triple", "law-of-sines",
        "law-of-cosines", "projection-law", "angle-sum-sinh",
        "angle-sum-cosh", "angle-sum-index", "motion-invariance",
        "circum-equidistance",
    }


def test_check_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "check", "--n", "0")
    assert code == 2
    assert "--n" in err


def test_malformed_point_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--point", "1;2")
    assert code == 2
    assert "error" in err


def test_malformed_theta_exits_2(capsys):
    code, _, err = run_cli(capsys, "solve", "sas",
                           "--theta1", "atanh(0.6)", "--D2", "16", "--D3", "25")
    assert code == 2
    assert ",k" in err


def test_unknown_k_label_exits_2(capsys):
    code, _, err = run_cli(capsys, "solve", "sas",
                           "--theta1", "0.5,+2", "--D2", "16", "--D3", "25")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "ssa", "--theta1", "inf,+1", "--D1", "-9", "--D3", "25"],
    ["solve", "ssa", "--theta1", "1e400,+1", "--D1", "-9", "--D3", "25"],
    ["sample", "cosh-e", "--phi", "0:inf:3"],
    ["sample", "unit-hyperbolas", "--theta=0:nan:3"],
    ["sample", "unit-hyperbolas", "--theta=-1e308:1e308:3"],
    ["sample", "cosh-e", "--phi", "0:1:3", "--gap-eps", "nan"],
], ids=["theta-inf", "theta-1e400", "range-inf", "range-nan", "range-width-overflow",
        "gap-eps-nan"])
def test_non_finite_numbers_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.json"
    code, out, err = run_cli(capsys, "--output", str(target), "classify", "--point", "5,3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")


def test_classify_segment_with_overflowing_square(capsys):
    # D overflows to inf, but the kind comes from the scale-free null test
    code, out, _ = run_cli(capsys, "classify", "--segment", "3e200,0", "1e200,0")
    assert code == 0
    assert json.loads(out)["segment_kind"] == "first"


def test_classify_point_on_null_line_at_large_scale(capsys):
    code, out, _ = run_cli(capsys, "classify", "--point", "1e200,1e200")
    assert code == 0
    data = json.loads(out)
    assert data["sector"] == "null+"
    assert data["theta"] is None and data["k"] is None


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "--output", str(target),
                           "classify", "--point", "5,3")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["sector"] == "Right"


def test_env_eps_override(monkeypatch, capsys):
    monkeypatch.setenv("PSEUDOEUCLID_EPS", "1e-2")
    code, out, _ = run_cli(capsys, "classify", "--point", "1,0.999")
    assert code == 0
    assert json.loads(out)["sector"] == "null+"
    # the global value must be restored for later tests
    from pseudoeuclid.tol import DEFAULT_NULL_EPS, set_null_eps
    set_null_eps(DEFAULT_NULL_EPS)


def test_env_eps_bad_value(monkeypatch, capsys):
    monkeypatch.setenv("PSEUDOEUCLID_EPS", "banana")
    code, _, err = run_cli(capsys, "classify", "--point", "1,0")
    assert code == 2
    assert "PSEUDOEUCLID_EPS" in err


def test_subprocess_determinism():
    argv = [sys.executable, "-m", "pseudoeuclid.cli", "check", "--seed", "5", "--n", "100"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert json.loads(first.stdout)["ok"] is True
    assert first.stdout == second.stdout


README_EXAMPLES = [
    (["classify", "--point", "5,3"],
     '{\n  "D": 16.0,\n  "k": "+1",\n  "rho": 4.0,\n  "sector": "Right",\n'
     '  "theta": 0.6931471805599453,\n  "x": 5.0,\n  "y": 3.0\n}\n'),
    (["solve", "ssa", "--theta1", "atanh(0.6),+1", "--D1", "-9", "--D3", "25",
      "--format", "csv"],
     "p1x,p1y,p2x,p2y,p3x,p3y,D1,D2,D3,d1,d2,d3,theta1,k1,theta2,k2,theta3,k3,S\n"
     "0,0,5,0,5,3,-9,16,25,3,4,5,0.69314718055994529,+1,-0,+h,"
     "-0.69314718055994529,+h,7.5\n"
     "0,0,5,0,10.625,6.375,-9,72.25,25,3,8.5,5,0.69314718055994529,+1,"
     "-1.3862943611198906,+h,0.69314718055994529,+h,15.9375\n"),
    (["circumhyperbola", "--vertices", "0,0", "5,0", "5,3"],
     '{\n  "P": 4.0,\n  "cx": 2.5,\n  "cy": 1.5,\n  "kind": "second",\n  "p": 2.0\n}\n'),
]


@pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                         ids=["classify", "solve-ssa-csv", "circumhyperbola"])
def test_readme_examples_byte_for_byte(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
