from __future__ import annotations

import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pseudoeuclid import selftest
from pseudoeuclid.angle import THETA_MAX, ExtendedAngle, KleinIndex
from pseudoeuclid.cli import main
from pseudoeuclid.hypnum import euler
from pseudoeuclid.tol import DEFAULT_NULL_EPS, set_null_eps

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


@pytest.mark.parametrize("lo, hi, n, edges", [
    (-THETA_MAX, THETA_MAX, 3, [-THETA_MAX, 0.0, THETA_MAX]),
    # -0.0 + 0 * step stays -0.0 only where the step is negative
    (-0.0, -THETA_MAX, 2, [-0.0, -THETA_MAX]),
    (THETA_MAX, -THETA_MAX, 7, [THETA_MAX, 0.0, -THETA_MAX]),
    (-3.0, 7.0, 11, [-3.0, 0.0, 7.0]),
])
def test_sample_unit_hyperbolas_rows_are_euler_bits(capsys, lo, hi, n, edges):
    step = (hi - lo) / (n - 1)
    thetas = [lo + i * step for i in range(n)]
    assert {e.hex() for e in edges} <= {t.hex() for t in thetas}
    want = [(k.label, theta.hex(), u.x.hex(), u.y.hex())
            for k in KleinIndex for theta in thetas
            for u in [euler(ExtendedAngle(theta, k))]]
    argv = ["sample", "unit-hyperbolas", f"--theta={lo!r}:{hi!r}:{n}"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    got = [(r["k"], r["theta"].hex(), r["x"].hex(), r["y"].hex())
           for r in json.loads(out)["rows"]]
    assert got == want
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,theta,x,y"
    got = [(k, *(float(v).hex() for v in values))
           for k, *values in (line.split(",") for line in lines[1:])]
    assert got == want


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
    ["sample", "cosh-e", "--phi", "0:1e308:3"],
    ["sample", "cosh-e", "--phi=-1e308:-8e307:2"],
], ids=["theta-inf", "theta-1e400", "range-inf", "range-nan", "range-width-overflow",
        "gap-eps-nan", "phi-doubled-overflows", "phi-doubled-overflows-below"])
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


@pytest.mark.parametrize("argv, err", [
    (["classify", "--point", "x,1"], "error: bad point 'x,1': could not convert string to float: 'x'\n"),
    (["sample", "unit-hyperbolas", "--theta", "0:1"], "error: expected lo:hi:n but got '0:1'\n"),
    (["sample", "unit-hyperbolas", "--theta", "0:1:x"],
     "error: bad range '0:1:x': invalid literal for int() with base 10: 'x'\n"),
    (["sample", "unit-hyperbolas", "--theta", "0:1:1"], "error: need at least two samples, got n=1\n"),
    (["solve", "sss", "--D", "1,x,2"],
     "error: bad square sides '1,x,2': could not convert string to float: 'x'\n"),
], ids=["point", "range-parts", "range-count", "range-one-sample", "square-sides"])
def test_malformed_arguments_exit_2_with_their_messages(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)


def test_csv_columns_come_from_the_row(capsys):
    code, out, err = run_cli(capsys, "--format", "csv", "classify", "--point", "5,3")
    assert (code, err) == (0, "")
    assert out == "x,y,sector,D,rho,theta,k\n5,3,Right,16,4,0.69314718055994529,+1\n"


def test_cosh_e_csv_prints_a_gap_row_with_empty_cells(capsys):
    code, out, err = run_cli(capsys, "--format", "csv", "sample", "cosh-e",
                             "--phi", "0:1.5707963267948966:3")
    assert (code, err) == (0, "")
    assert out == ("phi,cos2phi,x,y,arm,gap\n"
                   "0,1,1,0,+1,false\n"
                   "0.78539816339744828,6.123233995736766e-17,,,,true\n"
                   "1.5707963267948966,-1,6.123233995736766e-17,1,+h,false\n")


def test_check_csv_prints_one_row_per_suite(capsys):
    code, out, err = run_cli(capsys, "check", "--seed", "3", "--n", "20", "--format", "csv")
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == "check,samples,worst,limit,ok"
    cells = [row.split(",") for row in rows]
    assert [c[0] for c in cells] == list(selftest.THRESHOLDS)
    for name, samples, _, limit, ok in cells:
        assert (samples, limit, ok) == ("20", format(selftest.THRESHOLDS[name], ".17g"), "true")


def test_check_exits_1_and_names_the_failing_suite(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "_check_sines", lambda pool: iter([1.0]))
    code, out, err = run_cli(capsys, "check", "--seed", "3", "--n", "20")
    assert (code, err) == (1, "check failed: law-of-sines\n")
    data = strict_json(out)
    assert data["failed"] == ["law-of-sines"] and data["ok"] is False
    assert data["checks"]["law-of-sines"]["worst"] == 1.0


@pytest.mark.parametrize("point", ["1e-200,0", "2e-160,1e-160"], ids=["D-underflows", "D-subnormal"])
def test_classify_segment_d_is_the_module_of_q_minus_p(capsys, point):
    # d of the segment from the origin is rho of its end point where D rounds to 0 or loses bits
    _, out, _ = run_cli(capsys, "classify", "--point", point)
    rho = strict_json(out)["rho"]
    code, out, err = run_cli(capsys, "classify", "--segment", "0,0", point)
    assert (code, err) == (0, "")
    assert strict_json(out)["d"] == rho


def strict_json(text: str):
    """Parse as RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_classify_segment_with_overflowing_square(capsys):
    # D overflows to inf, but the kind comes from the scale-free null test, and
    # d from the module, which fits
    code, out, _ = run_cli(capsys, "classify", "--segment", "3e200,0", "1e200,0")
    assert code == 0
    data = strict_json(out)
    assert data["segment_kind"] == "first"
    assert data["D"] is None and data["d"] == 2e200


def test_classify_point_on_null_line_at_large_scale(capsys):
    code, out, _ = run_cli(capsys, "classify", "--point", "1e200,1e200")
    assert code == 0
    data = strict_json(out)
    assert data["sector"] == "null+"
    assert data["theta"] is None and data["k"] is None
    # D = (x - y)(x + y) is exactly 0 here; x*x - y*y was inf - inf
    assert data["D"] == 0.0


def test_classify_point_whose_D_does_not_fit_prints_null(capsys):
    # the true D = 1e400 is beyond the largest double: inf, printed as JSON null
    code, out, _ = run_cli(capsys, "classify", "--point", "1e200,0")
    assert code == 0
    data = strict_json(out)
    assert data["sector"] == "Right"
    assert data["D"] is None
    assert data["rho"] == 1e200


def test_classify_null_point_whose_null_coordinate_overflows(capsys):
    # x + y overflows and x - y is 0: D is the exact 0 beside rho = 0, not NaN printed as null
    code, out, _ = run_cli(capsys, "classify", "--point", "1e308,1e308")
    assert code == 0
    data = strict_json(out)
    assert data["sector"] == "null+"
    assert data["D"] == 0.0
    assert data["rho"] == 0.0


@pytest.mark.parametrize("point", ["1.7e308,1e308", "1e308,-1.7e308"])
def test_classify_point_whose_null_coordinate_overflows(capsys, point):
    # x + y or x - y overflows a double; the angle is that of the point / 4
    code, out, _ = run_cli(capsys, "classify", f"--point={point}")
    assert code == 0
    data = strict_json(out)
    x, y = (float(t) / 4.0 for t in point.split(","))
    _, quarter, _ = run_cli(capsys, "classify", f"--point={x!r},{y!r}")
    want = strict_json(quarter)
    assert (data["theta"], data["k"], data["sector"]) == (want["theta"], want["k"], want["sector"])


def test_classify_segment_whose_difference_overflows(capsys):
    code, out, _ = run_cli(capsys, "classify", "--segment", "0,-1.5e308", "0,1.5e308")
    assert code == 0
    data = strict_json(out)
    assert data["segment_kind"] == "second"
    assert data["D"] is None


@pytest.mark.parametrize("argv", [
    ["classify", "--point", "-1,0"],
    ["circumhyperbola", "--vertices", "-1,0", "5,0", "5,3"],
    ["solve", "ssa", "--theta1", "-.5,+1", "--D1", "-9", "--D3", "-25"],
    ["solve", "sas", "--theta1", "0.5,+1", "--D2", "-1e1", "--D3", "-25"],
    ["sample", "unit-hyperbolas", "--theta", "-2:2:5"],
], ids=["point", "vertices", "theta-dot", "exponent", "range"])
def test_negative_numbers_are_values(capsys, argv):
    # each argument starting with '-' and a digit is a value, not an unknown flag
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)
    assert err == ""


def test_sss_whose_cosine_overflows_is_a_domain_outcome(capsys):
    code, out, err = run_cli(capsys, "solve", "sss", "--D=1e308,1e308,1e308")
    assert code == 0
    assert json.loads(out)["error"] == "inconsistent"
    assert err == ""


def test_ssa_whose_placement_overflows_exits_2(capsys):
    code, out, err = run_cli(capsys, "solve", "ssa", "--theta1=300,+1",
                             "--D1", "1e300", "--D3", "1e300")
    assert (code, out) == (2, "")
    assert err == "error: the third vertex d2 (c1, s1) does not fit a double\n"


def test_ssa_whose_discriminant_overflows_unscaled_solves(capsys):
    # d3^2 sinh^2(1) + D1 is beyond the largest double, but not on the
    # squares scaled by a power of four
    code, out, err = run_cli(capsys, "solve", "ssa", "--theta1=1,+1",
                             "--D1", "1e308", "--D3", "1e308")
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == 1


def test_sss_whose_third_vertex_does_not_fit_exits_2(capsys):
    # the data close, but the vertex d2 (c1, s1) is about 1e450
    code, out, err = run_cli(capsys, "solve", "sss", "--D=-1e300,1e300,1e-300")
    assert (code, out) == (2, "")
    assert err == "error: the third vertex d2 (c1, s1) does not fit a double\n"


@pytest.mark.parametrize("vertices", [
    ["-5.360835399839681e+35,-1.0131183604201029e+179", "-5.8347119690749e-27,-7.03376803908808e-39",
     "-3.5123059675883307e+291,-3.3647224436227035e+302"],
    ["6.584224461634875e+252,1e308", "6.811398323420066e-228,-1e308",
     "-1.7130651805844262e+58,-1.3886246495519282e+221"],
    ["1.7e+308,-1e+308", "-4.975375852650895e+302,-1456046219969714.5",
     "-348808.3656137566,1.7529733996758565e-110"],
], ids=["meet-point", "vertex-difference", "square-radius"])
def test_circumhyperbola_that_does_not_fit_a_double_exits_2(capsys, vertices):
    code, out, err = run_cli(capsys, "circumhyperbola", "--vertices", *vertices)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_circumhyperbola_names_a_square_radius_that_does_not_fit_a_double(capsys):
    code, out, err = run_cli(capsys, "circumhyperbola", "--vertices", "1.7e+308,-1e+308",
                             "-4.975375852650895e+302,-1456046219969714.5",
                             "-348808.3656137566,1.75297339967585")
    assert code == 2
    assert out == ""
    assert err == "error: the square radius P does not fit a double\n"


def test_circumhyperbola_of_a_huge_triangle_names_its_square_radius(capsys):
    # the triangle constructs; its P = 4e400 is what does not fit
    code, out, err = run_cli(capsys, "circumhyperbola", "--vertices", "0,0", "5e+200,0",
                             "5e+200,3e+200")
    assert code == 2
    assert out == ""
    assert err == "error: the square radius P does not fit a double\n"


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
    set_null_eps(DEFAULT_NULL_EPS)


def test_env_eps_bad_value(monkeypatch, capsys):
    monkeypatch.setenv("PSEUDOEUCLID_EPS", "banana")
    code, _, err = run_cli(capsys, "classify", "--point", "1,0")
    assert code == 2
    assert "PSEUDOEUCLID_EPS" in err


@pytest.mark.parametrize("eps", ["1", "1.5", "0.9999999", "0.5000000000000001"])
def test_env_eps_that_leaves_nothing_to_draw_fails_check(monkeypatch, capsys, eps):
    # a domain error on stdout exits 0 and reads as a pass; a refused tolerance
    # exits 2 at once, also just below 1, where the draws would never end
    monkeypatch.setenv("PSEUDOEUCLID_EPS", eps)
    try:
        code, out, err = run_cli(capsys, "check", "--n", "2")
    finally:
        set_null_eps(DEFAULT_NULL_EPS)
    assert code == 2
    assert out == ""
    assert err == f"error: check needs a null epsilon of at most 0.5, got {float(eps)!r}\n"


def test_env_eps_below_one_runs_check(monkeypatch, capsys):
    # up to 0.5 the draws are not screened against the tolerance: at 0.5 the
    # euler point of a drawn angle is null, and the suites whose draws the
    # tolerance refuses fail with worst = inf while the report completes
    monkeypatch.setenv("PSEUDOEUCLID_EPS", "0.5")
    try:
        code, out, err = run_cli(capsys, "check", "--n", "2")
    finally:
        set_null_eps(DEFAULT_NULL_EPS)
    assert code == 1
    assert err == "check failed: angle-roundtrip, motion-invariance\n"
    report = json.loads(out)
    assert report["ok"] is False
    assert report["failed"] == ["angle-roundtrip", "motion-invariance"]
    assert len(report["checks"]) == len(selftest.THRESHOLDS)
    # JSON has no Infinity: the inf worst prints as null
    assert [report["checks"][name]["worst"] for name in report["failed"]] == [None, None]


def test_subprocess_determinism():
    argv = [sys.executable, "-m", "pseudoeuclid.cli", "check", "--seed", "5", "--n", "100"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert json.loads(first.stdout)["ok"] is True
    assert first.stdout == second.stdout


def readme_examples() -> list[tuple[list[str], str]]:
    """The ``$ pseudoeuclid ...`` commands of README.md, each with the lines
    shown under it up to a blank line or the end of the block; a command shown
    without output is left out."""
    cases, out = [], None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("$ pseudoeuclid "):
            out = []
            cases.append((shlex.split(line[2:], comments=True)[1:], out))
        elif line.startswith("```") or not line.strip():
            out = None
        elif out is not None:
            out.append(line)
    return [(argv, "\n".join(lines) + "\n") for argv, lines in cases if lines]


@pytest.mark.parametrize("argv, expected", readme_examples(),
                         ids=["classify", "solve-ssa-csv", "circumhyperbola", "classify-negative"])
def test_readme_examples_byte_for_byte(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
