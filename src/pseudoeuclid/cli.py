"""Command line front end: classify, solve, circumhyperbola, sample, check."""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import angle as _angle
from .angle import ExtendedAngle, KleinIndex
from .errors import InvalidInput, PseudoEuclidError
from .geometry import PointP, displacement, segment_kind, square_distance
from .hyperbola import circumscribed
from .hypnum import classify_sector, euler
from .selftest import run_selftest
from .tol import null_eps, set_null_eps
from .triangle import Triangle, solve_asa, solve_sas, solve_ssa, solve_sss

ENV_EPS = "PSEUDOEUCLID_EPS"

TRIANGLE_COLUMNS = [
    "p1x", "p1y", "p2x", "p2y", "p3x", "p3y",
    "D1", "D2", "D3", "d1", "d2", "d3",
    "theta1", "k1", "theta2", "k2", "theta3", "k3", "S",
]


def _parse_point(text: str) -> PointP:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInput(f"expected X,Y but got {text!r}")
    try:
        return PointP(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise InvalidInput(f"bad point {text!r}: {exc}") from exc


def _parse_theta(text: str) -> ExtendedAngle:
    """Angle syntax: '<value>,<k>' where value is a float or [-]atanh(r) and
    k is one of +1, +h, -1, -h."""
    head, sep, label = text.rpartition(",")
    if not sep:
        raise InvalidInput(f"angle {text!r} is missing its ,k part")
    k = KleinIndex.from_label(label.strip())
    expr = head.strip()
    sign = 1.0
    if expr.startswith(("+", "-")):
        sign = -1.0 if expr[0] == "-" else 1.0
        expr = expr[1:].strip()
    try:
        if expr.startswith("atanh(") and expr.endswith(")"):
            ratio = float(expr[len("atanh("):-1])
            theta = math.atanh(ratio)
        else:
            theta = float(expr)
        return ExtendedAngle(sign * theta, k)
    except ValueError as exc:
        raise InvalidInput(f"bad angle value {head!r}: {exc}") from exc


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInput(f"expected lo:hi:n but got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidInput(f"bad range {text!r}: {exc}") from exc
    # nan or inf in either bound, or a width that overflows, leaves hi - lo non-finite
    if not math.isfinite(hi - lo):
        raise InvalidInput(f"range {text!r} needs finite bounds and width")
    if n < 2:
        raise InvalidInput(f"need at least two samples, got n={n}")
    return lo, hi, n


def _error_slug(exc: PseudoEuclidError) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(result, rows_key: str | None, columns: list[str] | None, args) -> None:
    if args.format == "json":
        # JSON has no NaN or Infinity: a value that does not fit a double prints as null
        plain = json.loads(json.dumps(result), parse_constant=lambda _: None)
        text = json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        rows = result[rows_key] if rows_key else [result]
        if columns is None:
            columns = list(rows[0]) if rows else []
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row.get(col)) for col in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.output!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _flat_triangle(tri: Triangle) -> dict:
    el = tri.elements()
    row = {}
    for i, p in enumerate(tri.vertices, start=1):
        row[f"p{i}x"], row[f"p{i}y"] = p.x, p.y
    for i in range(3):
        row[f"D{i + 1}"] = el.D[i]
        row[f"d{i + 1}"] = el.d[i]
    for i, a in enumerate(el.angles, start=1):
        row[f"theta{i}"] = a.theta
        row[f"k{i}"] = a.k.label
    row["S"] = el.S
    return row


def _cmd_classify(args) -> int:
    if args.point is not None:
        z = _parse_point(args.point)
        out = {"x": z.x, "y": z.y, "sector": classify_sector(z).value,
               "D": z.square_module(), "rho": z.module(),
               "theta": None, "k": None}
        if not z.is_null():
            a = _angle.from_point(z.x, z.y)
            out["theta"], out["k"] = a.theta, a.k.label
        _emit(out, None, None, args)
    else:
        p, q = (_parse_point(t) for t in args.segment)
        D = square_distance(p, q)
        # d is the module, as rho is, which fits where D overflows or underflows;
        # it is null where q - p itself does not fit
        fits = math.isfinite(q.x - p.x) and math.isfinite(q.y - p.y)
        out = {"x1": p.x, "y1": p.y, "x2": q.x, "y2": q.y,
               "segment_kind": segment_kind(p, q).value,
               "D": D, "d": displacement(p, q).module() if fits else None}
        _emit(out, None, None, args)
    return 0


def _cmd_solve(args) -> int:
    if args.mode == "ssa":
        sols = solve_ssa(_parse_theta(args.theta1), args.D1, args.D3)
    elif args.mode == "asa":
        sols = [solve_asa(_parse_theta(args.theta1), _parse_theta(args.theta2), args.D3)]
    elif args.mode == "sas":
        sols = [solve_sas(_parse_theta(args.theta1), args.D2, args.D3)]
    else:
        parts = args.D.split(",")
        if len(parts) != 3:
            raise InvalidInput(f"expected D1,D2,D3 but got {args.D!r}")
        try:
            d_values = [float(v) for v in parts]
        except ValueError as exc:
            raise InvalidInput(f"bad square sides {args.D!r}: {exc}") from exc
        sols = [solve_sss(*d_values)]
    result = {"count": len(sols), "solutions": [_flat_triangle(t) for t in sols]}
    _emit(result, "solutions", TRIANGLE_COLUMNS, args)
    return 0


def _cmd_circumhyperbola(args) -> int:
    p1, p2, p3 = (_parse_point(t) for t in args.vertices)
    hyp = circumscribed(Triangle(p1, p2, p3))
    out = {"cx": hyp.center.x, "cy": hyp.center.y,
           "P": hyp.P, "p": hyp.p, "kind": hyp.kind}
    _emit(out, None, None, args)
    return 0


def _cmd_sample(args) -> int:
    if args.what == "unit-hyperbolas":
        lo, hi, n = _parse_range(args.theta)
        step = (hi - lo) / (n - 1)
        rows = []
        for k in KleinIndex:
            for i in range(n):
                theta = lo + i * step
                u = euler(ExtendedAngle(theta, k))
                rows.append({"k": k.label, "theta": theta, "x": u.x, "y": u.y})
        _emit({"rows": rows}, "rows", ["k", "theta", "x", "y"], args)
    else:
        lo, hi, n = _parse_range(args.phi)
        if not math.isfinite(args.gap_eps):
            raise InvalidInput(f"--gap-eps must be finite, got {args.gap_eps!r}")
        gap = max(args.gap_eps, null_eps())
        step = (hi - lo) / (n - 1)
        rows = []
        for i in range(n):
            phi = lo + i * step
            c2 = _angle._cos_2phi(phi)
            if abs(c2) <= gap:
                rows.append({"phi": phi, "cos2phi": c2, "x": None, "y": None,
                             "arm": None, "gap": True})
                continue
            x, y = _angle.circle_map(phi)
            arm = _angle.from_point(x, y).k.label
            rows.append({"phi": phi, "cos2phi": c2, "x": x, "y": y,
                         "arm": arm, "gap": False})
        _emit({"rows": rows}, "rows", ["phi", "cos2phi", "x", "y", "arm", "gap"], args)
    return 0


def _cmd_check(args) -> int:
    if args.n <= 0:
        raise InvalidInput(f"--n must be positive, got {args.n}")
    report = run_selftest(seed=args.seed, n=args.n)
    if args.format == "csv":
        rows = [{"check": name, **data} for name, data in report["checks"].items()]
        _emit({"rows": rows}, "rows", ["check", "samples", "worst", "limit", "ok"], args)
    else:
        _emit(report, None, None, args)
    if report["failed"]:
        print("check failed: " + ", ".join(report["failed"]), file=sys.stderr)
        return 1
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    # mirror the global options on each leaf command so they are accepted in
    # either position; SUPPRESS keeps the top-level values when absent here
    sp.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    sp.add_argument("--output", metavar="FILE", default=argparse.SUPPRESS)


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with '-' and a digit, or '-.' and a digit,
    as a value, so that a point such as -1,0 needs no '='.  Subparsers are
    made from the same class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pseudoeuclid",
        description="Split-complex numbers and trigonometry in the pseudo-Euclidean plane.")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", metavar="FILE", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="sector of a point or kind of a segment")
    group = p_classify.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", metavar="X,Y")
    group.add_argument("--segment", nargs=2, metavar=("X1,Y1", "X2,Y2"))
    _add_common(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_solve = sub.add_parser("solve", help="triangle solvers")
    solve_sub = p_solve.add_subparsers(dest="mode", required=True)
    p_ssa = solve_sub.add_parser("ssa")
    p_ssa.add_argument("--theta1", required=True, metavar="VALUE,K")
    p_ssa.add_argument("--D1", type=float, required=True)
    p_ssa.add_argument("--D3", type=float, required=True)
    p_asa = solve_sub.add_parser("asa")
    p_asa.add_argument("--theta1", required=True, metavar="VALUE,K")
    p_asa.add_argument("--theta2", required=True, metavar="VALUE,K")
    p_asa.add_argument("--D3", type=float, required=True)
    p_sas = solve_sub.add_parser("sas")
    p_sas.add_argument("--theta1", required=True, metavar="VALUE,K")
    p_sas.add_argument("--D2", type=float, required=True)
    p_sas.add_argument("--D3", type=float, required=True)
    p_sss = solve_sub.add_parser("sss")
    p_sss.add_argument("--D", required=True, metavar="D1,D2,D3")
    for sp in (p_ssa, p_asa, p_sas, p_sss):
        _add_common(sp)
        sp.set_defaults(func=_cmd_solve)

    p_circ = sub.add_parser("circumhyperbola",
                            help="equilateral hyperbola through three points")
    p_circ.add_argument("--vertices", nargs=3, required=True,
                        metavar=("X1,Y1", "X2,Y2", "X3,Y3"))
    _add_common(p_circ)
    p_circ.set_defaults(func=_cmd_circumhyperbola)

    p_sample = sub.add_parser("sample", help="tabulated curves")
    sample_sub = p_sample.add_subparsers(dest="what", required=True)
    p_unit = sample_sub.add_parser("unit-hyperbolas")
    p_unit.add_argument("--theta", required=True, metavar="LO:HI:N")
    p_cosh = sample_sub.add_parser("cosh-e")
    p_cosh.add_argument("--phi", required=True, metavar="LO:HI:N")
    p_cosh.add_argument("--gap-eps", type=float, default=1e-2,
                        help="pole half-width: rows with |cos 2*phi| below it "
                             "are emitted as gaps (default 1e-2)")
    for sp in (p_unit, p_cosh):
        _add_common(sp)
        sp.set_defaults(func=_cmd_sample)

    p_check = sub.add_parser("check", help="run the randomized identity suites")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--n", type=int, default=1000)
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    raw_eps = os.environ.get(ENV_EPS)
    if raw_eps is not None:
        try:
            set_null_eps(float(raw_eps))
        except ValueError:
            print(f"error: bad {ENV_EPS} value {raw_eps!r}", file=sys.stderr)
            return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PseudoEuclidError as exc:
        # a domain outcome, not a usage mistake: report it on stdout and exit 0
        sys.stdout.write(json.dumps(
            {"error": _error_slug(exc), "detail": str(exc)},
            indent=2, sort_keys=True) + "\n")
        return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
