"""Command line front end: classify, solve, circumhyperbola, sample, check."""

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
from .hypnum import classify_sector
from .selftest import run_selftest
from .tol import null_eps, set_null_eps
from .triangle import Triangle, solve_asa, solve_sas, solve_ssa, solve_sss

ENV_EPS = "PSEUDOEUCLID_EPS"

TRIANGLE_COLUMNS = [
    "p1x", "p1y", "p2x", "p2y", "p3x", "p3y",
    "D1", "D2", "D3", "d1", "d2", "d3",
    "theta1", "k1", "theta2", "k2", "theta3", "k3", "S",
]


def _split(text: str, sep: str, shape: str, what: str, convert):
    """convert(*fields) of text split at sep, which must give one field per name
    in shape; a ValueError from convert names the whole text as a bad {what}."""
    fields = text.split(sep)
    if len(fields) != len(shape.split(sep)):
        raise InvalidInput(f"expected {shape} but got {text!r}")
    try:
        return convert(*fields)
    except ValueError as exc:
        raise InvalidInput(f"bad {what} {text!r}: {exc}") from exc


def _parse_point(text: str) -> PointP:
    # PointP inside the converter: a non-finite coordinate is a bad point too
    return _split(text, ",", "X,Y", "point", lambda x, y: PointP(float(x), float(y)))


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


def _parse_range(text: str) -> list[float]:
    """The n evenly spaced samples of 'lo:hi:n', both ends included."""
    lo, hi, n = _split(text, ":", "lo:hi:n", "range",
                       lambda lo, hi, n: (float(lo), float(hi), int(n)))
    # nan or inf in either bound, or a width that overflows, leaves hi - lo non-finite
    if not math.isfinite(hi - lo):
        raise InvalidInput(f"range {text!r} needs finite bounds and width")
    if n < 2:
        raise InvalidInput(f"need at least two samples, got n={n}")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


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


def _emit(result, args, rows: list[dict] | None = None,
          columns: list[str] | None = None) -> None:
    """Print result as JSON, or rows under columns as CSV; with no rows the
    one row is result itself, under its own keys."""
    if args.format == "json":
        # JSON has no NaN or Infinity: a value that does not fit a double prints as null
        plain = json.loads(json.dumps(result), parse_constant=lambda _: None)
        text = json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        if rows is None:
            rows, columns = [result], list(result)
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
    points = [c for p in tri.vertices for c in (p.x, p.y)]
    angles = [v for a in el.angles for v in (a.theta, a.k.label)]
    return dict(zip(TRIANGLE_COLUMNS, (*points, *el.D, *el.d, *angles, el.S)))


def _cmd_classify(args) -> None:
    if args.point is not None:
        z = _parse_point(args.point)
        out = {"x": z.x, "y": z.y, "sector": classify_sector(z).value,
               "D": z.square_module(), "rho": z.module(),
               "theta": None, "k": None}
        if not z.is_null():
            a = _angle.from_point(z.x, z.y)
            out["theta"], out["k"] = a.theta, a.k.label
    else:
        p, q = (_parse_point(t) for t in args.segment)
        D = square_distance(p, q)
        # d is the module, as rho is, which fits where D overflows or underflows;
        # it is null where q - p itself does not fit
        fits = math.isfinite(q.x - p.x) and math.isfinite(q.y - p.y)
        out = {"x1": p.x, "y1": p.y, "x2": q.x, "y2": q.y,
               "segment_kind": segment_kind(p, q).value,
               "D": D, "d": displacement(p, q).module() if fits else None}
    _emit(out, args)


def _cmd_solve(args) -> None:
    if args.mode == "ssa":
        sols = solve_ssa(_parse_theta(args.theta1), args.D1, args.D3)
    elif args.mode == "asa":
        sols = [solve_asa(_parse_theta(args.theta1), _parse_theta(args.theta2), args.D3)]
    elif args.mode == "sas":
        sols = [solve_sas(_parse_theta(args.theta1), args.D2, args.D3)]
    else:
        sides = _split(args.D, ",", "D1,D2,D3", "square sides",
                       lambda *D: [float(v) for v in D])
        sols = [solve_sss(*sides)]
    result = {"count": len(sols), "solutions": [_flat_triangle(t) for t in sols]}
    _emit(result, args, result["solutions"], TRIANGLE_COLUMNS)


def _cmd_circumhyperbola(args) -> None:
    p1, p2, p3 = (_parse_point(t) for t in args.vertices)
    hyp = circumscribed(Triangle(p1, p2, p3))
    out = {"cx": hyp.center.x, "cy": hyp.center.y,
           "P": hyp.P, "p": hyp.p, "kind": hyp.kind}
    _emit(out, args)


def _cmd_sample(args) -> None:
    if args.what == "unit-hyperbolas":
        thetas = _parse_range(args.theta)
        columns = ["k", "theta", "x", "y"]
        rows = [dict(zip(columns, (k.label, theta,
                                   *_angle.cosh_sinh(ExtendedAngle(theta, k)))))
                for k in KleinIndex for theta in thetas]
    else:
        phis = _parse_range(args.phi)
        if not math.isfinite(args.gap_eps):
            raise InvalidInput(f"--gap-eps must be finite, got {args.gap_eps!r}")
        gap = max(args.gap_eps, null_eps())
        columns = ["phi", "cos2phi", "x", "y", "arm", "gap"]
        rows = []
        for phi in phis:
            c2 = _angle._cos_2phi(phi)
            if abs(c2) <= gap:
                point = (None, None, None, True)
            else:
                x, y = _angle.circle_map(phi)
                point = (x, y, _angle.from_point(x, y).k.label, False)
            rows.append(dict(zip(columns, (phi, c2, *point))))
    _emit({"rows": rows}, args, rows, columns)


def _cmd_check(args) -> int | None:
    if args.n <= 0:
        raise InvalidInput(f"--n must be positive, got {args.n}")
    report = run_selftest(seed=args.seed, n=args.n)
    rows = [{"check": name, **data} for name, data in report["checks"].items()]
    _emit(report, args, rows, ["check", "samples", "worst", "limit", "ok"])
    if report["failed"]:
        print("check failed: " + ", ".join(report["failed"]), file=sys.stderr)
        return 1


def _leaf(sp: argparse.ArgumentParser, func) -> None:
    # a leaf command runs func(args); the global options are mirrored on it so
    # they are accepted in either position, and SUPPRESS keeps the top-level
    # values when absent here
    sp.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    sp.add_argument("--output", metavar="FILE", default=argparse.SUPPRESS)
    sp.set_defaults(func=func)


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
    _leaf(p_classify, _cmd_classify)

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
        _leaf(sp, _cmd_solve)

    p_circ = sub.add_parser("circumhyperbola",
                            help="equilateral hyperbola through three points")
    p_circ.add_argument("--vertices", nargs=3, required=True,
                        metavar=("X1,Y1", "X2,Y2", "X3,Y3"))
    _leaf(p_circ, _cmd_circumhyperbola)

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
        _leaf(sp, _cmd_sample)

    p_check = sub.add_parser("check", help="run the randomized identity suites")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--n", type=int, default=1000)
    _leaf(p_check, _cmd_check)
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
        return args.func(args) or 0
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
