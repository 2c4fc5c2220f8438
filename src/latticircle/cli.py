"""Command line front end: generate, validate, pi, sweep, area.

Exit codes: 0 success, 1 usage or input error, 2 path-validity failure,
3 arithmetic failure inside the core.  CSV output is UTF-8 with LF line
endings and 12 significant digits for real values.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import cycle
from typing import Iterable, Sequence

from latticircle.area import area_report
# unused pi_sequence and means stay imported: perfbench/traced.py wraps them by these names
from latticircle.estimators import (
    Estimator,
    arithmetic_mean_pi,
    estimate,
    harmonic_mean_pi,
    pi_sequence,
    sweep,
)
from latticircle.lattice import Point, check_path
from latticircle.reference import DiscretizationSource
from latticircle.signum import CostVariant, assemble_full_circle, generate_quadrant
from latticircle.svg import render_path_svg


class _CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.message = message
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        raise _CliError(f"{self.prog}: {message}", 1)


def format_real(v: float) -> str:
    """12 significant digits, always with a decimal point (3.0 not 3)."""
    s = f"{v:.12g}"
    if not any(ch in s for ch in ".eE") and s.strip("-").isdigit():
        s += ".0"
    return s


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_radii_spec(spec: str) -> list[int]:
    """Radii from 'a,b,c', 'min:max:step' or 'log:a:b:k', deduped ascending.

    A malformed spec or a radius below 1 raises ValueError."""
    try:
        if spec.startswith("log:"):
            _, lo_s, hi_s, k_s = spec.split(":")
            lo, hi, k = int(lo_s), int(hi_s), int(k_s)
            if lo < 1 or hi < lo or k < 1:
                raise ValueError
            if k == 1:
                radii = [lo]
            else:
                step = (math.log(hi) - math.log(lo)) / (k - 1)
                radii = [round(math.exp(math.log(lo) + i * step)) for i in range(k)]
        elif ":" in spec:
            lo_s, hi_s, step_s = spec.split(":")
            lo, hi, step = int(lo_s), int(hi_s), int(step_s)
            if lo < 1 or hi < lo or step < 1:
                raise ValueError
            radii = list(range(lo, hi + 1, step))
        else:
            radii = [int(part) for part in spec.split(",")]
    except ValueError:
        raise ValueError(f"bad radii spec {spec!r}") from None
    if not radii or any(r < 1 for r in radii):
        raise ValueError(f"bad radii spec {spec!r}")
    return sorted(set(radii))


def _rows_csv(trace, points: Iterable[Point]) -> str:
    """CSV rows n,x,y,s,a,S; s, a and S repeat with period 2r, because a
    quarter turn keeps the decisions and preserves a = |x| + |y|."""
    rows = zip(points, cycle(trace.signs), cycle(trace.l1_dists), cycle(trace.sign_sums))
    lines = ["n,x,y,s,a,S"]
    lines.extend(f"{n},{x},{y},{s},{a},{S}" for n, ((x, y), s, a, S) in enumerate(rows))
    return "\n".join(lines) + "\n"


def _trace_csv(trace) -> str:
    return _rows_csv(trace, zip(trace.xs, trace.ys))


def _full_circle_csv(trace) -> str:
    return _rows_csv(trace, assemble_full_circle(trace).points)


def _cmd_generate(args) -> int:
    trace = generate_quadrant(args.radius, CostVariant(args.cost))
    if args.format == "csv":
        if args.extent == "full":
            text = _full_circle_csv(trace)
        else:
            text = _trace_csv(trace)
    else:
        if args.extent == "full":
            points: Sequence[Point] = assemble_full_circle(trace).points
            closed = True
        else:
            points = trace.points
            closed = False
        text = render_path_svg(points, args.radius, closed, args.overlay_circle)
    _emit(text, args.out)
    return 0


def _read_points_csv(path: str) -> list[Point]:
    try:
        # utf-8-sig drops a leading byte-order mark; text mode turns CRLF into LF
        with open(path, "r", encoding="utf-8-sig") as fh:
            rows = [line.rstrip("\n") for line in fh]
    except OSError as e:
        raise _CliError(str(e), 1)
    rows = [row for row in rows if row != ""]
    if not rows:
        raise _CliError(f"{path}: empty file", 1)
    header = rows[0].split(",")
    try:
        ix = header.index("x")
        iy = header.index("y")
    except ValueError:
        raise _CliError(f"{path}: header must name x and y columns", 1)
    points = []
    for lineno, row in enumerate(rows[1:], start=2):
        cells = row.split(",")
        try:
            points.append((int(cells[ix]), int(cells[iy])))
        except (IndexError, ValueError):
            raise _CliError(f"{path}:{lineno}: malformed row {row!r}", 1)
    return points


def _cmd_validate(args) -> int:
    points = _read_points_csv(args.path)
    report = check_path(points, mode=args.mode)
    ok = report.is_closed_valid if args.mode == "closed" else report.is_valid
    note = f" note={report.note}" if report.note else ""
    print(f"mode={args.mode} points={len(points)} valid={'true' if ok else 'false'}{note}")
    for index, neighbors in report.violations:
        print(f"index={index} neighbors={neighbors}")
    return 0 if ok else 2


def _record_line(rec) -> str:
    target_cell = "pi (no closed form)" if rec.target_note else format_real(rec.target)
    return (
        f"{rec.radius},{rec.estimator.value},{rec.source.value},"
        f"{format_real(rec.value)},{target_cell},{format_real(rec.abs_error)}"
    )


def _cmd_pi(args) -> int:
    source = DiscretizationSource(args.source)
    record = estimate(args.radius, Estimator(args.estimator), source, CostVariant(args.cost))
    print(_record_line(record))
    return 0


def _cmd_sweep(args) -> int:
    radii = parse_radii_spec(args.radii)
    records = sweep(
        radii,
        Estimator(args.estimator),
        DiscretizationSource(args.source),
        CostVariant(args.cost),
    )
    lines = ["r,estimator,source,value,target,abs_error"]
    lines.extend(_record_line(rec) for rec in records)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_area(args) -> int:
    report = area_report(args.radius, CostVariant(args.cost), with_bounds=args.with_bounds)
    bounds = f"{report.inner},{report.outer}" if args.with_bounds else ","
    print(f"{report.radius},{report.area},{bounds},{format_real(report.ratio)}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="latticircle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cost(p):
        p.add_argument(
            "--cost",
            choices=[v.value for v in CostVariant],
            default="exact",
            help="step decider driving the recursion (default exact)",
        )

    def add_estimate(p):
        p.add_argument("--estimator", choices=[e.value for e in Estimator], default="arithmetic")
        sources = [s for s in DiscretizationSource if s is not DiscretizationSource.MIDPOINT]
        p.add_argument("--source", choices=[s.value for s in sources], default="signum")
        add_cost(p)

    g = sub.add_parser("generate", help="emit one constructed circle as CSV or SVG")
    g.add_argument("--radius", type=int, required=True)
    add_cost(g)
    g.add_argument("--extent", choices=["quadrant", "full"], default="quadrant")
    g.add_argument("--format", choices=["csv", "svg"], default="csv")
    g.add_argument("--out", help="output file (default stdout)")
    g.add_argument(
        "--overlay-circle",
        action="store_true",
        help="draw the real circle behind the path (svg only)",
    )
    g.set_defaults(func=_cmd_generate)

    v = sub.add_parser("validate", help="check a CSV point list for path validity")
    v.add_argument("path", help="CSV file with at least x and y columns")
    v.add_argument("--mode", choices=["open", "closed"], default="open")
    v.set_defaults(func=_cmd_validate)

    p = sub.add_parser("pi", help="one pi estimate for one radius")
    p.add_argument("--radius", type=int, required=True)
    add_estimate(p)
    p.set_defaults(func=_cmd_pi)

    s = sub.add_parser("sweep", help="pi estimates over a range of radii, as CSV")
    s.add_argument(
        "--radii",
        required=True,
        help="comma list '1,2,3', range 'min:max:step' or 'log:a:b:k'",
    )
    add_estimate(s)
    s.add_argument("--out", help="output file (default stdout)")
    s.set_defaults(func=_cmd_sweep)

    a = sub.add_parser("area", help="quarter-disc area and pi ratio for one radius")
    a.add_argument("--radius", type=int, required=True)
    add_cost(a)
    a.add_argument(
        "--with-bounds",
        action="store_true",
        help="include the inner and outer cell-count bounds",
    )
    a.set_defaults(func=_cmd_area)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as e:
        print(e.message, file=sys.stderr)
        return e.code
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as e:
        print(f"arithmetic failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(str(e), file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def main() -> None:
    sys.exit(run())
