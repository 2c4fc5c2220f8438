"""Command line front end: generate, validate, pi, sweep, area.

Exit codes: 0 success, 1 usage or input error, 2 path-validity failure,
3 arithmetic failure inside the core.  CSV output is UTF-8 with LF line
endings and 12 significant digits for real values.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys
from collections.abc import Sequence
from itertools import chain, cycle, islice, repeat
from operator import itemgetter

from latticircle.choices import CostVariant, DiscretizationSource, Estimator

# The library names the commands call, by the module that defines them.  A
# command imports only its own modules, when it runs, so `--help` compiles
# none of them and `validate` only `lattice`.  Every library name is read as
# `_cli.<name>`: on a miss the module `__getattr__` imports the module that
# defines it and binds that module's names here, keeping a name already set,
# such as a wrapper that a tracer put on `cli.<name>` before the command ran.
_NAMES = {
    "lattice": ("PointColumns", "check_path", "read_radius", "require_memory"),
    "signum": ("L1Distances", "assemble_full_circle", "circle_columns", "generate_quadrant",
               "mirror", "require_step_memory"),
    "svg": ("render_path_svg",),
    # pi_sequence and the two means are never called here: perfbench/traced.py
    # wraps them by these names.  A stats channel that replaces the wrappers
    # would let them go, and the table become plain local imports.
    "estimators": ("estimate", "sweep", "pi_sequence", "arithmetic_mean_pi", "harmonic_mean_pi"),
    "area": ("area_report",),
}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    for module, names in _NAMES.items():
        if name in names:
            qualified = f"latticircle.{module}"
            __import__(qualified)  # unlike importlib's, shown by -X importtime
            found, scope = vars(sys.modules[qualified]), globals()
            for each in names:
                scope.setdefault(each, found[each])
            return scope[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def format_real(v: float) -> str:
    """12 significant digits, always with a decimal point (3.0 not 3)."""
    s = f"{v:.12g}"
    if s.lstrip("-").isdigit():
        s += ".0"
    return s


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Bytes stated for each radius of a 'min:max:step' or 'log:' spec, above the
# 68-172 B a radius that tracemalloc read at the peak for 10^4 .. 10^6 radii
# (the log: list, the set and the sorted list), so that a list that passes
# the rule fits.
_RADIUS_BYTES = 200


def parse_radii_spec(spec: str) -> list[int]:
    """Radii from 'a,b,c', 'min:max:step' or 'log:a:b:k', deduped ascending.

    A malformed spec, a radius below 1 or a log: spec whose radii pass the
    float range raises ValueError.  A range or log: spec whose radii, at
    ``_RADIUS_BYTES`` each, exceed physical memory raises MemoryError from
    ``require_memory`` before the list is built."""
    try:
        if ":" in spec:
            log = spec.startswith("log:")
            lo, hi, n = map(int, spec.removeprefix("log:").split(":"))  # n: a count or a step
            if lo < 1 or hi < lo or n < 1:
                raise ValueError
            count = n if log else (hi - lo) // n + 1
            _cli.require_memory(f"{count} radii", _RADIUS_BYTES * count, "for the radius list")
            if not log:
                radii = range(lo, hi + 1, n)
            elif n == 1:
                radii = [lo]
            else:
                step = (math.log(hi) - math.log(lo)) / (n - 1)
                radii = [round(math.exp(math.log(lo) + i * step)) for i in range(n)]
        else:
            radii = [int(part) for part in spec.split(",")]
    except (ValueError, OverflowError):
        raise ValueError(f"bad radii spec {spec!r}") from None
    if not radii or any(r < 1 for r in radii):
        raise ValueError(f"bad radii spec {spec!r}")
    return sorted(set(radii))


_ROWS = 1 << 16  # CSV rows joined into one block of text at a time


def _rows_csv(trace, full: bool) -> str:
    """CSV text: the header, then one row n,x,y,s,a,S per point of the
    quadrant or, when ``full``, of the circle that ``circle_columns`` lays
    out from the quadrant's strings, without point tuples.  Each int is
    formatted once: the y columns mirror the x strings, and x_n >= 1, so
    negating is prefixing "-".  s, a and S repeat with period 2r, because a
    quarter turn keeps the decisions and preserves a = |x| + |y|.  Rows are
    joined ``_ROWS`` at a time and then the blocks, so that only one block
    of row strings is alive at once; no row is empty, so neither is a block."""
    xs = list(map(str, trace.xs))
    xs, ys = (_cli.circle_columns(xs, ["-" + x for x in xs], "0") if full
              else (xs, _cli.mirror(xs, "0")))
    r, steps = trace.radius, trace.steps
    # S_n = a_{n+1} - r = a_n + s_n - r
    tails = [f"{s},{a},{a + s - r}" for s, a in zip(steps, _cli.L1Distances(r, steps))]
    rows = map(",".join, zip(map(str, range(len(xs))), xs, ys, cycle(tails)))
    blocks = iter(lambda: "\n".join(islice(rows, _ROWS)), "")
    return "\n".join(chain(("n,x,y,s,a,S",), blocks, ("",)))


def _trace_csv(trace) -> str:
    return _rows_csv(trace, full=False)


def _full_circle_csv(trace) -> str:
    return _rows_csv(trace, full=True)


# Lower bounds of the bytes each output point holds at the peak, CSV and SVG
# alike: tracemalloc peaks of `generate` to a file at r = 10^4 .. 3 * 10^5
# read 257-325 B per point for the quadrant and 137-203 for the full circle,
# the full CSV's least near r = 2 * 10^4.
_POINT_BYTES = {"quadrant": 250, "full": 130}


def _cmd_generate(args) -> int:
    r = _cli.read_radius(args.radius)
    full = args.extent == "full"
    count = 8 * r if full else 2 * r
    # both needs before the walk, the step array's first: it is named when it alone cannot fit
    _cli.require_step_memory(r)
    need = count * _POINT_BYTES[args.extent]
    _cli.require_memory(f"{count} points", need, f"for the {args.extent} {args.format.upper()}")
    trace = _cli.generate_quadrant(r, args.cost)
    if args.format == "csv":
        text = _full_circle_csv(trace) if full else _trace_csv(trace)
    else:
        points = (_cli.assemble_full_circle(trace).points if full
                  else _cli.PointColumns(trace.xs, trace.ys))
        text = _cli.render_path_svg(points, r, full, args.overlay_circle)
    _emit(text, args.out)
    return 0


_BLOCK = 1 << 16  # characters of whole lines read and parsed at a time


def _read_points_csv(path: str) -> PointColumns:
    """The x and y columns of a CSV, read in blocks of whole lines of about
    64 KiB each, so that only the columns and one block are held.  Blank
    lines are skipped, header cells may carry whitespace, and a bad row is
    named by its line number in the file, an undecodable byte by the first
    line not yet read.  A block is decoded before any of its rows is parsed,
    so an undecodable byte less than one block after a malformed row is
    reported as the codec error, as the decoder's 8 KiB read-ahead does."""
    # utf-8-sig drops a leading byte-order mark; text mode turns CRLF into LF
    with open(path, "r", encoding="utf-8-sig") as fh:
        lineno = 1  # the first line not yet read
        try:
            while (header := fh.readline()) == "\n":
                lineno += 1
            lineno += 1
            if not header:
                raise ValueError(f"{path}: empty file")
            cells = [cell.strip() for cell in header.split(",")]
            try:
                ix, iy = cells.index("x"), cells.index("y")
            except ValueError:
                raise ValueError(f"{path}: header must name x and y columns")
            cut = max(ix, iy) + 1  # cells past both columns stay unsplit in the last

            def parse(lines, xs, ys):  # appends the x and y cells of the nonblank lines
                rows = list(map(str.split, filter("\n".__ne__, lines), repeat(","), repeat(cut)))
                xs += map(int, map(itemgetter(ix), rows))
                ys += map(int, map(itemgetter(iy), rows))

            xs: list[int] = []
            ys: list[int] = []
            while lines := fh.readlines(_BLOCK):
                try:
                    parse(lines, xs, ys)
                except (IndexError, ValueError):
                    # rescan the block one line at a time to name its first bad line
                    for n, line in enumerate(lines, lineno):
                        try:
                            parse([line], [], [])
                        except (IndexError, ValueError):
                            row = line.rstrip("\n")
                            raise ValueError(f"{path}:{n}: malformed row {row!r}")
                    raise
                lineno += len(lines)
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: undecodable text at or after line {lineno}: {e}")
    return _cli.PointColumns(xs, ys)


def _cmd_validate(args) -> int:
    points = _read_points_csv(args.path)
    report = _cli.check_path(points, mode=args.mode)
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
    print(_record_line(_cli.estimate(args.radius, args.estimator, args.source, args.cost)))
    return 0


def _cmd_sweep(args) -> int:
    records = _cli.sweep(parse_radii_spec(args.radii), args.estimator, args.source, args.cost)
    lines = ["r,estimator,source,value,target,abs_error", *map(_record_line, records)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_area(args) -> int:
    report = _cli.area_report(args.radius, args.cost, with_bounds=args.with_bounds)
    bounds = f"{report.inner},{report.outer}" if args.with_bounds else ","
    print(f"{report.radius},{report.area},{bounds},{format_real(report.ratio)}")
    return 0


@functools.cache  # one parser per process; parse_args leaves it unchanged
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
        sources = [s.value for s in DiscretizationSource]
        p.add_argument("--source", choices=sources, default="signum")
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
    """Parse ``argv`` and run its command; returns the exit code.

    The cyclic collector is paused while the command runs and restored to
    the state it was found in.  Commands build only acyclic data (ints,
    strings, tuples and lists of them) that reference counting frees, so a
    collection would only re-walk every live container: about 15% of a
    200 000-row CSV parse and over half of a full-circle assembly.

    ``run`` never freezes the heap: tests, scripts and the benchmark's
    tracer call it many times in one process, whose later collections must
    still see every object.  Only ``main`` freezes, once the process is
    about to exit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        collecting = gc.isenabled()
        gc.disable()
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
            return code
        finally:
            if collecting:
                gc.enable()
    except BrokenPipeError:
        # the reader left early, as `| head` does: that ends the command
        # normally, and stdout is pointed at devnull so the interpreter's
        # flush at exit writes nowhere instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as e:
        # MemoryError() carries no message; name the failure instead
        print(f"arithmetic failure: {str(e) or type(e).__name__}", file=sys.stderr)
        return 3
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def main() -> None:
    """The console script: ``run`` the command line, then exit with its code.

    The heap is frozen before exit, so the interpreter's collections at
    shutdown skip the objects that die with the process, left by ``site``,
    argparse and the library, instead of walking them and breaking their
    cycles one at a time; ROADMAP's lifecycle table has the measured
    shutdown per child.  Flushing stdout and stderr, the atexit handlers
    and the exit code are unchanged.  ``run`` never freezes."""
    code = run()
    gc.freeze()
    sys.exit(code)
