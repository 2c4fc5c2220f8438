"""Child process of the latticircle benchmark's traced run.

    python3 perfbench/traced.py SPANS_JSON ARGV...
        Run ``latticircle.cli.run(ARGV)`` in this process with a span around
        every call into a module's public functions, then write the spans
        to SPANS_JSON and exit with the CLI's exit code.

    python3 perfbench/traced.py --tracemalloc RADIUS
        Print the tracemalloc peak, in bytes, of one ``generate_quadrant``
        call at RADIUS.

Each function is wrapped where its caller looks it up, so
``latticircle.cli.generate_quadrant`` and ``latticircle.area.generate_quadrant``
are wrapped separately and every call goes through exactly one wrapper.
The per-sample functions (``cost_*``, ``a_param_*``, ``rotate90``) are not
wrapped: a wrapper on each call would cost more than the call itself.
``latticircle`` is imported from PYTHONPATH, which the benchmark points at
the checkout's ``src``.  Nothing under ``src`` is edited.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

from latticircle import area, cli, estimators
from latticircle.reference import DiscretizationSource
from latticircle.signum import generate_quadrant


class Tracer:
    """Spans kept in memory: name, start, end, parent index and counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, describe, fn, args, kwargs):
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        span["name"], span["counts"] = describe(args, result)
        return result

    def wrap(self, module, attr: str, describe) -> None:
        fn = getattr(module, attr)
        name = f"{module.__name__}.{attr}"

        def traced(*args, **kwargs):
            return self.call(name, describe, fn, args, kwargs)

        setattr(module, attr, traced)


def _walk(args, trace):
    return "signum.walk", {"steps": 2 * trace.radius}


def _sequence(args, seq):
    layer = (
        "estimators.sequence"
        if seq.source is DiscretizationSource.SIGNUM
        else "reference.param"
    )
    return layer, {"samples": len(seq.l1_values)}


def _mean(args, value):
    return "estimators.mean", {"samples": len(args[0].l1_values)}


# (module, name as bound there, describe(args, result) -> (layer, counts))
BINDINGS = [
    (cli, "generate_quadrant", _walk),
    (area, "generate_quadrant", _walk),
    (estimators, "generate_quadrant", _walk),
    (cli, "assemble_full_circle",
     lambda args, path: ("signum.assemble", {"points": len(path.points)})),
    (cli, "check_path",
     lambda args, report: ("lattice.check", {
         "points": len(args[0]), "violations": len(report.violations)})),
    (cli, "pi_sequence", _sequence),
    (estimators, "pi_sequence", _sequence),
    (cli, "arithmetic_mean_pi", _mean),
    (cli, "harmonic_mean_pi", _mean),
    (estimators, "arithmetic_mean_pi", _mean),
    (estimators, "harmonic_mean_pi", _mean),
    (cli, "sweep",
     lambda args, records: ("estimators.sweep", {"radii": len(records)})),
    (area, "area_recursive",
     lambda args, n: ("area.recursive", {"steps": 2 * args[0].radius})),
    (area, "inner_outer_areas",
     lambda args, bounds: ("area.bounds", {"columns": args[0]})),
    # SVG and CSV text is ASCII, so characters count bytes.
    (cli, "render_path_svg",
     lambda args, text: ("svg.render", {"points": len(args[0]), "bytes": len(text)})),
    (cli, "_trace_csv",
     lambda args, text: ("cli.format", {"rows": 2 * args[0].radius})),
    (cli, "_full_circle_csv",
     lambda args, text: ("cli.format", {"rows": 8 * args[0].radius})),
    (cli, "_read_points_csv",
     lambda args, points: ("cli.parse", {"rows": len(points)})),
]


def run_traced(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    for module, attr, describe in BINDINGS:
        tracer.wrap(module, attr, describe)
    # The run span is named after the subcommand: its self time is what
    # cli.<command> spends outside the wrapped library calls.
    command = f"cli.{argv[0]}" if argv else "cli.run"
    try:
        return tracer.call(command, lambda args, code: (command, {}), cli.run, (argv,), {})
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


def trace_peak_bytes(radius: int) -> int:
    tracemalloc.start()
    try:
        generate_quadrant(radius)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--tracemalloc"]:
        print(trace_peak_bytes(int(sys.argv[2])))
    else:
        sys.exit(run_traced(sys.argv[1], sys.argv[2:]))
