"""Benchmark of the latticircle CLI.

    python3 perfbench/run.py --workload {reduce,export,sweep} --seed N \
        --seconds S --trace {0,1} [--scale {full,smoke}]

Run from the root of a checkout.  The CLI is run from the checkout's
``src`` as child processes, one at a time.  A pass runs every command of
the workload once.  Passes repeat until about S seconds have been spent,
and at least three are run.

``--trace 0`` times the passes untraced.  It prints the end-to-end metrics
named in BENCHMARK.json: setup_s is the median of several ``--help``
calls, and the others are medians over passes.  Times are scaled by a
host reference program run between passes (see HOST_REF).  ``--trace 1`` alternates
untraced passes with passes whose commands run under ``traced.py``.  It
prints the per-layer metrics of BENCHMARK.json, each a median over the
traced passes.

Every command's exit code and output are checked.  Outputs that do not
depend on the seed must match the sha256 digests in ``digests.json``.
Outputs that do depend on the seed are checked against invariants computed
here.  The last line of stdout is the result JSON.  The line before it is a
report with metadata, sample counts and per-command metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
LAYERS = BENCH / "layers.json"
CLI_MAIN = "from latticircle.cli import main; main()"
WORK_PREFIX = ".perfbench-"  # scratch directories in the checkout, removed after each run

WORKLOADS = ("reduce", "export", "sweep")
MIN_PASSES = 3
SETUP_CALLS = 3  # per pass
# A fixed program that imports nothing and never touches the checkout, so no
# change to the code under test can change its time.  Run between passes, it
# measures how fast the shared host is at that moment.
HOST_REF = "d = {}\nfor i in range(400_000): d[i] = i * i\ns = sum(d.values())\nl = sorted(map(str, d))"
HOST_REF_S = 0.25  # its time on a quiet host; reported times are scaled to that host
# tracemalloc slows the walk about fifteenfold, and bytes per step are flat
# in r once r is in the thousands, so the memory sub-run is capped here.
TRACEMALLOC_MAX_RADIUS = 20_000

SCALES = {
    "full": {
        "reduce_radius": 150_000,
        "csv_radius": 25_000,
        "svg_radius": 10_000,
        "duplicates": 16,
        "sweep_radii": (5, 3000, 100),
    },
    "smoke": {
        "reduce_radius": 300,
        "csv_radius": 40,
        "svg_radius": 10,
        "duplicates": 3,
        "sweep_radii": (5, 60, 8),
    },
}

# (estimator, source, cost) of the six sweep invocations
SWEEPS = (
    ("arithmetic", "signum", "exact"),
    ("harmonic", "signum", "simplified"),
    ("arithmetic", "signum", "approx"),
    ("arithmetic", "param-exact", "exact"),
    ("arithmetic", "param-floor", "exact"),
    ("arithmetic", "param-round", "exact"),
)


class Failure(Exception):
    """An operation's exit code or output is wrong."""


@dataclass
class Op:
    """One CLI call and the check its result must pass."""

    command: str
    argv: list[str]
    points: int  # lattice points walked, sampled, written or validated
    check: Callable[[int, bytes], None]  # (exit code, output) -> raises Failure
    out: Path | None = None  # file the CLI writes; checked instead of stdout
    input: Path | None = None  # file the CLI reads


@dataclass
class Sample:
    command: str
    seconds: float
    rss_mib: float
    points: int
    written: int
    read: int
    spans: list | None


@dataclass
class Pass:
    samples: list[Sample] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(s.seconds for s in self.samples)

    @property
    def points(self) -> int:
        return sum(s.points for s in self.samples)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _size(path: Path | None) -> int:
    return path.stat().st_size if path and path.exists() else 0


def _expect_code(code: int, want: int) -> None:
    if code != want:
        raise Failure(f"exit code {code}, expected {want}")


class Runner:
    """Runs ops as child processes, checks them and counts failures."""

    def __init__(self, work: Path, digests: dict[str, str]):
        self.work = work
        self.digests = digests
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        # sweep must stay single-threaded whatever the caller's shell sets.
        self.env.pop("LATTICIRCLE_THREADS", None)
        self.env["PYTHONPATH"] = str(SRC)

    def digest(self, key: str) -> Callable[[int, bytes], None]:
        def check(code: int, data: bytes) -> None:
            _expect_code(code, 0)
            if self.digests.get(key) != _sha256(data):
                raise Failure(f"sha256 of output differs from digests.json[{key!r}]")

        return check

    def run(self, op: Op, traced: bool = False) -> Sample:
        stdout_path = self.work / "stdout"
        spans_path = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-c", CLI_MAIN]
        argv += op.argv
        for stale in (op.out, spans_path):
            if stale:
                stale.unlink(missing_ok=True)
        with open(stdout_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=self.work,
            )
            try:
                # The child's own rusage: RUSAGE_CHILDREN would keep the
                # maximum over every earlier child.
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        output = op.out or stdout_path
        self.attempted += 1
        try:
            op.check(child.returncode, output.read_bytes() if output.exists() else b"")
        except Failure as e:
            stderr = (self.work / "stderr").read_text(errors="replace").strip()[-200:]
            self.failures.append(f"{' '.join(op.argv)[:120]}: {e} {stderr}")
        spans = None
        if traced:
            spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
        return Sample(
            command=op.command,
            seconds=seconds,
            rss_mib=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            points=op.points,
            written=_size(stdout_path) + _size(op.out),
            read=_size(op.input),
            spans=spans,
        )

    def run_pass(self, ops: list[Op], traced: bool = False) -> Pass:
        return Pass([self.run(op, traced) for op in ops])


# --- workloads -------------------------------------------------------------


def reduce_ops(cfg: dict, rng: random.Random, runner: Runner) -> tuple[list[Op], int]:
    """Four reductions of one large walk; the seed changes nothing here, so
    every output is gated by its digest."""
    r = cfg["reduce_radius"]
    variants = [
        ("pi", []),
        ("pi", ["--estimator", "harmonic"]),
        ("area", ["--with-bounds"]),
        ("area", []),
    ]
    ops = []
    for command, extra in variants:
        argv = [command, "--radius", str(r), *extra]
        ops.append(Op(command, argv, 2 * r, runner.digest(" ".join(argv))))
    return ops, r


def _validate_check(rows: int, injected: list[int]) -> Callable[[int, bytes], None]:
    valid = "false" if injected else "true"
    want = f"mode=closed points={rows} valid={valid}\n"
    want += "".join(f"index={i} neighbors=2\n" for i in injected)

    def check(code: int, data: bytes) -> None:
        _expect_code(code, 2 if injected else 0)
        if data.decode(errors="replace") != want:
            raise Failure(f"validate printed {data[:200]!r}, expected {want[:200]!r}")

    return check


def inject_duplicates(rows: list[str], rng: random.Random, count: int) -> tuple[list[str], list[int]]:
    """Insert copies of ``count`` distinct rows, each somewhere after its
    original, and return the new rows with the copies' indices."""
    originals = rng.sample(range(len(rows)), min(count, len(rows)))
    slots: dict[int, list[str]] = {}
    for i in originals:
        slots.setdefault(rng.randrange(i + 1, len(rows) + 1), []).append(rows[i])
    out: list[str] = []
    injected: list[int] = []
    for slot in range(len(rows) + 1):
        for row in slots.get(slot, ()):
            injected.append(len(out))
            out.append(row)
        if slot < len(rows):
            out.append(rows[slot])
    return out, injected


def export_ops(cfg: dict, rng: random.Random, runner: Runner) -> tuple[list[Op], int]:
    """Write a full circle as CSV and SVG, then validate seed-permuted and
    seed-corrupted copies of the CSV."""
    r, r_svg, work = cfg["csv_radius"], cfg["svg_radius"], runner.work
    csv_path, svg_path = work / "circle.csv", work / "circle.svg"
    gen_argv = ["generate", "--radius", str(r), "--extent", "full"]
    generate = Op("generate", gen_argv + ["--out", str(csv_path)], 8 * r,
                  runner.digest(" ".join(gen_argv)), out=csv_path)
    svg_argv = ["generate", "--radius", str(r_svg), "--extent", "full",
                "--format", "svg", "--overlay-circle"]
    svg = Op("generate", svg_argv + ["--out", str(svg_path)], 8 * r_svg,
             runner.digest(" ".join(svg_argv)), out=svg_path)

    # The validate inputs come from the CLI's own CSV, checked by digest.
    runner.run(generate)
    lines = csv_path.read_text().splitlines() if csv_path.exists() else ["n,x,y,s,a,S"]
    header, rows = lines[0], lines[1:]
    rng.shuffle(rows)
    corrupted, injected = inject_duplicates(rows, rng, cfg["duplicates"])
    ops = [generate, svg]
    for name, body, dups in (("permuted", rows, []), ("corrupted", corrupted, injected)):
        path = work / f"{name}.csv"
        path.write_text("\n".join([header, *body]) + "\n")
        ops.append(Op("validate", ["validate", str(path), "--mode", "closed"],
                      len(body), _validate_check(len(body), dups), input=path))
    return ops, r


def draw_radii(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One radius from each of ``count`` equal strata of lo..hi, so the
    total work barely depends on the seed."""
    edges = [lo + (hi + 1 - lo) * i // count for i in range(count + 1)]
    return [rng.randrange(a, b) for a, b in zip(edges, edges[1:])]


def _format_real(v: float) -> str:
    s = f"{v:.12g}"
    return s + ".0" if s.strip("-").isdigit() else s


def _sweep_target(estimator: str, source: str) -> tuple[float, str]:
    """Target value and its CSV cell, computed here from the closed forms."""
    if source == "signum":
        v = math.pi if estimator == "arithmetic" else 16 / (math.pi + 2)
    elif source == "param-exact" and estimator == "arithmetic":
        root2 = math.sqrt(2)
        v = 4 * root2 / math.pi * (math.log(2 + root2) - math.log(2 - root2))
    else:
        return math.pi, "pi (no closed form)"
    return v, _format_real(v)


def _sweep_check(radii: list[int], estimator: str, source: str) -> Callable[[int, bytes], None]:
    target, target_cell = _sweep_target(estimator, source)

    def check(code: int, data: bytes) -> None:
        _expect_code(code, 0)
        lines = data.decode(errors="replace").split("\n")
        if lines[0] != "r,estimator,source,value,target,abs_error" or lines[-1] != "":
            raise Failure("sweep CSV header or final newline is wrong")
        rows = [line.split(",") for line in lines[1:-1]]
        if [row[0] for row in rows] != [str(r) for r in radii]:
            raise Failure("sweep CSV does not have one row per radius, in order")
        for row in rows:
            if len(row) != 6 or row[1:3] != [estimator, source] or row[4] != target_cell:
                raise Failure(f"bad sweep row {row}")
            try:
                value, abs_error = float(row[3]), float(row[5])
            except ValueError:
                raise Failure(f"non-numeric sweep row {row}")
            # value is printed to 12 significant digits
            if not math.isfinite(value) or abs(abs_error - abs(value - target)) > 1e-11:
                raise Failure(f"abs_error is not |value - target| in {row}")

    return check


def sweep_ops(cfg: dict, rng: random.Random, runner: Runner) -> tuple[list[Op], int]:
    """Six sweeps over the same seed-drawn radii; radii start at 5 because
    --cost approx rejects smaller ones and param-floor fails at r = 1."""
    radii = draw_radii(rng, *cfg["sweep_radii"])
    spec = ",".join(map(str, radii))
    ops = []
    for i, (estimator, source, cost) in enumerate(SWEEPS):
        out = runner.work / f"sweep{i}.csv"
        argv = ["sweep", "--radii", spec, "--estimator", estimator,
                "--source", source, "--cost", cost, "--out", str(out)]
        ops.append(Op("sweep", argv, 2 * sum(radii),
                      _sweep_check(radii, estimator, source), out=out))
    return ops, max(radii)


BUILDERS = {"reduce": reduce_ops, "export": export_ops, "sweep": sweep_ops}


# --- measurement -----------------------------------------------------------


def repeat_passes(run_pass: Callable[[], object], seconds: float, min_passes: int) -> list:
    """Call ``run_pass`` at least ``min_passes`` times, then until one more
    call would likely end past ``seconds``; return the results."""
    start = time.perf_counter()
    runs, walls = [], []
    while len(runs) < min_passes or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        t = time.perf_counter()
        runs.append(run_pass())
        walls.append(time.perf_counter() - t)
    return runs


def time_host_ref() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", HOST_REF], check=True)
    return time.perf_counter() - start


def command_metrics(passes: list[Pass]) -> dict:
    """Summed wall time and peak RSS of each subcommand in a pass, as
    medians over the passes."""
    out = {}
    for command in dict.fromkeys(s.command for s in passes[0].samples):
        times = [sum(s.seconds for s in p.samples if s.command == command) for p in passes]
        rss = [max(s.rss_mib for s in p.samples if s.command == command) for p in passes]
        out[f"{command}_s"] = {"value": statistics.median(times), "unit": "s", "n": len(passes)}
        out[f"{command}_rss_mb"] = {"value": statistics.median(rss), "unit": "MiB", "n": len(passes)}
    return out


def fold_spans(spans: list[dict], acc: dict[str, Counter]) -> None:
    """Add each span's self time (its duration minus its children's) and
    counts to ``acc`` under the span's name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    for s, c in zip(spans, child):
        entry = acc.setdefault(s["name"], Counter())
        entry["self_s"] += s["end"] - s["start"] - c
        entry.update(s["counts"])


def layer_metrics(traced: Pass) -> dict[str, float]:
    acc: dict[str, Counter] = {}
    for s in traced.samples:
        fold_spans(s.spans or [], acc)

    def get(layer: str, key: str):
        return acc.get(layer, Counter())[key]

    def ns_per(layer: str, key: str) -> float:
        n = get(layer, key)
        return 1e9 * get(layer, "self_s") / n if n else 0.0

    return {
        "signum.walk.ns_per_step": ns_per("signum.walk", "steps"),
        "signum.walk.steps": get("signum.walk", "steps"),
        "signum.assemble.ns_per_point": ns_per("signum.assemble", "points"),
        "lattice.check.ns_per_point": ns_per("lattice.check", "points"),
        "lattice.check.points": get("lattice.check", "points"),
        "lattice.check.violations": get("lattice.check", "violations"),
        "estimators.sequence.ns_per_sample": ns_per("estimators.sequence", "samples"),
        "estimators.mean.ns_per_sample": ns_per("estimators.mean", "samples"),
        "estimators.sweep.self_s": get("estimators.sweep", "self_s"),
        "estimators.sweep.radii": get("estimators.sweep", "radii"),
        "reference.param.ns_per_sample": ns_per("reference.param", "samples"),
        "area.recursive.ns_per_step": ns_per("area.recursive", "steps"),
        "area.bounds.ns_per_column": ns_per("area.bounds", "columns"),
        "svg.render.ns_per_point": ns_per("svg.render", "points"),
        "svg.bytes": get("svg.render", "bytes"),
        **{f"cli.{c}.self_s": get(f"cli.{c}", "self_s")
           for c in ("generate", "validate", "pi", "area", "sweep")},
        "cli.format.ns_per_row": ns_per("cli.format", "rows"),
        "cli.parse.ns_per_row": ns_per("cli.parse", "rows"),
        "cli.bytes_written": sum(s.written for s in traced.samples),
        "cli.bytes_read": sum(s.read for s in traced.samples),
    }


def trace_bytes_per_step(runner: Runner, radius: int) -> float:
    r = min(radius, TRACEMALLOC_MAX_RADIUS)
    argv = [sys.executable, str(BENCH / "traced.py"), "--tracemalloc", str(r)]
    runner.attempted += 1
    done = subprocess.run(argv, env=runner.env, cwd=runner.work, capture_output=True, text=True)
    if done.returncode != 0:
        runner.failures.append(f"tracemalloc sub-run at r={r}: {done.stderr.strip()[-200:]}")
        return 0.0
    return int(done.stdout) / (2 * r)


def commit_id() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "latticircle").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def benchmark(workload: str, seed: int, seconds: float, trace: int, scale: str = "full",
              digests: dict[str, str] | None = None) -> tuple[dict, dict]:
    """Run one workload; return the report and the result objects."""
    config = load_config()
    cfg = SCALES[scale]
    digests = load_digests() if digests is None else digests
    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=ROOT) as tmp:
        runner = Runner(Path(tmp), digests)
        ops, walk_radius = BUILDERS[workload](cfg, random.Random(seed), runner)
        report = {
            "workload": workload,
            "why": next(w["why"] for w in config["workloads"] if w["name"] == workload),
            "layers": json.loads(LAYERS.read_text())[workload],
            "seed": seed,
            "scale": scale,
            "trace": trace,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "commit": commit_id(),
            "src_sha256": source_digest(),
            "ops_per_pass": len(ops),
        }
        if trace:
            pairs = repeat_passes(
                lambda: (runner.run_pass(ops), runner.run_pass(ops, traced=True)),
                seconds, 1)
            per_pass = [layer_metrics(t) for _, t in pairs]
            values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
            values["signum.trace.bytes_per_step"] = trace_bytes_per_step(runner, walk_radius)
            values["trace.overhead_s"] = (
                statistics.median(t.wall for _, t in pairs)
                - statistics.median(u.wall for u, _ in pairs))
            report["passes"] = len(pairs)
        else:
            help_op = Op("setup", ["--help"], 0, _help_check)
            runner.run(help_op)  # warm the bytecode and file caches
            refs = [time_host_ref()]

            def setup_and_pass():
                # Set-up calls are spread over the run, so that their median
                # sees the same machine as the passes.
                setup = [runner.run(help_op).seconds for _ in range(SETUP_CALLS)]
                done = runner.run_pass(ops)
                refs.append(time_host_ref())
                return setup, done

            runs = repeat_passes(setup_and_pass, seconds, MIN_PASSES)
            setup = [t for times, _ in runs for t in times]
            passes = [p for _, p in runs]
            # The host's speed drifts by up to a third within minutes.  Each
            # pass is scaled by the reference runs just before and after it,
            # and set-up by the run's median reference, which takes out most
            # of that drift from run to run.
            walls = [p.wall * 2 * HOST_REF_S / (a + b)
                     for p, a, b in zip(passes, refs, refs[1:])]
            values = {
                "setup_s": statistics.median(setup) * HOST_REF_S / statistics.median(refs),
                "wall_s": statistics.median(walls),
                "points_per_s": statistics.median(p.points / w for p, w in zip(passes, walls)),
                "peak_rss_mb": statistics.median(
                    max(s.rss_mib for s in p.samples) for p in passes),
            }
            report["passes"] = len(passes)
            report["raw_pass_wall_s"] = [p.wall for p in passes]
            report["raw_setup_s"] = statistics.median(setup)
            report["host_ref_s"] = refs
            report["setup_calls"] = len(setup)
            report["commands"] = command_metrics(passes)
        report["failed_ratio"] = {
            "value": len(runner.failures) / runner.attempted,
            "unit": "ratio",
            "attempted": runner.attempted,
            "failed": len(runner.failures),
        }
        report["failures"] = runner.failures[:20]
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in config["per_layer" if trace else "end_to_end"]},
    }
    return report, result


def _help_check(code: int, data: bytes) -> None:
    _expect_code(code, 0)
    if not data.startswith(b"usage: latticircle"):
        raise Failure("--help printed no usage line")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = parser.parse_args()
    if not (SRC / "latticircle" / "cli.py").is_file():
        print(f"no latticircle source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    report, result = benchmark(args.workload, args.seed, args.seconds, args.trace, args.scale)
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
