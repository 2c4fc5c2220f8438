"""Benchmark this checkout against a parent commit and write BENCH_<pr>.json.

    python3 scripts/bench_ab.py --pr N [--base REV] [--pairs 10] [--seconds S]
        [--workload W ...] [--claim WORKLOAD:METRIC ...] [--scale {full,smoke}]
        [--out PATH]

The parent is REV (default HEAD, so that uncommitted changes are measured
against the last commit), checked out in a temporary ``git worktree`` that
is removed at the end.  Each side runs its own ``perfbench/run.py --trace 0``
against its own ``src``.  For each workload, pair i (from 0) runs both
sides with seed 1 + i, one after the other, and the side that runs first
alternates from pair to pair, so that a drifting host favours neither.
The run length defaults to ``run_seconds`` of BENCHMARK.json.

The file names both commits, with the sha256 of each side's
``src/latticircle`` as its runs report it, and whether the change side had
uncommitted edits.  For every end-to-end metric of BENCHMARK.json the file
holds each side's median and quartiles over the pairs in which both sides
finished, the values in pair order and the change's wins; ties count for
neither side.  A claimed metric is met when the change wins at least nine
tenths of the pairs run, finished or not, the medians differ, in the
better direction, by more than the parent's quartile spread, and the
change left no more runs unfinished and failed no larger share of its
operations than the parent.  Any other metric is "worse beyond bound"
when the change's median is worse than the parent's by more than the
metric's relative bound, "unresolved" when the parent's own quartile
spread is wider than the bound and not every change run beats every
parent run, and otherwise "within bound".

The file's verdict is, in this order: "more failures" when on some
workload the change left more runs unfinished or failed a larger share of
its operations; "worse beyond bound" or "unresolved" when some metric is;
"no claim" when nothing was claimed; "claim met" when every claim is met
and otherwise "claim not met".  The file is written to the repository
root unless --out names another path, and the last line printed is a
summary for CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLAIM_SHARE = 0.9  # of the pairs the change must win for a claim


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def run_side(checkout: Path, workload: str, seed: int, seconds: float, scale: str) -> dict:
    """One ``perfbench/run.py`` run: its metrics, or none when it did not finish."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--scale", scale]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        return {"metrics": {}, "attempted": 0, "failed": 0, "complete": False}
    report, result = map(json.loads, lines[-2:])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "complete": True,
        "run": {key: report.get(key) for key in ("nproc", "python", "src_sha256")},
    }


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def judge(parent: list[float], change: list[float], spec: dict, claimed: bool,
          runs: int | None = None) -> dict:
    """Both sides' statistics, the change's wins and the verdict on one
    metric.  ``runs`` is the number of pairs run, of which ``parent`` and
    ``change`` hold the finished ones; a claim needs its wins out of all
    of them (default: every pair finished)."""
    runs = len(parent) if runs is None else runs
    sign = 1 if spec["better"] == "higher" else -1  # sign * (c - p) > 0: the change is better
    p, c = summarize(parent), summarize(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain = sign * (c["median"] - p["median"])
    spread = p["q3"] - p["q1"]
    if claimed:
        met = wins >= CLAIM_SHARE * runs and gain > spread
        verdict = "claim met" if met else "claim not met"
    elif -gain > spec["bound"] * abs(p["median"]):
        verdict = "worse beyond bound"
    elif spread > spec["bound"] * abs(p["median"]) and not all(
        sign * (b - a) > 0 for a in parent for b in change
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c, "pairs": runs, "compared": len(parent), "wins": wins,
            "verdict": verdict}


def failed_share(side: dict) -> float:
    return side["failed"] / side["attempted"] if side["attempted"] else 0.0


def compare(runs: list[tuple[dict, dict]], specs: list[dict], claims: set[str]) -> dict:
    """One workload's table from its (parent, change) run pairs.  Metrics
    are compared over the pairs in which both sides finished; no claim is
    met when the change left more runs unfinished or failed a larger share
    of its operations than the parent."""
    sides = {}
    for side, i in (("parent", 0), ("change", 1)):
        sides[side] = {
            "runs": len(runs),
            "incomplete": sum(not pair[i]["complete"] for pair in runs),
            "attempted": sum(pair[i]["attempted"] for pair in runs),
            "failed": sum(pair[i]["failed"] for pair in runs),
        }
    parent_ops, change_ops = sides["parent"], sides["change"]
    more_failures = (change_ops["incomplete"] > parent_ops["incomplete"]
                     or failed_share(change_ops) > failed_share(parent_ops))
    done = [(p, c) for p, c in runs if p["complete"] and c["complete"]]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in done
                 if name in p["metrics"] and name in c["metrics"]]
        if pairs:
            parent, change = map(list, zip(*pairs))
            metrics[name] = judge(parent, change, spec, name in claims, len(runs))
            if more_failures and name in claims:
                metrics[name]["verdict"] = "claim not met"
    return {"operations": {**sides, "more_failures": more_failures}, "metrics": metrics}


def overall(results: dict, claims: dict[str, set[str]]) -> str:
    """The file's verdict from every workload's table."""
    verdicts = {m["verdict"] for entry in results.values() for m in entry["metrics"].values()}
    missing = [c for w, names in claims.items() for c in names - results[w]["metrics"].keys()]
    if any(entry["operations"]["more_failures"] for entry in results.values()):
        return "more failures"
    for verdict in ("worse beyond bound", "unresolved"):
        if verdict in verdicts:
            return verdict
    if not claims:
        return "no claim"
    if "claim not met" in verdicts or missing:
        return "claim not met"
    return "claim met"


def summary_line(name: str, table: dict) -> str:
    parts = []
    for workload, entry in table["workloads"].items():
        cells = []
        for metric, m in entry["metrics"].items():
            p, c = m["parent"], m["change"]
            cells.append(
                f"{metric} {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] → "
                f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {m['unit']}, "
                f"change better in {m['wins']}/{m['pairs']}, {m['verdict']}"
            )
        failed = entry["operations"]
        cells.append(f"failed {failed['parent']['failed']} → {failed['change']['failed']}")
        parts.append(f"{workload}: " + "; ".join(cells))
    head = (f"{name} ({table['pairs']} pairs per workload, {table['seconds']} s runs, "
            f"scale {table['scale']}, base {table['base']['commit'][:7]}): ")
    return head + " | ".join(parts) + f" | verdict: {table['verdict']}"


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    specs = benchmark["end_to_end"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    ap.add_argument("--base", default="HEAD", help="the parent revision (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="a workload to run, repeatable (default every workload)")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="a claimed gain, repeatable")
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--out", type=Path, help="output path (default BENCH_<pr>.json at the root)")
    args = ap.parse_args()
    chosen = args.workload or workloads
    metric_names = {spec["name"] for spec in specs}
    claims: dict[str, set[str]] = {}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if workload not in chosen or metric not in metric_names:
            ap.error(f"--claim {claim!r} names no metric of a chosen workload")
        claims.setdefault(workload, set()).add(metric)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    out = args.out or ROOT / f"BENCH_{args.pr}.json"

    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change = {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    seen = {"parent": {}, "change": {}}  # what each side's runs report of the host and src
    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        base = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base), base_commit)
        try:
            for workload in chosen:
                runs = []
                for i in range(args.pairs):
                    seed = 1 + i
                    order = (("parent", base), ("change", ROOT))
                    if i % 2:
                        order = order[::-1]
                    pair = {side: run_side(path, workload, seed, args.seconds, args.scale)
                            for side, path in order}
                    runs.append((pair["parent"], pair["change"]))
                    for side, run in pair.items():
                        seen[side].update(run.get("run", {}))
                    print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed})", file=sys.stderr)
                results[workload] = compare(runs, specs, claims.get(workload, set()))
        finally:
            git("worktree", "remove", "--force", str(base))

    table = {
        "pr": args.pr,
        "base": {"rev": args.base, "commit": base_commit, **seen["parent"]},
        "change": {**change, **seen["change"]},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "scale": args.scale,
        "seeds": [1, args.pairs],
        "claims": sorted(f"{w}:{m}" for w, names in claims.items() for m in names),
        "verdict": overall(results, claims),
        "workloads": results,
    }
    out.write_text(json.dumps(table, indent=1) + "\n")
    print(summary_line(out.name, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
