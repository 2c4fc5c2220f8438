"""Smoke check of the benchmark itself, at tiny radii.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

CONFIG = run.load_config()
# End-to-end metrics the report gives per subcommand, on the workloads that
# run that subcommand.
COMMANDS = {"reduce": ("pi", "area"), "export": ("generate", "validate"), "sweep": ("sweep",)}


def _smoke(workload, trace, digests=None):
    return run.benchmark(workload, seed=11, seconds=0, trace=trace, scale="smoke", digests=digests)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    report, result = _smoke(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for command in COMMANDS[workload]:
        assert report["commands"][f"{command}_s"]["unit"] == "s"
        assert report["commands"][f"{command}_rss_mb"]["unit"] == "MiB"
        assert report["commands"][f"{command}_s"]["n"] == report["passes"] >= run.MIN_PASSES
    assert report["failed_ratio"] == {
        "value": 0.0, "unit": "ratio", "attempted": result["attempted"], "failed": 0}
    for key in ("nproc", "python", "commit", "src_sha256", "seed", "setup_calls"):
        assert key in report


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    report, result = _smoke(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    # Every layer the workload is meant to move was actually traced.
    for name in report["layers"]:
        if name != "trace.overhead_s":
            assert metrics[name]["value"] > 0, name


def test_layer_map_names_known_metrics():
    layers = json.loads(run.LAYERS.read_text())
    per_layer = {m["name"] for m in CONFIG["per_layer"]}
    end_to_end = {m["name"] for m in CONFIG["end_to_end"]}
    reported = {f"{c}_{unit}" for cs in COMMANDS.values() for c in cs for unit in ("s", "rss_mb")}
    assert set(layers) == set(run.WORKLOADS)
    assert set().union(*(layers[w] for w in layers)) == per_layer
    for moves in layers.values():
        for targets in moves.values():
            assert set(targets) <= end_to_end | reported


def test_wrong_digest_counts_as_failed_operation():
    digests = run.load_digests()
    digests["pi --radius 300"] = "0" * 64
    report, result = _smoke("reduce", trace=0, digests=digests)
    assert not result["correct"]
    assert result["failed"] == report["passes"]
    assert report["failed_ratio"]["failed"] == result["failed"]


def test_output_checks_reject_wrong_output():
    check = run._validate_check(4, [2])
    check(2, b"mode=closed points=4 valid=false\nindex=2 neighbors=2\n")
    with pytest.raises(run.Failure):
        check(2, b"mode=closed points=4 valid=false\nindex=3 neighbors=2\n")
    with pytest.raises(run.Failure):
        check(0, b"mode=closed points=4 valid=false\nindex=2 neighbors=2\n")

    check = run._sweep_check([5, 7], "arithmetic", "signum")
    good = ("r,estimator,source,value,target,abs_error\n"
            "5,arithmetic,signum,3.2,3.14159265359,0.0584073464102\n"
            "7,arithmetic,signum,3.1,3.14159265359,0.0415926535898\n")
    check(0, good.encode())
    for bad in (good.replace("0.0584073464102", "0.0584"),
                good.replace("7,arithmetic", "8,arithmetic"),
                good.rsplit("7,", 1)[0],
                good.replace("3.2,", "x,")):
        with pytest.raises(run.Failure):
            check(0, bad.encode())


def test_duplicates_follow_their_originals():
    rows = [f"r{i}" for i in range(50)]
    out, injected = run.inject_duplicates(rows, run.random.Random(5), 6)
    assert len(out) == 56 and sorted(injected) == injected
    for i in injected:
        assert out[i] in out[:i] and out[i] not in out[i + 1:]
    assert [row for i, row in enumerate(out) if i not in injected] == rows


def test_command_line_prints_result_last():
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "sweep", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--scale", "smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""
