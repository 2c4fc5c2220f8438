"""Smoke runs of the experiment scripts in ``scripts/`` at tiny sizes."""

import importlib.util
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest

import latticircle
from latticircle.cli import parse_radii_spec, run
from latticircle.estimators import arithmetic_mean_pi_exact, pi_sequence
from test_area import half_integer_points_in_disc

SCRIPTS = pathlib.Path(__file__).parents[1] / "scripts"


def run_script(name, *argv, timeout=60):
    env = dict(os.environ)
    src = str(pathlib.Path(latticircle.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, env=env, text=True, timeout=timeout,
    )


def script(name, *argv, timeout=60):
    done = run_script(name, *argv, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(os.name != "posix", reason="reads physical memory with os.sysconf")
@pytest.mark.parametrize("name", ["run_pi_sweeps.py", "area_convergence.py"])
def test_sweep_scripts_refuse_a_radius_list_as_a_bad_spec(name, tmp_path):
    # both exit 2 with argparse's usage line and the reason, before any output
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for samples, reason in (
        ("0", "bad radii spec 'log:1:9:0'"),
        (str(10**11), "100000000000 radii need 20000000000000 bytes for the radius list,"
                      f" more than the {memory} bytes of physical memory"),
    ):
        done = run_script(name, "--min-radius", "1", "--max-radius", "9", "--samples", samples,
                          "--out" if name == "area_convergence.py" else "--out-dir",
                          str(tmp_path / "out"))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.splitlines()[-1] == f"{name}: error: {reason}"
    assert not (tmp_path / "out").exists()


def test_run_pi_sweeps_writes_what_sweep_writes(tmp_path):
    out_dir = tmp_path / "sweeps"
    script("run_pi_sweeps.py", "--max-radius", "30", "--samples", "3", "--out-dir", str(out_dir))
    written = sorted(out_dir.iterdir())
    assert len(written) == 5
    for path in written:
        estimator, source = path.stem.split("_")
        want = tmp_path / path.name
        assert run([
            "sweep", "--radii", "log:2:30:3", "--estimator", estimator,
            "--source", source, "--out", str(want),
        ]) == 0
        assert path.read_bytes() == want.read_bytes()


def test_area_convergence_writes_one_row_per_radius(tmp_path, capsys):
    out = tmp_path / "area.csv"
    script("area_convergence.py", "--max-radius", "50", "--samples", "4", "--out", str(out))
    header, *rows = out.read_text().splitlines()
    assert header == "r,area,inner,outer,ratio,abs_error,E/sqrt(rho),(A-pi)*r^1.5"
    radii = parse_radii_spec("log:1:50:4")
    assert len(rows) == len(radii)
    for r, row in zip(radii, rows):
        # the first five cells are what `latticircle area --with-bounds` prints
        assert run(["area", "--radius", str(r), "--with-bounds"]) == 0
        assert row.split(",")[:5] == capsys.readouterr().out.rstrip("\n").split(",")


def test_area_convergence_scales_the_half_lattice_count_error(tmp_path):
    # E = N(rho) - pi rho^2 with rho^2 = r^2 - 1/2, N(rho) counted point by point;
    # the column divides E by sqrt(rho) = (r^2 - 1/2)^(1/4)
    out = tmp_path / "area.csv"
    printed = script("area_convergence.py", "--max-radius", "60", "--samples", "6",
                     "--out", str(out))
    _, *rows = out.read_text().splitlines()
    radii = parse_radii_spec("log:1:60:6")
    assert [int(row.split(",")[0]) for row in rows] == radii
    assert "E/sqrt(rho)" in printed.splitlines()[0]
    for r, row, line in zip(radii, rows, printed.splitlines()[1:]):
        rho_sq = r * r - 0.5
        sqrt_rho = rho_sq ** 0.25
        want = (half_integer_points_in_disc(r) - math.pi * rho_sq) / sqrt_rho
        assert float(row.split(",")[6]) == pytest.approx(want, rel=1e-11, abs=1e-11), r
        assert float(line.split()[6]) == pytest.approx(want, abs=5e-5), r


def test_area_convergence_scales_the_arithmetic_mean_error(tmp_path):
    # the last column is (A - pi) r^1.5 with A the arithmetic mean that
    # `latticircle pi` prints, here rounded from its exact rational value
    out = tmp_path / "area.csv"
    printed = script("area_convergence.py", "--max-radius", "60", "--samples", "6",
                     "--out", str(out))
    _, *rows = out.read_text().splitlines()
    assert printed.splitlines()[0].split()[-1] == "(A-pi)*r^1.5"
    for r, row, line in zip(parse_radii_spec("log:1:60:6"), rows, printed.splitlines()[1:]):
        exact = arithmetic_mean_pi_exact(pi_sequence(r, "signum"))
        want = (float(exact) - math.pi) * r**1.5
        assert float(row.split(",")[-1]) == pytest.approx(want, rel=0, abs=1e-9), r
        assert float(line.split()[-1]) == pytest.approx(want, abs=5e-7), r


def test_render_gallery_writes_eight_svgs(tmp_path):
    out_dir = tmp_path / "gallery"
    script("render_gallery.py", "--compare-radius", "5", "--out-dir", str(out_dir))
    written = sorted(p.name for p in out_dir.iterdir())
    assert len(written) == 8
    assert "quadrant_signum_r5.svg" in written
    assert "quadrant_midpoint_r5.svg" in written
    for name in written:
        assert ET.parse(out_dir / name).getroot().tag.endswith("svg")


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a comment after code


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        s = """a string, not a
        docstring"""
        return s


async def g():
    "one-line docstring"
    return [
        os.sep,
        2,
    ]
'''


def test_code_lines_leaves_out_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "__init__.py").write_text('"""Only a docstring."""\n')
    header, *rows = script("code_lines.py", str(tmp_path)).splitlines()
    assert header.split() == ["module", "code", "wc", "-l"]
    # import, class, x, def, the two lines of s, return s, async def, and the
    # four lines of the list
    assert [row.split() for row in rows] == [
        ["__init__.py", "0", "1"], ["mod.py", "12", "26"], ["total", "12", "27"]]
    assert CODE_LINES_FIXTURE.count("\n") == 26


def load_bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", SCRIPTS / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "points_per_s", "unit": "points/s", "better": "higher", "bound": 0.25}


def test_bench_ab_claims_a_gain_by_wins_and_the_parent_spread():
    judge = load_bench_ab().judge
    parent = [0.088, 0.090, 0.086, 0.089, 0.087, 0.091, 0.088, 0.086, 0.090, 0.089]
    change = [0.072, 0.073, 0.071, 0.074, 0.072, 0.070, 0.073, 0.072, 0.071, 0.092]
    m = judge(parent, change, SETUP, claimed=True)
    assert (m["wins"], m["pairs"], m["verdict"]) == (9, 10, "claim met")
    assert (m["parent"]["median"], m["change"]["median"]) == (0.0885, 0.072)
    assert m["parent"]["values"] == parent
    # 8 wins of 10 are short of nine tenths
    short = judge(parent, change[:8] + [0.095, 0.095], SETUP, claimed=True)
    assert (short["wins"], short["verdict"]) == (8, "claim not met")
    # every pair won, but by less than the parent's quartile spread
    close = [p - 0.0005 for p in parent]
    assert judge(parent, close, SETUP, claimed=True)["verdict"] == "claim not met"
    # higher is better for a rate; ties count for neither side
    assert judge([10.0, 10.0], [10.0, 11.0], RATE, claimed=False)["wins"] == 1


def test_bench_ab_bounds_the_other_metrics():
    judge = load_bench_ab().judge
    assert judge([1.0] * 4, [1.2] * 4, SETUP, claimed=False)["verdict"] == "within bound"
    assert judge([1.0] * 4, [1.3] * 4, SETUP, claimed=False)["verdict"] == "worse beyond bound"
    assert judge([100.0] * 4, [70.0] * 4, RATE, claimed=False)["verdict"] == "worse beyond bound"
    # the parent's quartiles 0.7 and 1.3 are further apart than the bound allows
    wide = [0.5, 1.0, 1.5, 1.0, 0.6, 1.4]
    assert judge(wide, [1.1, 0.9, 1.2, 1.0, 1.0, 1.0], SETUP, claimed=False)["verdict"] == (
        "unresolved")
    assert judge(wide, [0.4] * 6, SETUP, claimed=False)["verdict"] == "within bound"


def side_run(value, complete=True, failed=0):
    """One side's run as ``bench_ab.run_side`` returns it."""
    metrics = {"setup_s": value} if complete else {}
    return {"metrics": metrics, "attempted": 22 * complete, "failed": failed,
            "complete": complete}


def test_bench_ab_compares_only_pairs_whose_runs_finished():
    compare = load_bench_ab().compare
    runs = [(side_run(0.09), side_run(0.07)), (side_run(0.09, complete=False), side_run(0.07)),
            (side_run(0.08), side_run(0.07, failed=1))]
    table = compare(runs, [SETUP, RATE], {"setup_s"})
    assert list(table["metrics"]) == ["setup_s"]
    assert (table["metrics"]["setup_s"]["pairs"], table["metrics"]["setup_s"]["compared"]) == (
        3, 2)
    assert table["operations"] == {
        "parent": {"runs": 3, "incomplete": 1, "attempted": 44, "failed": 0},
        "change": {"runs": 3, "incomplete": 0, "attempted": 66, "failed": 1},
        "more_failures": True,
    }
    # every pair finished and won, no operation failed: the claim is met
    clean = [(side_run(0.09 + i / 1000), side_run(0.07)) for i in range(10)]
    table = compare(clean, [SETUP], {"setup_s"})
    assert (table["metrics"]["setup_s"]["verdict"], table["operations"]["more_failures"]) == (
        "claim met", False)
    # the change crashed in 3 of 10 pairs and won the other 7
    crashed = clean[:7] + [(side_run(0.09), side_run(0.0, complete=False))] * 3
    table = compare(crashed, [SETUP], {"setup_s"})
    assert (table["metrics"]["setup_s"]["wins"], table["metrics"]["setup_s"]["pairs"]) == (7, 10)
    assert table["metrics"]["setup_s"]["verdict"] == "claim not met"
    # the parent crashed in 2 of 10: 8 wins are still short of nine tenths of the pairs run
    short = clean[:8] + [(side_run(0.0, complete=False), side_run(0.07))] * 2
    table = compare(short, [SETUP], {"setup_s"})
    assert not table["operations"]["more_failures"]
    assert table["metrics"]["setup_s"]["verdict"] == "claim not met"
    # every pair won, but one operation of the change failed
    failing = clean[:9] + [(side_run(0.09), side_run(0.07, failed=1))]
    table = compare(failing, [SETUP], {"setup_s"})
    assert table["operations"]["more_failures"]
    assert table["metrics"]["setup_s"]["verdict"] == "claim not met"


def test_bench_ab_file_verdict_needs_every_metric_within_bound():
    bench_ab = load_bench_ab()
    clean = [(side_run(0.09 + i / 1000), side_run(0.07)) for i in range(10)]
    met = bench_ab.compare(clean, [SETUP], {"setup_s"})
    claims = {"reduce": {"setup_s"}}
    assert bench_ab.overall({"reduce": met}, claims) == "claim met"
    assert bench_ab.overall({"reduce": met}, {}) == "no claim"
    assert bench_ab.overall({"reduce": met}, {"reduce": {"wall_s"}}) == "claim not met"
    slower = bench_ab.compare([(side_run(0.07), side_run(0.09))] * 4, [SETUP], set())
    assert slower["metrics"]["setup_s"]["verdict"] == "worse beyond bound"
    assert bench_ab.overall({"reduce": met, "sweep": slower}, claims) == "worse beyond bound"
    failing = bench_ab.compare([(side_run(0.07), side_run(0.07, failed=1))] * 4, [SETUP], set())
    assert bench_ab.overall({"reduce": met, "sweep": failing}, claims) == "more failures"


@pytest.mark.slow
@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_ab_runs_head_against_itself(tmp_path):
    root = SCRIPTS.parent
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    worktrees = subprocess.run(["git", "worktree", "list"], cwd=root, capture_output=True,
                               text=True).stdout
    out = tmp_path / "BENCH_0.json"
    stdout = script("bench_ab.py", "--pr", "0", "--pairs", "2", "--seconds", "0.1",
                    "--scale", "smoke", "--workload", "reduce", "--claim", "reduce:setup_s",
                    "--out", str(out), timeout=300)
    table = json.loads(out.read_text())
    assert stdout.splitlines()[-1].startswith("BENCH_0.json (2 pairs per workload")
    assert (table["pr"], table["pairs"], table["claims"]) == (0, 2, ["reduce:setup_s"])
    assert table["verdict"] in ("claim met", "claim not met")
    # both sides measured this checkout's committed or working source
    assert table["base"]["commit"] == table["change"]["commit"]
    assert table["base"]["src_sha256"] and table["change"]["src_sha256"]
    (workload,) = table["workloads"].values()
    assert set(workload["metrics"]) == {"setup_s", "wall_s", "points_per_s", "peak_rss_mb"}
    for side in ("parent", "change"):
        assert workload["operations"][side]["incomplete"] == 0
        assert workload["operations"][side]["failed"] == 0
    # the parent's worktree is gone
    assert subprocess.run(["git", "worktree", "list"], cwd=root, capture_output=True,
                          text=True).stdout == worktrees


@pytest.mark.skipif(shutil.which("git") is None or os.name != "posix",
                    reason="needs git and SIGTERM")
def test_bench_ab_removes_its_checkout_when_terminated(tmp_path):
    # SIGTERM as soon as the parent's checkout exists: the script exits with
    # 143 and leaves no bench-ab-* directory and no table behind
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS.parent,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    out = tmp_path / "BENCH_0.json"
    argv = [sys.executable, str(SCRIPTS / "bench_ab.py"), "--pr", "0", "--pairs", "2",
            "--seconds", "0.1", "--scale", "smoke", "--workload", "reduce", "--out", str(out)]
    env = dict(os.environ, TMPDIR=str(tmp_path))
    with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as child:
        deadline = time.monotonic() + 60
        while not any(tmp_path.glob("bench-ab-*/base")):
            assert child.poll() is None, child.stderr.read()
            assert time.monotonic() < deadline, "no checkout after 60 s"
            time.sleep(0.002)
        child.send_signal(signal.SIGTERM)
        _, err = child.communicate(timeout=60)
    assert child.returncode == 143, err
    assert not any(tmp_path.glob("bench-ab-*"))
    assert not out.exists()
