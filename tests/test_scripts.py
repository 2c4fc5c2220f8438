"""Smoke runs of the experiment scripts in ``scripts/`` at tiny sizes."""

import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import latticircle
from latticircle.cli import parse_radii_spec, run

SCRIPTS = pathlib.Path(__file__).parents[1] / "scripts"


def script(name, *argv):
    env = dict(os.environ)
    src = str(pathlib.Path(latticircle.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, env=env, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


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
    assert header == "r,area,inner,outer,ratio,abs_error"
    radii = parse_radii_spec("log:1:50:4")
    assert len(rows) == len(radii)
    for r, row in zip(radii, rows):
        # the first five cells are what `latticircle area --with-bounds` prints
        assert run(["area", "--radius", str(r), "--with-bounds"]) == 0
        assert row.split(",")[:5] == capsys.readouterr().out.rstrip("\n").split(",")


def test_render_gallery_writes_eight_svgs(tmp_path):
    out_dir = tmp_path / "gallery"
    script("render_gallery.py", "--compare-radius", "5", "--out-dir", str(out_dir))
    written = sorted(p.name for p in out_dir.iterdir())
    assert len(written) == 8
    assert "quadrant_signum_r5.svg" in written
    assert "quadrant_midpoint_r5.svg" in written
    for name in written:
        assert ET.parse(out_dir / name).getroot().tag.endswith("svg")
