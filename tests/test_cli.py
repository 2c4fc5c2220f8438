import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import latticircle
from latticircle.cli import format_real, parse_radii_spec, run
from latticircle.reference import midpoint_quadrant

R2_QUADRANT_CSV = (
    "n,x,y,s,a,S\n"
    "0,2,0,1,2,1\n"
    "1,2,1,-1,3,0\n"
    "2,1,1,1,2,1\n"
    "3,1,2,-1,3,0\n"
)


def test_format_real():
    assert format_real(3.0) == "3.0"
    assert format_real(4.0) == "4.0"
    assert format_real(10 / 3) == "3.33333333333"
    assert format_real(3.2) == "3.2"
    assert format_real(0.1917406797) == "0.1917406797"
    assert format_real(6.09165335645e-05) == "6.09165335645e-05"


def test_generate_quadrant_csv(capsys):
    assert run(["generate", "--radius", "2"]) == 0
    assert capsys.readouterr().out == R2_QUADRANT_CSV


def test_generate_full_csv_row_count(capsys):
    assert run(["generate", "--radius", "3", "--extent", "full"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,x,y,s,a,S"
    assert len(lines) == 1 + 24
    assert lines[1] == "0,3,0,1,3,1"


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run([
            "generate", "--radius", "17", "--cost", "simplified",
            "--extent", "full", "--out", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_generate_svg_full_circle(capsys):
    assert run([
        "generate", "--radius", "30", "--cost", "approx",
        "--extent", "full", "--format", "svg", "--overlay-circle",
    ]) == 0
    text = capsys.readouterr().out
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    ns = {"svg": "http://www.w3.org/2000/svg"}
    polygons = root.findall("svg:polygon", ns)
    assert len(polygons) == 1
    assert len(polygons[0].attrib["points"].split()) == 240
    assert root.findall("svg:circle", ns)


def test_generate_svg_quadrant_is_open_polyline(capsys):
    assert run(["generate", "--radius", "4", "--format", "svg"]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    polylines = root.findall("svg:polyline", ns)
    assert len(polylines) == 1
    assert len(polylines[0].attrib["points"].split()) == 8
    assert not root.findall("svg:circle", ns)


def test_generate_approx_below_admissible_radius(capsys):
    assert run(["generate", "--radius", "3", "--cost", "approx"]) == 1
    err = capsys.readouterr().err
    assert "approx requires radius ≥ 5" in err


def test_validate_full_circle_round_trip(tmp_path, capsys):
    path = tmp_path / "circle.csv"
    assert run(["generate", "--radius", "5", "--extent", "full", "--out", str(path)]) == 0
    assert run(["validate", str(path), "--mode", "closed"]) == 0
    out = capsys.readouterr().out
    assert "valid=true" in out
    assert run(["validate", str(path), "--mode", "open"]) == 0


def test_validate_midpoint_quadrant_fails(tmp_path, capsys):
    path = tmp_path / "midpoint.csv"
    rows = ["x,y"] + [f"{x},{y}" for x, y in midpoint_quadrant(5)]
    path.write_text("\n".join(rows) + "\n")
    assert run(["validate", str(path), "--mode", "open"]) == 2
    out = capsys.readouterr().out
    assert "valid=false" in out
    assert "index=4 neighbors=0" in out


def test_validate_violation_line_format(tmp_path, capsys):
    path = tmp_path / "cluster.csv"
    path.write_text("x,y\n0,0\n1,0\n-1,0\n0,1\n")
    assert run(["validate", str(path), "--mode", "open"]) == 2
    assert "index=0 neighbors=3" in capsys.readouterr().out


def test_validate_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert run(["validate", str(path)]) == 1
    assert "empty" in capsys.readouterr().err


def test_validate_header_only_is_vacuously_valid(tmp_path, capsys):
    path = tmp_path / "header.csv"
    path.write_text("x,y\n")
    assert run(["validate", str(path)]) == 0
    assert "note=empty" in capsys.readouterr().out


def test_validate_malformed_rows(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,one\n")
    assert run(["validate", str(path)]) == 1
    path.write_text("u,v\n1,2\n")
    assert run(["validate", str(path)]) == 1
    assert run(["validate", str(tmp_path / "missing.csv")]) == 1


def test_pi_lines(capsys):
    assert run(["pi", "--radius", "2"]) == 0
    assert (
        capsys.readouterr().out
        == "2,arithmetic,signum,3.33333333333,3.14159265359,0.191740679744\n"
    )
    assert run(["pi", "--radius", "2", "--estimator", "harmonic"]) == 0
    assert capsys.readouterr().out.startswith("2,harmonic,signum,3.2,3.11187623719,")
    assert run(["pi", "--radius", "1", "--source", "param-exact"]) == 0
    assert capsys.readouterr().out.startswith("1,arithmetic,param-exact,3.41421356237,")


def test_pi_flags_sources_without_closed_form(capsys):
    assert run(["pi", "--radius", "2", "--source", "param-floor"]) == 0
    out = capsys.readouterr().out
    assert ",pi (no closed form)," in out


def test_pi_rejects_midpoint_source(capsys):
    assert run(["pi", "--radius", "5", "--source", "midpoint"]) == 1


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run([
        "sweep", "--radii", "log:10:1000:3", "--estimator", "arithmetic",
        "--source", "signum", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,estimator,source,value,target,abs_error"
    assert [line.split(",")[0] for line in lines[1:]] == ["10", "100", "1000"]
    errors = [float(line.split(",")[5]) for line in lines[1:]]
    assert errors[0] > errors[1] > errors[2]


def test_sweep_radii_specs(capsys):
    assert run(["sweep", "--radii", "5,3,3,9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "5", "9"]

    assert run(["sweep", "--radii", "2:8:3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "5", "8"]


def test_sweep_flagged_target_cell(capsys):
    assert run(["sweep", "--radii", "2", "--source", "param-floor"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split(",")[4] == "pi (no closed form)"


def test_sweep_bad_radii_spec(capsys):
    assert run(["sweep", "--radii", "log:10"]) == 1
    assert run(["sweep", "--radii", "0,3"]) == 1
    assert run(["sweep", "--radii", "9:1:1"]) == 1
    assert run(["sweep", "--radii", "ten"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "bad radii spec 'ten'"


def test_parse_radii_spec():
    assert parse_radii_spec("log:2:300:9") == [2, 4, 7, 13, 24, 46, 86, 160, 300]
    assert parse_radii_spec("log:5:500:1") == [5]
    with pytest.raises(ValueError, match="bad radii spec 'log:0:9:3'"):
        parse_radii_spec("log:0:9:3")


def test_area_lines(capsys):
    assert run(["area", "--radius", "2", "--with-bounds"]) == 0
    assert capsys.readouterr().out == "2,3,1,4,3.0\n"
    assert run(["area", "--radius", "1"]) == 0
    assert capsys.readouterr().out == "1,1,,,4.0\n"


def test_usage_errors_exit_1(capsys):
    assert run(["frobnicate"]) == 1
    assert run(["generate"]) == 1
    assert run(["generate", "--radius", "2", "--format", "png"]) == 1
    assert run([]) == 1


def test_radius_zero_is_an_input_error(capsys):
    assert run(["generate", "--radius", "0"]) == 1
    assert "radius" in capsys.readouterr().err


def test_area_without_bounds_skips_the_cell_counts(monkeypatch, capsys):
    def boom(r):
        raise AssertionError("bounds computed but not printed")

    monkeypatch.setattr("latticircle.area.inner_outer_areas", boom)
    assert run(["area", "--radius", "7"]) == 0
    assert capsys.readouterr().out.startswith("7,")


def test_validate_reads_bom_and_crlf(tmp_path, capsys):
    path = tmp_path / "excel.csv"
    path.write_bytes("\ufeffx,y\r\n0,0\r\n1,0\r\n".encode("utf-8"))
    assert run(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "mode=open points=2 valid=true\n"


def test_python_dash_m_matches_run(capsys):
    env = dict(os.environ)
    src = str(pathlib.Path(latticircle.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "latticircle", *argv],
            capture_output=True, env=env, timeout=60,
        )

    done = module("pi", "--radius", "5")
    assert run(["pi", "--radius", "5"]) == 0
    assert done.returncode == 0
    assert done.stdout == capsys.readouterr().out.encode("utf-8")
    assert module("pi").returncode == 1
