import gc
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from itertools import chain, repeat
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import latticircle
from latticircle import cli
from latticircle.cli import format_real, parse_radii_spec, run
from latticircle.estimators import estimate
from latticircle.lattice import Point, PointColumns
from latticircle.reference import midpoint_quadrant, param_exact_samples, param_floor_samples
from latticircle.signum import CostVariant, assemble_full_circle, generate_quadrant
from latticircle.svg import render_path_svg

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


def point_rows_csv(trace, points):
    """The writer that zipped assembled point tuples, kept as the reference."""
    columns = (trace.steps, trace.l1_dists, trace.sign_sums)
    rows = zip(points, *(chain.from_iterable(repeat(col)) for col in columns))
    lines = ["n,x,y,s,a,S"]
    lines.extend(f"{n},{x},{y},{s},{a},{S}" for n, ((x, y), s, a, S) in enumerate(rows))
    return "\n".join(lines) + "\n"


CSV_RADII = sorted({*range(1, 301), *(2**k + d for k in range(1, 14) for d in (-1, 1))})


@pytest.mark.parametrize("variant", list(CostVariant))
def test_csv_writers_match_the_point_tuple_writer(variant):
    # approx is admissible from r = 5
    for r in CSV_RADII if variant is not CostVariant.APPROX else CSV_RADII[4:]:
        trace = generate_quadrant(r, variant)
        assert cli._trace_csv(trace) == point_rows_csv(trace, trace.points)
        full = assemble_full_circle(trace).points
        assert cli._full_circle_csv(trace) == point_rows_csv(trace, zip(full.xs, full.ys))


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


def test_render_path_svg_reads_columns_and_pairs_alike():
    for r in range(1, 65):
        trace = generate_quadrant(r)
        full = assemble_full_circle(trace).points
        midpoint = midpoint_quadrant(r)  # unsorted, with its seam repeated
        for columns, pairs in (
            (PointColumns(trace.xs, trace.ys), trace.points),
            (full, list(zip(full.xs, full.ys))),
            (PointColumns(*zip(*midpoint)), midpoint),
        ):
            for closed, overlay in ((False, False), (False, True), (True, False), (True, True)):
                text = render_path_svg(columns, r, closed, overlay)
                assert render_path_svg(pairs, r, closed, overlay) == text, r
                assert render_path_svg(iter(pairs), r, closed, overlay) == text, r


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
    capsys.readouterr()
    # quoted cells are not unquoted: the row is malformed like any other
    path.write_text('x,y\n"1","0"\n')
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:2: malformed row '\"1\",\"0\"'\n"


def test_validate_strips_header_cells(tmp_path, capsys):
    path = tmp_path / "spaced.csv"
    path.write_text("n , x, y\n0,0,0\n1,1,0\n")
    assert run(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "mode=open points=2 valid=true\n"


def test_validate_names_the_physical_line(tmp_path, capsys):
    path = tmp_path / "gaps.csv"
    path.write_text("x,y\n\n\n0,0\n1,zz\n")
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:5: malformed row '1,zz'\n"


def test_validate_names_a_bad_line_past_the_first_chunk(tmp_path, capsys):
    # about 1.3 MB of rows, so line numbers must hold across many read buffers
    rows = [f"{i},0,{'p' * 100}" for i in range(12_000)]
    rows.insert(500, "")
    good, rows[11_001] = rows[11_001], "11000,zz,pad"
    path = tmp_path / "long.csv"
    path.write_text("x,y,pad\n" + "\n".join(rows) + "\n")
    assert path.stat().st_size > 1 << 20
    assert run(["validate", str(path)]) == 1
    # the header is line 1, so rows[k] is line k + 2
    assert capsys.readouterr().err == f"{path}:11003: malformed row '11000,zz,pad'\n"
    rows[11_001] = good
    path.write_text("x,y,pad\n" + "\n".join(rows) + "\n")
    assert run(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "mode=open points=12000 valid=true\n"


def test_validate_error_exit_codes(tmp_path, capsys):
    assert run(["validate", str(tmp_path)]) == 1
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y\n0,\xe90\n")
    assert run(["validate", str(path)]) == 1
    path = tmp_path / "blank.csv"
    path.write_text("\n\n\n")
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().err.endswith(f"{path}: empty file\n")
    path = tmp_path / "no_newline.csv"
    path.write_text("x,y\n0,0\n1,0")
    assert run(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "mode=open points=2 valid=true\n"


def test_validate_names_duplicates_in_a_shuffled_circle(tmp_path, capsys):
    # like the benchmark's corrupted copy: each copy lands after its original
    r = 300
    path = tmp_path / "circle.csv"
    assert run(["generate", "--radius", str(r), "--extent", "full", "--out", str(path)]) == 0
    header, *rows = path.read_text().splitlines()
    rng = random.Random(300)
    rng.shuffle(rows)
    injected = []
    for i in sorted(rng.sample(range(len(rows)), 5), reverse=True):
        slot = rng.randrange(i + 1, len(rows) + 1)
        injected = [j + (j >= slot) for j in injected] + [slot]
        rows.insert(slot, rows[i])
    path.write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert run(["validate", str(path), "--mode", "closed"]) == 2
    want = f"mode=closed points={8 * r + 5} valid=false\n"
    want += "".join(f"index={i} neighbors=2\n" for i in sorted(injected))
    assert capsys.readouterr().out == want


@pytest.mark.slow
def test_validate_round_trip_at_r_20000(tmp_path, capsys):
    r = 20_000
    path = tmp_path / "circle.csv"
    assert run(["generate", "--radius", str(r), "--extent", "full", "--out", str(path)]) == 0
    header, *rows = path.read_text().splitlines()
    random.Random(20_000).shuffle(rows)
    path.write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert run(["validate", str(path), "--mode", "closed"]) == 0
    assert capsys.readouterr().out == f"mode=closed points={8 * r} valid=true\n"

    # copies of rows 10, 5000 and the last row, each placed after its original
    rows.insert(40_000, rows[10])
    rows.insert(90_000, rows[5000])
    rows.append(rows[-1])
    path.write_text("\n".join([header, *rows]) + "\n")
    assert run(["validate", str(path), "--mode", "closed"]) == 2
    want = f"mode=closed points={8 * r + 3} valid=false\n"
    want += "".join(f"index={i} neighbors=2\n" for i in (40_000, 90_000, 8 * r + 2))
    assert capsys.readouterr().out == want


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
    # exp of the last log: radius passes the float range
    assert run(["sweep", "--radii", f"log:1:{10**309}:3"]) == 1
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


# The per-line parser that the block parser replaced, kept verbatim as its oracle.
def per_line_read_points_csv(path: str) -> list[Point]:
    """The (x, y) points of a CSV, read one line at a time so that only the
    points are held.  Blank lines are skipped, header cells may carry
    whitespace, and a bad row is named by its line number in the file."""
    # utf-8-sig drops a leading byte-order mark; text mode turns CRLF into LF
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = enumerate(fh, 1)
        for _, header in lines:
            if header != "\n":
                break
        else:
            raise ValueError(f"{path}: empty file")
        cells = [cell.strip() for cell in header.split(",")]
        try:
            pick = itemgetter(cells.index("x"), cells.index("y"))
        except ValueError:
            raise ValueError(f"{path}: header must name x and y columns")
        points: list[Point] = []
        # a decoding error comes from the iteration, outside the row's try
        for lineno, line in lines:
            if line == "\n":
                continue
            try:
                x, y = pick(line.split(","))
                points.append((int(x), int(y)))
            except (IndexError, ValueError):
                row = line.rstrip("\n")
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}")
    return points


def padded(cell):
    return st.sampled_from(["{}", " {}", "{} ", " {} "]).map(lambda f: f.format(cell))


@st.composite
def points_csv(draw):
    """CSV text with the x and y columns among up to four, blank lines, LF
    and CRLF, space-padded cells, coordinates past 2**63, extra cells, and
    perhaps one malformed row or a missing trailing newline."""
    width = draw(st.integers(2, 4))
    ix, iy = draw(st.permutations(range(width)))[:2]
    names = ["n"] * width
    names[ix], names[iy] = "x", "y"
    lines = [",".join(draw(padded(name)) for name in names)]
    coord = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        cells = ["0"] * width
        cells[ix], cells[iy] = draw(padded(draw(coord))), draw(padded(draw(coord)))
        cells += ["pad"] * draw(st.integers(0, 2))
        lines.append(",".join(cells))
    if draw(st.booleans()):
        bad = draw(st.sampled_from(["1,zz", "7", " ", "1.5,2", ",", '"1","0"', "1,,2,3", "x,y"]))
        lines.insert(draw(st.integers(1, len(lines))), bad)
    lines[:0] = [""] * draw(st.integers(0, 2))
    n = len(lines)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=n, max_size=n))
    text = "".join(map("".join, zip(lines, ends)))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def outcome(read, path):
    try:
        points = read(path)
    except ValueError as exc:
        return str(exc)
    return list(zip(points.xs, points.ys)) if isinstance(points, PointColumns) else points


@settings(max_examples=200)
@given(points_csv(), st.integers(1, 48))
def test_block_parse_matches_the_per_line_parse(tmp_path_factory, text, block):
    path = tmp_path_factory.getbasetemp() / "points.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        # blocks of a few dozen characters, so blocks split mid-file
        mp.setattr(cli, "_BLOCK", block)
        got = outcome(cli._read_points_csv, str(path))
    assert got == outcome(per_line_read_points_csv, str(path))


def module_env():
    """The environment with this checkout's package first on the path."""
    env = dict(os.environ)
    src = str(pathlib.Path(latticircle.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(*argv, code=None, preexec_fn=None):
    """``python -m latticircle ARGV`` (or ``python -c CODE``) in a fresh process."""
    command = ["-c", code] if code else ["-m", "latticircle", *argv]
    return subprocess.run(
        [sys.executable, *command],
        capture_output=True,
        env=module_env(),
        timeout=60,
        preexec_fn=preexec_fn,
    )


def test_python_dash_m_matches_run(capsys):
    done = run_module("pi", "--radius", "5")
    assert run(["pi", "--radius", "5"]) == 0
    assert done.returncode == 0
    assert done.stdout == capsys.readouterr().out.encode("utf-8")
    assert run_module("pi").returncode == 1


def test_a_reader_that_leaves_early_ends_the_command_quietly():
    # `latticircle generate | head -c 100` with stdout buffered, as it is
    # unless PYTHONUNBUFFERED is set: exit 0, and nothing on stderr
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "latticircle"]
    # 200 000 rows: the reader leaves while the CSV is being written
    with subprocess.Popen(
        [*command, "generate", "--radius", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as child:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        assert (child.wait(timeout=60), child.stderr.read()) == (0, b"")
    # one line, still in stdout's buffer when the command returns: the
    # pipe's read end is closed before the command starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [*command, "pi", "--radius", "10"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_one_parser_serves_every_run(capsys):
    calls = (
        ["area", "--radius", "7", "--with-bounds"],
        ["pi", "--radius", "7", "--estimator", "harmonic"],
        ["generate", "--radius", "3"],
    )
    in_process = []
    for argv in calls:
        assert run(argv) == 0
        in_process.append(capsys.readouterr().out.encode("utf-8"))
    assert in_process == [run_module(*argv).stdout for argv in calls]
    assert cli._build_parser() is cli._build_parser()


# Each command imports only the modules it runs, counted in a fresh interpreter.

CLI_MODULES = {"latticircle", "latticircle.cli", "latticircle.choices"}


def test_cli_import_loads_no_exact_arithmetic_or_code_generation():
    # only the modules the import adds count, whatever the host's site preloads;
    # of the package it adds the selectors and nothing a command runs
    code = (
        "import sys; before = set(sys.modules); import latticircle.cli; "
        "added = set(sys.modules) - before; "
        "print(sorted({'fractions', 'decimal', 'dataclasses', 'inspect'} & added)); "
        "print(sorted(name for name in added if name.startswith('latticircle')))"
    )
    done = run_module(code=code)
    assert (done.returncode, done.stdout.decode().splitlines()) == (
        0, ["[]", str(sorted(CLI_MODULES))])


def modules_loaded_by(*argv):
    """The package's modules that ``run(argv)`` adds to a fresh interpreter."""
    code = (
        "import contextlib, io, json, sys; before = set(sys.modules)\n"
        "from latticircle.cli import run\n"
        f"with contextlib.redirect_stdout(io.StringIO()): code = run({list(argv)!r})\n"
        "added = [name for name in set(sys.modules) - before if name.startswith('latticircle')]\n"
        "print(json.dumps([code, added]))"
    )
    done = run_module(code=code)
    assert done.returncode == 0, done.stderr
    code, added = json.loads(done.stdout)
    assert code == 0
    return set(added)


@pytest.mark.parametrize("command", [[], ["generate"], ["validate"], ["pi"], ["sweep"], ["area"]])
def test_help_loads_only_the_cli_and_the_selectors(command):
    assert modules_loaded_by(*command, "--help") == CLI_MODULES


def test_validate_loads_only_the_path_check(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
    assert modules_loaded_by("validate", str(path), "--mode", "closed") == CLI_MODULES | {
        "latticircle.lattice"}


def test_each_command_leaves_out_the_modules_it_does_not_run(tmp_path):
    svg = str(tmp_path / "c.svg")
    assert modules_loaded_by("generate", "--radius", "3") == CLI_MODULES | {
        "latticircle.lattice", "latticircle.signum"}
    assert "latticircle.svg" in modules_loaded_by("generate", "--radius", "3", "--format", "svg",
                                                  "--out", svg)
    assert not {"latticircle.estimators", "latticircle.reference", "latticircle.svg"} & (
        modules_loaded_by("area", "--radius", "9", "--with-bounds"))
    signum_pi = modules_loaded_by("pi", "--radius", "9")
    param_sweep = modules_loaded_by("sweep", "--radii", "5,9", "--source", "param-floor")
    for loaded in (signum_pi, param_sweep):
        assert not {"latticircle.area", "latticircle.svg"} & loaded
    # only an angle-sampled source runs the samplers of `reference`
    assert "latticircle.reference" not in signum_pi
    assert "latticircle.reference" in param_sweep


def test_every_traced_cli_name_resolves_before_any_command():
    # perfbench/traced.py wraps these names with getattr before the command runs
    from test_perfbench_bindings import load_traced

    traced = load_traced()
    names = sorted({attr for module, attr, _ in traced.BINDINGS if module is traced.cli})
    code = (
        "import latticircle.cli as cli\n"
        f"names = {names!r}\n"
        "unbound = [n for n in names if n not in vars(cli)]\n"
        "print(all(callable(getattr(cli, n)) for n in names), unbound)"
    )
    done = run_module(code=code)
    assert done.returncode == 0, done.stderr
    lazy = [name for names in cli._NAMES.values() for name in names]
    assert done.stdout.decode() == f"True {sorted(set(names) & set(lazy))!r}\n"
    assert {"generate_quadrant", "check_path", "render_path_svg", "sweep"} <= set(lazy)


def test_a_wrapper_set_before_run_is_the_function_the_command_calls(tmp_path):
    # set on `cli` before the command binds its modules, as the tracer does
    path = tmp_path / "square.csv"
    path.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
    commands = {
        "generate_quadrant": ("signum", ["generate", "--radius", "3"]),
        "render_path_svg": ("svg", ["generate", "--radius", "3", "--format", "svg"]),
        "check_path": ("lattice", ["validate", str(path)]),
        "estimate": ("estimators", ["pi", "--radius", "3"]),
        "sweep": ("estimators", ["sweep", "--radii", "3,4"]),
        "area_report": ("area", ["area", "--radius", "3"]),
    }
    code = (
        "import contextlib, importlib, io\n"
        "import latticircle.cli as cli\n"
        "called = []\n"
        f"for name, (module, argv) in {commands!r}.items():\n"
        "    calls = []\n"
        "    real = getattr(importlib.import_module('latticircle.' + module), name)\n"
        "    def wrapper(*args, real=real, calls=calls, **kwargs):\n"
        "        calls.append(args)\n"
        "        return real(*args, **kwargs)\n"
        "    setattr(cli, name, wrapper)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.run(argv) == 0\n"
        "    if calls and getattr(cli, name) is wrapper:\n"
        "        called.append(name)\n"
        "print(called)"
    )
    done = run_module(code=code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode() == f"{list(commands)!r}\n"


# Every error path of `run`, pinned by exit code and stderr.


def test_usage_error_is_one_line_naming_the_option(capsys):
    for argv in (["generate"], ["generate", "--radius", "x"]):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("latticircle generate: ")
        assert "--radius" in line


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert run(["generate", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: latticircle")


# sha256 of `--help` on stdout at 80 columns, as the parser printed it when the
# selectors were defined beside the code they select; argparse's layout
# differs between Python versions, and these were taken on 3.11
HELP_SHA256 = {
    "": "a8f6809d3a834a5c169b3aa41e36292f6337a5ac354041f8d028b448ce2e20c7",
    "generate": "2cbf4e6019712fc2a9d980781cbe044b8d5b942e88a9093517b4ce0654a7291b",
    "validate": "c6363d105b8982353d2bb898e1c9231adc4e51d915f5a27f715f433bd17b8ad1",
    "pi": "e9fd1e2bb737412b04be5e4218b24fb86f5a2d26e93cfe439b0d0d63ea737571",
    "sweep": "d85f96d26373e13df732a38f9b67f1905f40bf55118e626453acd1715167c6a3",
    "area": "0a8d80fed52fb66f07cdee7d001d7b973816d476f424949463f346452f3a1c8f",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests taken on Python 3.11")
@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_text_is_pinned(command):
    argv = [sys.executable, "-m", "latticircle", *filter(None, [command]), "--help"]
    done = subprocess.run(argv, capture_output=True, env={**module_env(), "COLUMNS": "80"},
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == HELP_SHA256[command]


def test_missing_paths_are_input_errors(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run(["generate", "--radius", "3", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"[Errno 2] No such file or directory: {str(out)!r}\n")
    path = tmp_path / "missing.csv"
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"[Errno 2] No such file or directory: {str(path)!r}\n")


def test_undecodable_byte_is_reported_by_the_codec(tmp_path, capsys):
    # the bad byte sits past the decoder's first buffers, in a valid row
    rows = "".join(f"{i},0\n" for i in range(12_000))
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y\n" + rows.encode() + b"0,\xe90\n")
    assert path.stat().st_size > 64 << 10
    assert run(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "codec can't decode" in err
    assert "malformed row" not in err


@pytest.mark.parametrize("bad_line", [1, 2, 30_002])
def test_undecodable_byte_is_named_by_path_and_line(tmp_path, capsys, bad_line):
    # the last line starts 228 894 bytes in, past three 64 KiB blocks
    lines = ["x,y", *(f"{i},0" for i in range(30_000)), "0,0"]
    lines[bad_line - 1] = "0,\xe90"
    path = tmp_path / "late.csv"
    path.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
    assert run(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    named = re.fullmatch(
        rf"{re.escape(str(path))}: undecodable text at or after line (\d+):"
        r" 'utf-8' codec can't decode byte 0xe9 in position \d+: .*\n",
        err,
    )
    assert named, err
    # the decoder reads ahead, so the named line starts at most one block
    # and one 8 KiB decoder chunk before the bad byte
    n = int(named[1])
    assert n <= bad_line
    assert sum(map(len, lines[n - 1 : bad_line - 1])) + bad_line - n < cli._BLOCK + 8192


# command id -> its argument list without the radius
HUGE_RADIUS_COMMANDS = {
    "generate": ["generate", "--radius"],
    "pi": ["pi", "--radius"],
    **{
        f"pi {source}": ["pi", "--source", source, "--radius"]
        for source in ("param-exact", "param-floor", "param-round")
    },
    "area": ["area", "--radius"],
    "area --with-bounds": ["area", "--with-bounds", "--radius"],
    "sweep": ["sweep", "--radii"],
}


@pytest.mark.parametrize("command", HUGE_RADIUS_COMMANDS)
def test_huge_radius_is_an_arithmetic_failure(command, capsys):
    # read_radius refuses a radius whose 2r steps or samples cannot be
    # indexed, before any work
    for r in (2**62, 10**30):
        radius = f"5,{r}" if command == "sweep" else str(r)
        assert run([*HUGE_RADIUS_COMMANDS[command], radius]) == 3
        assert capsys.readouterr() == (
            "", f"arithmetic failure: {2 * r} samples exceed the largest index {sys.maxsize}\n"
        )


@pytest.mark.skipif(os.name != "posix", reason="reads physical memory with os.sysconf")
@pytest.mark.parametrize("command", ["generate", "pi", "area", "area --with-bounds", "sweep"])
def test_radius_past_physical_memory_is_refused_before_the_walk(command, capsys):
    # 2r step bytes past physical memory are refused by require_memory with
    # the need and the limit, instead of a bare MemoryError from the walk's
    # allocation; sweep has run r = 5 by then but writes nothing
    r = 10**13
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    radius = f"5,{r}" if command == "sweep" else str(r)
    assert run([*HUGE_RADIUS_COMMANDS[command], radius]) == 3
    assert capsys.readouterr() == (
        "",
        f"arithmetic failure: {2 * r} steps need {2 * r} bytes for the step array,"
        f" more than the {memory} bytes of physical memory\n",
    )


GENERATE_OUTPUTS = {
    "quadrant CSV": [],
    "full CSV": ["--extent", "full"],
    "quadrant SVG": ["--format", "svg"],
    "full SVG": ["--extent", "full", "--format", "svg"],
}


@pytest.mark.parametrize("output", GENERATE_OUTPUTS)
def test_generate_output_past_physical_memory_is_refused_before_the_walk(
    output, monkeypatch, capsys, tmp_path
):
    # 256 KiB holds the 200 000 step bytes of r = 10^5 but not its output,
    # which is refused with the need and the limit before the walk starts
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 64, "SC_PAGE_SIZE": 4096}.get)

    def walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(cli, "generate_quadrant", walk)
    out = tmp_path / "out"
    argv = ["generate", "--radius", str(10**5), *GENERATE_OUTPUTS[output], "--out", str(out)]
    assert run(argv) == 3
    points, need = (800000, 120000000) if output.startswith("full") else (200000, 50000000)
    assert capsys.readouterr() == (
        "",
        f"arithmetic failure: {points} points need {need} bytes for the {output},"
        " more than the 262144 bytes of physical memory\n",
    )
    assert not out.exists()


@pytest.mark.parametrize("output", GENERATE_OUTPUTS)
def test_generate_output_need_is_a_lower_bound(output, tmp_path):
    # the stated bytes per point stay below what the output really holds,
    # so no radius whose output fits is refused
    extra = GENERATE_OUTPUTS[output]
    r = 10**4
    count = 8 * r if "full" in extra else 2 * r
    run(["generate", "--radius", "5", *extra, "--out", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        assert run(["generate", "--radius", str(r), *extra, "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak > count * cli._POINT_BYTES["full" if "full" in extra else "quadrant"]


def test_memory_error_is_named_when_it_carries_no_message(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr("latticircle.cli.estimate", exhausted)
    assert run(["pi", "--radius", "5"]) == 3
    assert capsys.readouterr() == ("", "arithmetic failure: MemoryError\n")


# one argument list per way out of `run`, with its exit code
RUN_OUTCOMES = {
    "success": (["pi", "--radius", "5"], 0),
    "input error": (["pi", "--radius", "0"], 1),
    "arithmetic failure": (["area", "--radius", str(2**62)], 3),
    "help": (["--help"], 0),
    "usage error": (["pi"], 1),
}


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("outcome", RUN_OUTCOMES)
def test_run_leaves_the_collector_as_it_found_it(outcome, collector, capsys):
    argv, code = RUN_OUTCOMES[outcome]
    frozen = gc.get_freeze_count()
    assert run(argv) == code
    assert gc.isenabled() is collector
    # callers run commands many times in one process: only main freezes
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("outcome", [*RUN_OUTCOMES, "invalid path"])
def test_main_freezes_the_heap_once_after_run_and_exits_with_its_code(
    outcome, monkeypatch, capsys, tmp_path
):
    if outcome == "invalid path":
        path = tmp_path / "gap.csv"
        path.write_text("x,y\n0,0\n2,0\n")
        argv, code = ["validate", str(path), "--mode", "closed"], 2
    else:
        argv, code = RUN_OUTCOMES[outcome]
    assert run(argv) == code
    want = capsys.readouterr()
    events = []

    def spy():
        events.append("run")
        return run()

    monkeypatch.setattr(cli, "run", spy)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["latticircle", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert (events, exited.value.code) == (["run", "freeze"], code)
    assert capsys.readouterr() == want


def test_the_console_script_writes_every_byte_before_it_exits(tmp_path, capsys):
    # main freezes the heap and exits: stdout, buffered as it is unless
    # PYTHONUNBUFFERED is set, must still hold every byte that run writes
    argv = ["generate", "--radius", "25000", "--extent", "full"]
    assert run(argv) == 0
    want = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "latticircle", *argv]
    piped = subprocess.run(command, capture_output=True, env=env, timeout=60)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert hashlib.sha256(piped.stdout).hexdigest() == want
    out = tmp_path / "c.csv"
    written = subprocess.run([*command, "--out", str(out)], capture_output=True, env=env,
                             timeout=60)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_commands_run_with_the_collector_paused(monkeypatch, collector, capsys):
    seen = []

    def spy(*args):
        seen.append(gc.isenabled())
        return estimate(*args)

    monkeypatch.setattr("latticircle.cli.estimate", spy)
    assert run(["pi", "--radius", "5"]) == 0
    assert seen == [False]
    assert gc.isenabled() is collector


HUGE_PARAM_FAILURE = (
    f"arithmetic failure: {2 * 10**30} samples exceed the largest index {sys.maxsize}\n"
)


@pytest.mark.parametrize("source", ["param-exact", "param-floor", "param-round"])
def test_huge_radius_fails_before_sampling(source, capsys):
    # 2r samples past sys.maxsize cannot be indexed; refused before any sampling
    assert run(["pi", "--radius", str(10**30), "--source", source]) == 3
    assert capsys.readouterr() == ("", HUGE_PARAM_FAILURE)
    assert run(["sweep", "--radii", f"5,{10**30}", "--source", source]) == 3
    assert capsys.readouterr() == ("", HUGE_PARAM_FAILURE)


def cap_address_space_at_1_gib():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(os.name != "posix", reason="caps the child with RLIMIT_AS")
@pytest.mark.parametrize("source", ["param-exact", "param-floor", "param-round"])
def test_radius_past_physical_memory_fails_before_sampling(source):
    # the child is capped, so a radius that is sampled instead of refused
    # fails there with a bare MemoryError and leaves the host alone
    r = 10**15
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    want = (
        f"arithmetic failure: {2 * r} samples need {80 * r} bytes for the sample list,"
        f" more than the {memory} bytes of physical memory\n"
    )
    for argv in (
        ["pi", "--radius", str(r), "--source", source],
        ["sweep", "--radii", f"5,{r}", "--source", source],
    ):
        done = run_module(*argv, preexec_fn=cap_address_space_at_1_gib)
        assert (done.returncode, done.stdout, done.stderr.decode()) == (3, b"", want)


@pytest.mark.parametrize("source", ["param-exact", "param-floor", "param-round"])
def test_sample_list_need_counts_the_samples_not_only_their_pointers(
    source, monkeypatch, capsys
):
    # 4 096 000 bytes of physical memory hold the 16r bytes of list pointers
    # at r = 10^5 but not the samples they point to, about 40 bytes each
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}.get)
    assert run(["pi", "--radius", str(10**5), "--source", source]) == 3
    assert capsys.readouterr() == (
        "",
        "arithmetic failure: 200000 samples need 8000000 bytes for the sample list,"
        " more than the 4096000 bytes of physical memory\n",
    )
    assert run(["pi", "--radius", str(5 * 10**4), "--source", source]) == 0
    assert capsys.readouterr().out.startswith(f"50000,arithmetic,{source},")


@pytest.mark.parametrize("source", [param_exact_samples, param_floor_samples])
def test_sample_list_need_is_near_what_the_list_holds(source):
    # the stated 40 B a sample against 32 B held per float sample and 40 B per
    # int sample on Python 3.11 (a little less when freed floats are reused);
    # the 16r bytes of pointers were half of either
    r = 50_000
    source(5)
    tracemalloc.start()
    try:
        samples = source(r)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(samples) == 2 * r
    assert 30 <= held / (2 * r) <= 48
