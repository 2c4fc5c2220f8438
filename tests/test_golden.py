"""CLI output stays byte-identical: one sha256 per command family.

Each digest covers the concatenated stdout of one command family over a
range of radii.  The digests were recorded from the trace generator that
called ``cost_exact`` at every step, so they pin the integer walker (and
every view derived from its step array) to that reference byte for byte.
"""

import contextlib
import hashlib
import io

import pytest

from latticircle.cli import _build_parser

QUADRANT_RADII = range(1, 513)
FULL_RADII = range(1, 65)

# family name -> (radii, arguments after ``--radius r``)
FAMILIES = {
    "generate": (QUADRANT_RADII, []),
    "pi": (QUADRANT_RADII, ["--estimator", "arithmetic"]),
    "pi harmonic": (QUADRANT_RADII, ["--estimator", "harmonic"]),
    "area": (QUADRANT_RADII, ["--with-bounds"]),
    "generate full csv": (FULL_RADII, ["--extent", "full"]),
    "generate full svg": (
        FULL_RADII, ["--extent", "full", "--format", "svg", "--overlay-circle"]
    ),
}

GOLDEN = {
    "generate": "a8cc2126205cf07b1c0766893858d60074f105579504fe7b5e618ca05ceac1a7",
    "pi": "0c90fb746ef0a00d0c699a20fb5bf32794bc4f10eb96516e9208630f68425432",
    "pi harmonic": "eb930bb1fa5ca86610b9ab8c950f5eff5bc323d142dec6fccae2199d13dbca44",
    "area": "4767b0f5ac09744822ccb4bae6067ee61a1d74f5d377371c47d4db53f5ff4cb0",
    "generate full csv": "6356956fca3e83aefb84427259c99d66204d1471d7aff134b3cff68d7f8d6cba",
    "generate full svg": "20cac0ced99d8761fb80333466a109e8dd288319e0a0fd5e644cb13a5ffcf045",
}


def family_digest(family: str) -> str:
    radii, flags = FAMILIES[family]
    command = family.split()[0]
    # one parser for the whole family: building it costs more than a small run
    parser = _build_parser()
    h = hashlib.sha256()
    for r in radii:
        args = parser.parse_args([command, "--radius", str(r), *flags])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert args.func(args) == 0
        h.update(out.getvalue().encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cli_output_matches_golden_digest(family):
    assert family_digest(family) == GOLDEN[family]
