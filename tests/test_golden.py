"""CLI output stays byte-identical: one sha256 per command family.

Each digest covers the concatenated stdout of one command family over a
range of radii.  The digests of the first six families were recorded from
the trace generator that called ``cost_exact`` at every step, so they pin
the integer walker (and every view derived from its step array) to that
reference byte for byte.  The others (``area`` without bounds, ``pi`` on
the angle-sampled sources, ``sweep`` for every estimator and source) were
recorded from the separate ``pi`` and ``sweep`` code paths before they
were merged into ``estimators.estimate``.  The two ``sweep ... signum
<cost>`` families were recorded from ``cost_simplified`` and ``cost_approx``
as they stood before their bodies were trimmed.  The last three full-circle
CSV families were recorded from the writer that zipped the point tuples of
``assemble_full_circle``, before it was replaced by shared per-quarter
strings.  The quadrant SVG families, the large full-circle SVG family and
the library SVG digest were recorded from the renderer that mapped each
coordinate through a per-point function call, before it inlined them.
"""

import contextlib
import hashlib
import io

import pytest

from latticircle.cli import run
from latticircle.reference import midpoint_quadrant
from latticircle.svg import render_path_svg

QUADRANT_RADII = range(1, 513)
FULL_RADII = range(1, 65)
# far past FULL_RADII; 255, 256 and 4097 sit at powers of two
LARGE_FULL_RADII = (255, 256, 1000, 4097)
# param-floor rightly fails at r = 1: its snapped sample (0, 0) has a = 0
PARAM_RADII = range(2, 257)
SOURCES = ("signum", "param-exact", "param-floor", "param-round")


def per_radius(command, radii, *flags):
    return [[command, "--radius", str(r), *flags] for r in radii]


# family name -> the argument lists whose stdout is hashed, in order
FAMILIES = {
    "generate": per_radius("generate", QUADRANT_RADII),
    "pi": per_radius("pi", QUADRANT_RADII, "--estimator", "arithmetic"),
    "pi harmonic": per_radius("pi", QUADRANT_RADII, "--estimator", "harmonic"),
    "area": per_radius("area", QUADRANT_RADII, "--with-bounds"),
    "generate full csv": per_radius("generate", FULL_RADII, "--extent", "full"),
    "generate full svg": per_radius(
        "generate", FULL_RADII, "--extent", "full", "--format", "svg", "--overlay-circle"
    ),
    "area without bounds": per_radius("area", QUADRANT_RADII),
    **{
        f"pi {source}": per_radius("pi", PARAM_RADII, "--source", source)
        for source in SOURCES[1:]
    },
    **{
        f"sweep {estimator} {source}": [[
            "sweep", "--radii", "2:256:1", "--estimator", estimator, "--source", source,
        ]]
        for estimator in ("arithmetic", "harmonic")
        for source in SOURCES
    },
    # the other two cost variants, which run the same hull walk (approx needs r >= 5)
    "sweep harmonic signum simplified": [[
        "sweep", "--radii", "5:256:1", "--estimator", "harmonic", "--cost", "simplified",
    ]],
    "sweep arithmetic signum approx": [[
        "sweep", "--radii", "5:256:1", "--estimator", "arithmetic", "--cost", "approx",
    ]],
    "generate full csv large": per_radius("generate", LARGE_FULL_RADII, "--extent", "full"),
    **{
        f"generate full csv {cost}": per_radius(
            "generate", range(5, 65), "--extent", "full", "--cost", cost
        )
        for cost in ("simplified", "approx")
    },
    "generate svg": per_radius("generate", FULL_RADII, "--format", "svg"),
    "generate svg overlay": per_radius(
        "generate", FULL_RADII, "--format", "svg", "--overlay-circle"
    ),
    "generate full svg large": per_radius(
        "generate", LARGE_FULL_RADII, "--extent", "full", "--format", "svg", "--overlay-circle"
    ),
}

GOLDEN = {
    "generate": "a8cc2126205cf07b1c0766893858d60074f105579504fe7b5e618ca05ceac1a7",
    "pi": "0c90fb746ef0a00d0c699a20fb5bf32794bc4f10eb96516e9208630f68425432",
    "pi harmonic": "eb930bb1fa5ca86610b9ab8c950f5eff5bc323d142dec6fccae2199d13dbca44",
    "area": "4767b0f5ac09744822ccb4bae6067ee61a1d74f5d377371c47d4db53f5ff4cb0",
    "generate full csv": "6356956fca3e83aefb84427259c99d66204d1471d7aff134b3cff68d7f8d6cba",
    "generate full svg": "20cac0ced99d8761fb80333466a109e8dd288319e0a0fd5e644cb13a5ffcf045",
    "area without bounds": "5d779365b609bfae0c1d043125ba60dbcc8010e88a19c90a447cf026ec2fe82e",
    "pi param-exact": "25a5b8b38f2f617e93f35724b08ee03dab14d805ad113f88314ba9bfd58ac60c",
    "pi param-floor": "c335bd962d30ac2a3b76290f03bc3c15bd3f86dc853d8d6be5f4a0ce229f81ea",
    "pi param-round": "5d842f4da5f0799dbc06ef0178530c3bfdc98b794836a0d93fbcf02134196bb2",
    "sweep arithmetic signum": "eb567bd53863c491f151e6140b06dace65ee1714a446ec3745a13a6d8fb2f887",
    "sweep arithmetic param-exact": "a90c05bce78e396ee4bf1c21fb8029a75ed1bb74e41b128e17b9a412c5801feb",
    "sweep arithmetic param-floor": "c24d055e21a109a6675e8af7ec8d2df4ceb89b775dd6e7df1a842f7c52555e68",
    "sweep arithmetic param-round": "ed81d228ba14a973504bd0a400466556cc528a6766c95d0c35c2a3ec1c62c9a5",
    "sweep harmonic signum": "b0f58544630a34c2cc9a31fb5a62ca72010d1f22ed2ec8391de98c6fc502baf9",
    "sweep harmonic param-exact": "9405f9442dece8164e2e92aec29ea925d0044c2ac720eaf2555042b0991bf3a7",
    "sweep harmonic param-floor": "6c74c9e1bc40a4f8e5ec8f342431907c033717a34db39e7cacc372b8776d5ec4",
    "sweep harmonic param-round": "8ceb307d4e6ba26fe0934a20396e16724f6b67459b6efcb8b12d1ae1d6f2d07f",
    "sweep harmonic signum simplified": "d7cd46f6aa4d12ef44df3c28290cd4b6ce6b02b49f079c061f8f0f01d3c39967",
    "sweep arithmetic signum approx": "1b9ef10e0f006c4f38d70b5db21cc2a4b4f02be6b2df1c28f7ff9ef8a0efc56f",
    "generate full csv large": "da4f75c0b43917ebc4794f6410755d85a229465c8545188b46025b58bb70f538",
    # both variants decide every step as cost_exact does at these radii
    "generate full csv simplified": "c888047dc550ee981321cc3593b4798095d24be4660f5c14349eeb6d7017bcaf",
    "generate full csv approx": "c888047dc550ee981321cc3593b4798095d24be4660f5c14349eeb6d7017bcaf",
    "generate svg": "f253a9cb9f72b80050dfe8ef48ce72d38e86d8123177d32e05c83e8c134b7ac7",
    "generate svg overlay": "98f70f49641499e799b395ab91e46245912137026fe46614ec3495cbebb3d275",
    "generate full svg large": "257e121adf302bd771196955e09f298d1766b35807696a25a701e8becd878762",
}


def family_digest(family: str) -> str:
    h = hashlib.sha256()
    for argv in FAMILIES[family]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        h.update(out.getvalue().encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cli_output_matches_golden_digest(family):
    assert family_digest(family) == GOLDEN[family]


# render_path_svg on the textbook midpoint quadrant, unsorted with its seam
# points repeated (an input the CLI never passes), open and closed
MIDPOINT_SVG_GOLDEN = "7fa9411ffb1ce47f353f1b155a16ccac0f1ebc8a238048362851b2db522366f0"


def test_render_path_svg_keeps_its_bytes_on_the_midpoint_quadrant():
    h = hashlib.sha256()
    for r in FULL_RADII:
        points = midpoint_quadrant(r)
        h.update(render_path_svg(points, r).encode("utf-8"))
        h.update(render_path_svg(points, r, closed=True, overlay_circle=True).encode("utf-8"))
    assert h.hexdigest() == MIDPOINT_SVG_GOLDEN
