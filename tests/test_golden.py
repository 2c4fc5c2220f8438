"""CLI output stays byte-identical: one sha256 per command family.

Each digest covers the concatenated stdout of one command family over a
range of radii.  The digests of the first six families were recorded from
the trace generator that called ``cost_exact`` at every step, so they pin
the integer walker (and every view derived from its step array) to that
reference byte for byte.  The others (``area`` without bounds, ``pi`` on
the angle-sampled sources, ``sweep`` for every estimator and source) were
recorded from the separate ``pi`` and ``sweep`` code paths before they
were merged into ``estimators.estimate``.
"""

import contextlib
import hashlib
import io

import pytest

from latticircle.cli import _build_parser

QUADRANT_RADII = range(1, 513)
FULL_RADII = range(1, 65)
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
}


def family_digest(family: str) -> str:
    # one parser for the whole family: building it costs more than a small run
    parser = _build_parser()
    h = hashlib.sha256()
    for argv in FAMILIES[family]:
        args = parser.parse_args(argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert args.func(args) == 0
        h.update(out.getvalue().encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cli_output_matches_golden_digest(family):
    assert family_digest(family) == GOLDEN[family]
