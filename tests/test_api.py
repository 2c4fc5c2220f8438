"""The library's result records and how its entry points read a radius."""

import sys

import pytest

from latticircle.area import area_report, inner_outer_areas
from latticircle.estimators import Estimator, estimate, pi_sequence, sweep, sweep_target
from latticircle.lattice import PointColumns, check_path
from latticircle.reference import (
    DiscretizationSource,
    a_param_floor,
    midpoint_quadrant,
    param_exact_samples,
    param_floor_samples,
    param_round_samples,
)
from latticircle.signum import CostVariant, QuadrantTrace, assemble_full_circle, generate_quadrant
from latticircle.svg import render_path_svg

SIGNUM = DiscretizationSource.SIGNUM
PARAM_EXACT = DiscretizationSource.PARAM_EXACT
EXACT = CostVariant.EXACT
ARITHMETIC = Estimator.ARITHMETIC


@pytest.mark.parametrize(
    "record, fields",
    [
        (check_path([(0, 0), (1, 0)]), ("is_valid", "is_closed_valid", "violations", "note")),
        (assemble_full_circle(generate_quadrant(1)), ("radius", "points")),
        (pi_sequence(2, SIGNUM), ("radius", "source", "l1_values")),
        (
            estimate(3, Estimator.HARMONIC, SIGNUM),
            ("radius", "estimator", "source", "value", "target", "abs_error", "target_note"),
        ),
        (area_report(2), ("radius", "area", "inner", "outer", "ratio")),
    ],
    ids=["PathValidityReport", "CirclePath", "PiSequence", "ConvergenceRecord", "AreaReport"],
)
def test_records_are_immutable_tuples(record, fields):
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    assert [*record] == [getattr(record, name) for name in fields]


RADIUS_READERS = {
    "generate_quadrant": generate_quadrant,
    "pi_sequence": lambda r: pi_sequence(r, DiscretizationSource.PARAM_EXACT),
    "estimate": lambda r: estimate(r, Estimator.ARITHMETIC, SIGNUM),
    "sweep": lambda r: sweep([r], Estimator.ARITHMETIC, SIGNUM)[0],
    "area_report": area_report,
    "inner_outer_areas": inner_outer_areas,
    "midpoint_quadrant": midpoint_quadrant,
    "a_param_floor": lambda r: a_param_floor(r, 0),
    "param_exact_samples": param_exact_samples,
    "param_floor_samples": param_floor_samples,
    "param_round_samples": param_round_samples,
    "render_path_svg": lambda r: render_path_svg(
        PointColumns((1, 0), (0, 1)), r, overlay_circle=True
    ),
}


def has_no_bools(value):
    if isinstance(value, (tuple, list)):
        return all(map(has_no_bools, value))
    return type(value) is not bool


@pytest.mark.parametrize("name", RADIUS_READERS)
def test_radius_is_read_as_an_index(name):
    call = RADIUS_READERS[name]
    got, want = call(True), call(1)
    if hasattr(got, "radius"):
        assert type(got.radius) is int
    if isinstance(got, QuadrantTrace):
        got, want = (got.steps, got.xs, got.ys), (want.steps, want.xs, want.ys)
    assert got == want
    assert has_no_bools(got)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(2.0)
    with pytest.raises(ValueError, match="radius must be >= 1"):
        call(0)
    # 2r steps or samples past sys.maxsize cannot be indexed: refused before any work
    want = f"^{2 * 2**62} samples exceed the largest index {sys.maxsize}$"
    with pytest.raises(OverflowError, match=want):
        call(2**62)


# name -> (call with one selector, the member passed in its place); r = 3 is
# below approx's domain, so "exact" read as another variant would fail
SELECTOR_READERS = {
    "generate_quadrant": (lambda v: generate_quadrant(3, v), EXACT),
    "area_report": (lambda v: area_report(3, v), EXACT),
    "pi_sequence source": (lambda s: pi_sequence(3, s), PARAM_EXACT),
    "pi_sequence variant": (lambda v: pi_sequence(3, SIGNUM, v), EXACT),
    "estimate estimator": (lambda e: estimate(3, e, SIGNUM), ARITHMETIC),
    "estimate source": (lambda s: estimate(3, ARITHMETIC, s), PARAM_EXACT),
    "estimate variant": (lambda v: estimate(3, ARITHMETIC, SIGNUM, v), EXACT),
    "sweep estimator": (lambda e: sweep([3], e, SIGNUM), ARITHMETIC),
    "sweep source": (lambda s: sweep([3], ARITHMETIC, s), PARAM_EXACT),
    "sweep variant": (lambda v: sweep([3], ARITHMETIC, SIGNUM, v), EXACT),
    "sweep_target estimator": (lambda e: sweep_target(e, PARAM_EXACT), ARITHMETIC),
    "sweep_target source": (lambda s: sweep_target(ARITHMETIC, s), PARAM_EXACT),
}


@pytest.mark.parametrize("name", SELECTOR_READERS)
def test_selector_is_read_by_its_enum(name):
    call, member = SELECTOR_READERS[name]
    got, want = call(member.value), call(member)
    if isinstance(got, QuadrantTrace):
        got, want = (got.variant, got.steps), (want.variant, want.steps)
    assert got == want
    with pytest.raises(ValueError, match="'bogus' is not a valid"):
        call("bogus")
