"""The library's result records and how its entry points read a radius."""

import pytest

from latticircle.area import area_report, inner_outer_areas
from latticircle.estimators import Estimator, estimate, pi_sequence, sweep
from latticircle.lattice import check_path
from latticircle.reference import (
    DiscretizationSource,
    a_param_floor,
    midpoint_quadrant,
    param_exact_samples,
    param_floor_samples,
    param_round_samples,
)
from latticircle.signum import QuadrantTrace, assemble_full_circle, generate_quadrant

SIGNUM = DiscretizationSource.SIGNUM


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
