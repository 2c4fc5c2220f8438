import math
from itertools import compress, repeat
from operator import gt

import pytest

from conftest import cached_trace
from latticircle.area import (
    area_recursive,
    area_report,
    check_sum_identity,
    inner_outer_areas,
)
from latticircle.signum import generate_quadrant


def brute_inner_outer(r):
    """Independent oracle: test every cell corner in the r x r block."""
    inner = sum(
        1
        for i in range(r)
        for j in range(r)
        if (i + 1) ** 2 + (j + 1) ** 2 <= r * r
    )
    outer = sum(1 for i in range(r) for j in range(r) if i * i + j * j < r * r)
    return inner, outer


def test_area_small_radii():
    assert [area_recursive(cached_trace(r)) for r in range(1, 11)] == [
        1, 3, 8, 13, 20, 28, 39, 52, 64, 79,
    ]


def area_by_columns(trace):
    """The first definition: x summed over the up steps n <= 2r - 2."""
    ups = map(gt, trace.steps[:-1], repeat(0))
    return sum(compress(trace.xs[:-1], ups))


def test_area_from_l1_sum_matches_column_sum():
    for r in range(1, 2001):
        trace = generate_quadrant(r)
        assert area_recursive(trace) == area_by_columns(trace), r


def test_inner_outer_small_radii():
    assert inner_outer_areas(1) == (0, 1)
    assert inner_outer_areas(2) == (1, 4)
    assert inner_outer_areas(3) == (4, 9)
    assert inner_outer_areas(10) == (69, 86)


@pytest.mark.parametrize("r", list(range(1, 61)))
def test_inner_outer_match_brute_force(r):
    assert inner_outer_areas(r) == brute_inner_outer(r)


def test_inner_outer_rejects_bad_radius():
    with pytest.raises(ValueError):
        inner_outer_areas(0)


@pytest.mark.parametrize("r", list(range(1, 81)))
def test_sum_identity(r):
    assert check_sum_identity(cached_trace(r))


@pytest.mark.parametrize("r", list(range(1, 129)))
def test_area_is_bracketed_by_cell_counts(r):
    area = area_recursive(cached_trace(r))
    inner, outer = inner_outer_areas(r)
    assert inner <= area <= outer


@pytest.mark.parametrize("r", [4, 16, 64, 256])
def test_cell_counts_bracket_the_disc(r):
    inner, outer = inner_outer_areas(r)
    quarter_disc = math.pi * r * r / 4
    assert inner < quarter_disc < outer


def test_area_report_fields():
    rep = area_report(2)
    assert (rep.radius, rep.area, rep.inner, rep.outer) == (2, 3, 1, 4)
    assert rep.ratio == pytest.approx(3.0, abs=0)


def test_ratio_approaches_pi():
    errors = [abs(area_report(r).ratio - math.pi) for r in (10, 100, 1000)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.02
