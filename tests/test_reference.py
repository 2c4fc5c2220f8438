import math
import sys
from array import array
from itertools import repeat

import pytest
from hypothesis import given, strategies as st

from latticircle.lattice import check_path
from latticircle.reference import (
    a_param_exact,
    a_param_floor,
    a_param_round,
    midpoint_quadrant,
    param_exact_samples,
    param_floor_samples,
    param_round_samples,
    phi_n,
)

SAMPLER_RADII = sorted({*range(1, 601), *(2**k + d for k in range(1, 19) for d in (-1, 1))})


def test_phi_samples():
    assert phi_n(1, 0) == 0.0
    assert phi_n(2, 2) == pytest.approx(math.pi / 4, abs=0)
    assert phi_n(10, 19) == pytest.approx(19 * math.pi / 40, abs=0)


def test_phi_rejects_out_of_range():
    with pytest.raises(ValueError):
        phi_n(2, 4)
    with pytest.raises(ValueError):
        phi_n(2, -1)
    with pytest.raises(ValueError):
        phi_n(0, 0)


@pytest.mark.parametrize("sample", [phi_n, a_param_exact, a_param_floor, a_param_round])
def test_sample_index_is_read_as_an_index(sample):
    # a float index used to name an angle between samples: phi_n(2, 1.5) was 0.589...
    for n in (1.5, 0.5, 1.0):
        with pytest.raises(TypeError):
            sample(2, n)
    assert sample(2, True) == sample(2, 1)


def test_param_exact_values():
    assert a_param_exact(1, 0) == pytest.approx(1.0, abs=0)
    assert a_param_exact(2, 1) == pytest.approx(2.613125929752753, abs=1e-14)
    assert a_param_exact(1, 1) == pytest.approx(math.sqrt(2), abs=1e-14)


def test_param_floor_values():
    assert [a_param_floor(2, n) for n in range(4)] == [2, 1, 2, 1]


def test_param_round_values():
    assert [a_param_round(2, n) for n in range(4)] == [2, 3, 2, 3]


@pytest.mark.parametrize("r", [1, 2, 3, 10, 47])
def test_param_sources_at_angle_zero(r):
    assert a_param_exact(r, 0) == pytest.approx(float(r), abs=0)
    assert a_param_floor(r, 0) == r
    assert a_param_round(r, 0) == r


@given(st.integers(1, 300), st.data())
def test_floor_exact_round_bracket(r, data):
    n = data.draw(st.integers(0, 2 * r - 1))
    lo = a_param_floor(r, n)
    mid = a_param_exact(r, n)
    hi = a_param_round(r, n)
    assert lo <= mid <= hi + 1


@given(st.integers(1, 300), st.data())
def test_param_exact_mirror_symmetry(r, data):
    n = data.draw(st.integers(1, 2 * r - 1))
    m = 2 * r - n  # also in [1, 2r - 1]
    assert a_param_exact(r, n) == pytest.approx(a_param_exact(r, m), rel=1e-12)


def test_exact_samples_equal_the_per_sample_definition_bit_for_bit():
    # array("d") holds each float's IEEE bits, so equal bytes are equal float.hex
    for r in SAMPLER_RADII:
        want = array("d", map(a_param_exact, repeat(r), range(2 * r)))
        assert array("d", param_exact_samples(r)).tobytes() == want.tobytes(), r


@pytest.mark.parametrize(
    "samples, per_sample",
    [(param_floor_samples, a_param_floor), (param_round_samples, a_param_round)],
)
def test_snapped_samples_equal_the_per_sample_definition(samples, per_sample):
    for r in SAMPLER_RADII:
        got = samples(r)
        assert got == list(map(per_sample, repeat(r), range(2 * r))), r
        assert set(map(type, got)) == {int}, r


@pytest.mark.parametrize("samples", [param_exact_samples, param_floor_samples, param_round_samples])
def test_samplers_check_the_radius_before_sampling(samples):
    with pytest.raises(ValueError):
        samples(0)
    # past sys.maxsize the 2r samples cannot be indexed: refused, not attempted
    for r in (sys.maxsize // 2 + 1, 10**30):
        with pytest.raises(OverflowError, match="exceed the largest index"):
            samples(r)


def test_midpoint_r1():
    pts = midpoint_quadrant(1)
    assert pts == [(1, 0), (1, 0), (0, 1), (0, 1)]
    assert not check_path(pts, "closed").is_closed_valid


def test_midpoint_r5():
    pts = midpoint_quadrant(5)
    assert pts == [
        (5, 0), (5, 1), (5, 2), (4, 3), (4, 3),
        (3, 4), (3, 4), (2, 5), (1, 5), (0, 5),
    ]


@pytest.mark.parametrize("r", [1, 2, 3, 5, 7, 9, 11, 20, 33])
def test_midpoint_fails_open_validity(r):
    # the eight-way plotter paints the seam pixels twice; duplicates are
    # violations, so this baseline never passes the open check
    report = check_path(midpoint_quadrant(r), "open")
    assert not report.is_valid


@pytest.mark.parametrize("r", list(range(1, 81)))
def test_midpoint_stays_in_the_standard_band(r):
    for x, y in midpoint_quadrant(r):
        assert abs(x * x + y * y - r * r) <= 2 * r, (r, x, y)


@pytest.mark.parametrize("r", [1, 2, 5, 12, 40])
def test_midpoint_is_angle_ordered_with_axis_endpoints(r):
    pts = midpoint_quadrant(r)
    assert pts[0] == (r, 0)
    assert pts[-1] == (0, r)
    angles = [math.atan2(y, x) for x, y in pts]
    assert angles == sorted(angles)


def test_midpoint_rejects_bad_radius():
    with pytest.raises(ValueError):
        midpoint_quadrant(0)
