import math
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import truediv

import pytest

from conftest import cached_trace, cell_centres_in_disc
from latticircle import estimators
from latticircle.area import area_recursive
from latticircle.estimators import (
    ConvergenceRecord,
    Estimator,
    PiSequence,
    arithmetic_mean_pi,
    arithmetic_mean_pi_exact,
    continuum_mean_closed_form,
    estimate,
    harmonic_asymptote,
    harmonic_mean_pi,
    harmonic_mean_pi_exact,
    parametric_asymptote_closed_form,
    pi_sequence,
    sweep,
    sweep_target,
)
from latticircle.reference import DiscretizationSource, param_samples
from latticircle.signum import CostVariant

SIGNUM = DiscretizationSource.SIGNUM
PARAM_EXACT = DiscretizationSource.PARAM_EXACT
PARAM_FLOOR = DiscretizationSource.PARAM_FLOOR
PARAM_ROUND = DiscretizationSource.PARAM_ROUND


def test_sequence_r2():
    seq = pi_sequence(2, SIGNUM)
    assert seq.l1_values == (2, 3, 2, 3)
    assert [4 * 2 / a for a in seq.l1_values] == [4.0, 8 / 3, 4.0, 8 / 3]


def assert_view_streams_the_trace(r, trace):
    # the signum view holds only the step bytes and r; each pass accumulates
    # them afresh, and both float means are the bits that fsum gives over
    # the trace's stored tuple (fsum is correctly rounded, so order and the
    # exact integer sum of the harmonic mean cannot change them)
    seq = pi_sequence(r, SIGNUM)
    view, l1_dists = seq.l1_values, trace.l1_dists
    assert len(view) == 2 * r, r
    assert list(view) == list(view), r
    assert tuple(view) == l1_dists and view == l1_dists, r
    arithmetic = 2 * math.fsum(1 / a for a in l1_dists)
    harmonic = 8 * r * r / math.fsum(l1_dists)
    assert repr(arithmetic_mean_pi(seq)) == repr(arithmetic), r
    assert repr(harmonic_mean_pi(seq)) == repr(harmonic), r


def test_harmonic_mean_counts_the_shifted_lattice_points_in_a_disc():
    # sum(a_n) = 2|C| + r^2 with 4|C| = N(rho), so the harmonic mean is
    # 8r^2 / (N(rho) / 2 + r^2) with the brute-force count of N(rho)
    for r in (*range(1, 61), 200, 1001):
        n_rho = 4 * cell_centres_in_disc(r)
        seq = pi_sequence(r, SIGNUM)
        assert sum(seq.l1_values) == n_rho // 2 + r * r, r
        assert harmonic_mean_pi_exact(seq) == Fraction(16 * r * r, n_rho + 2 * r * r), r


VIEW_RADII = sorted({*range(1, 513), *(2**k + d for k in range(10, 18) for d in (-1, 1))})


def test_signum_view_streams_the_trace():
    for r in VIEW_RADII:
        assert_view_streams_the_trace(r, cached_trace(r))


@pytest.mark.slow
def test_signum_view_streams_the_trace_at_a_million():
    assert_view_streams_the_trace(10**6, cached_trace(10**6))


def test_signum_view_is_unhashable():
    # it compares equal to a tuple of the same ints, so no hash could agree with both
    view = pi_sequence(5, SIGNUM).l1_values
    assert view == cached_trace(5).l1_dists
    with pytest.raises(TypeError, match="unhashable type: 'L1Distances'"):
        hash(view)


MEAN_RADII = sorted({*range(1, 3001), *(2**k + d for k in range(2, 22) for d in (-1, 1))})


def test_half_length_arithmetic_mean_is_the_full_length_float():
    # the former sum over all 2r terms is the oracle, compared bit for bit
    for r in MEAN_RADII:
        seq = pi_sequence(r, SIGNUM)
        full = 2 * math.fsum(map(truediv, repeat(1), seq.l1_values))
        assert arithmetic_mean_pi(seq).hex() == full.hex(), r


def column_heights(r):
    """H_0, ..., H_r: H_x counts the cells of C in column x, the odd
    c = 2j + 1 with c^2 <= 4r^2 - 2 - (2x + 1)^2, none when that is negative."""
    q = 4 * r * r - 2
    bounds = (q - (2 * x + 1) ** 2 for x in range(r + 1))
    return [(math.isqrt(b) + 1) // 2 if b > 0 else 0 for b in bounds]


def reciprocal_sum_by_columns(r):
    """sum_{x=1}^{r} (Harm(x + H_{x-1}) - Harm(x + H_x - 1)), exactly: each
    harmonic number Harm(m) enters once, weighted by how many column ends
    name it, so no table of them is kept."""
    h, weights = column_heights(r), Counter()
    for x in range(1, r + 1):
        weights[x + h[x - 1]] += 1
        weights[x + h[x] - 1] -= 1
    harm = total = Fraction(0)
    for m in range(1, max(weights) + 1):
        harm += Fraction(1, m)
        if weights[m]:
            total += weights[m] * harm
    return total


# the boundary radii of the hull walk's end column (tests/test_signum.py):
# r^2 = 2k^2 + 1 and 2r^2 = (2k + 1)^2 + 1
BOUNDARY_RADII = (3, 17, 99, 577, 3363, 5, 29, 169, 985, 5741)


def test_reciprocal_sum_is_harmonic_numbers_over_the_columns():
    # the column identity of ``L1Distances.reciprocal_total``, against the
    # exact mean over the streamed distances; H_0 = r and H_r = 0 bound it
    for r in (*range(1, 201), *BOUNDARY_RADII):
        h = column_heights(r)
        assert (h[0], h[r]) == (r, 0), r
        exact = arithmetic_mean_pi_exact(pi_sequence(r, SIGNUM))
        assert 2 * reciprocal_sum_by_columns(r) == exact, r


@pytest.mark.parametrize("estimator", list(Estimator))
def test_signum_estimate_holds_only_the_step_bytes(estimator):
    # the view stores no distances: estimate's peak is the 2r-byte step
    # array plus at most one 16 KiB block of ``L1Distances.total``'s up-step count
    r = 200_000
    tracemalloc.start()
    try:
        estimate(r, estimator, SIGNUM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * r + 64 * 1024


@pytest.mark.parametrize("source", [SIGNUM, PARAM_EXACT, PARAM_FLOOR, PARAM_ROUND])
@pytest.mark.parametrize("r", [1, 2, 9, 40])
def test_sequence_shape_and_ratio_invariant(source, r):
    if source is PARAM_FLOOR and r == 1:
        # floor(r cos)=floor(r sin)=0 at the 45 degree sample; rejected
        with pytest.raises(ValueError):
            pi_sequence(r, source)
        return
    seq = pi_sequence(r, source)
    assert len(seq.l1_values) == 2 * r
    for a in seq.l1_values:
        assert (4 * r / a) * a == pytest.approx(4 * r, rel=1e-12)


@pytest.mark.parametrize("source", [PARAM_EXACT, PARAM_FLOOR, PARAM_ROUND])
def test_param_sequence_equals_the_per_sample_comprehension(source):
    # param_samples equals the per-sample comprehension over a_param_* bit
    # for bit (tests/test_reference.py, on a superset of these radii), so the
    # sequence need only hand on its output unchanged.  param-floor snaps the
    # r = 1 diagonal sample to the origin and is rejected.  Floats are
    # compared by their IEEE bytes, which also tells -0.0 from 0.0, and the
    # type check tells 2 from 2.0
    for r in [*range(2, 301), *(2**k + d for k in range(9, 15) for d in (-1, 1))]:
        got = pi_sequence(r, source).l1_values
        want = param_samples(r, source)
        if source is PARAM_EXACT:
            assert set(map(type, got)) == {float}, r
            assert array("d", got).tobytes() == array("d", want).tobytes(), r
        else:
            assert set(map(type, got)) == {int}, r
            assert got == want, r


def test_angle_samples_are_positive_but_one():
    # the proof in pi_sequence's docstring, which lets it scan no sample:
    # only param-floor at r = 1 reaches a_n <= 0, at n = 1
    assert param_samples(1, PARAM_FLOOR) == [1, 0]
    radii = [*range(2, 2001), *(2**k + d for k in range(11, 19) for d in (-1, 0, 1))]
    for r in radii:
        assert min(param_samples(r, PARAM_FLOOR)) >= 1, r
    for r in [1, *radii]:
        assert min(param_samples(r, PARAM_ROUND)) >= 1, r
        assert min(param_samples(r, PARAM_EXACT)) > 0, r


def test_param_floor_at_radius_1_raises_before_sampling(monkeypatch):
    def sample(r, source):
        raise AssertionError("sampled")

    monkeypatch.setattr("latticircle.reference.param_samples", sample)
    with pytest.raises(ValueError, match=r"^nonpositive Manhattan distance 0 at radius 1$"):
        pi_sequence(1, PARAM_FLOOR)


def staircase_distances(heights):
    """a_0..a_{2r-1} of the path from (r, 0) to (0, r) that bounds the cell
    columns H_0 >= ... >= H_{r-1}, H_0 <= r: from the right, up each
    column's right side and then left across its top, and up the y axis
    to (0, r) at the end."""
    r = len(heights)
    x, y, out = r, 0, []
    for h in reversed(heights):
        out += range(x + y, x + h + 1)
        x, y = x - 1, h
    return out + [*range(y, r)]


def test_a_corner_cell_moves_the_arithmetic_mean_by_four_over_s_squared_less_one():
    # the per-cell law of the estimators docstring, exactly: adding the
    # corner cell (i, j), s = i + j + 1, changes A by -4/(s^2 - 1), and
    # removing one by +4/(s^2 - 1)
    for r in range(1, 201):
        rng = random.Random(r)
        heights = column_heights(r)[:r]
        assert staircase_distances(heights) == list(pi_sequence(r, SIGNUM).l1_values), r
        mean = arithmetic_mean_pi_exact(pi_sequence(r, SIGNUM))
        # (i, H_i) can join C when its left neighbour is in C; (i, H_i - 1)
        # can leave when its right neighbour is not and its point a = s - 1 >= 1
        joins = [i for i in range(1, r) if heights[i - 1] > heights[i]]
        leaves = [i for i in range(r) if (i == r - 1 or heights[i + 1] < heights[i])
                  and i + heights[i] >= 2]
        for i, change in [(rng.choice(cells), c) for cells, c in ((joins, 1), (leaves, -1)) if cells]:
            s = i + heights[i] + (change > 0)
            moved = heights[:i] + [heights[i] + change] + heights[i + 1 :]
            seq = PiSequence(r, SIGNUM, staircase_distances(moved))
            assert arithmetic_mean_pi_exact(seq) - mean == Fraction(-4 * change, s * s - 1), (r, i)


@pytest.mark.parametrize("r", [1, 2, 5, 33])
def test_signum_ratio_bounds(r):
    seq = pi_sequence(r, SIGNUM)
    lower = 2 * math.sqrt(2) * r / (r + 1)
    for a in seq.l1_values:
        assert lower - 1e-12 <= 4 * r / a <= 4.0


def test_arithmetic_examples():
    assert arithmetic_mean_pi(pi_sequence(1, SIGNUM)) == pytest.approx(3.0, abs=1e-15)
    assert arithmetic_mean_pi(pi_sequence(2, SIGNUM)) == pytest.approx(10 / 3, abs=1e-15)
    assert arithmetic_mean_pi(pi_sequence(1, PARAM_EXACT)) == pytest.approx(
        2 + math.sqrt(2), abs=1e-14
    )


def test_harmonic_examples():
    assert harmonic_mean_pi(pi_sequence(1, SIGNUM)) == pytest.approx(8 / 3, abs=1e-15)
    assert harmonic_mean_pi(pi_sequence(2, SIGNUM)) == pytest.approx(3.2, abs=1e-15)


def test_exact_means_are_rational():
    assert arithmetic_mean_pi_exact(pi_sequence(1, SIGNUM)) == Fraction(3)
    assert arithmetic_mean_pi_exact(pi_sequence(2, SIGNUM)) == Fraction(10, 3)
    assert harmonic_mean_pi_exact(pi_sequence(1, SIGNUM)) == Fraction(8, 3)
    assert harmonic_mean_pi_exact(pi_sequence(2, SIGNUM)) == Fraction(16, 5)


@pytest.mark.parametrize("r", [1, 2, 7, 24])
def test_exact_means_match_float_means(r):
    seq = pi_sequence(r, SIGNUM)
    assert float(arithmetic_mean_pi_exact(seq)) == pytest.approx(
        arithmetic_mean_pi(seq), rel=1e-13
    )
    assert float(harmonic_mean_pi_exact(seq)) == pytest.approx(
        harmonic_mean_pi(seq), rel=1e-13
    )


def test_exact_means_reject_float_sources():
    with pytest.raises(ValueError):
        arithmetic_mean_pi_exact(pi_sequence(2, PARAM_EXACT))


def test_closed_forms_agree():
    # two independent routes to the same constant
    assert continuum_mean_closed_form() == pytest.approx(
        parametric_asymptote_closed_form(), abs=1e-12
    )
    assert continuum_mean_closed_form() == pytest.approx(3.174060084094438, abs=1e-12)


def test_harmonic_asymptote_value():
    h = harmonic_asymptote()
    assert h == pytest.approx(3.111876237186742, abs=1e-14)
    assert h == pytest.approx(1 / (math.pi / 16 + 1 / 8), abs=1e-15)
    assert h < math.pi
    # rearranged: recovering pi from the harmonic limit alone
    assert 16 / h - 2 == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("r", list(range(1, 25)))
def test_harmonic_mean_ties_to_area_exactly(r):
    seq = pi_sequence(r, SIGNUM)
    lhs = 1 / harmonic_mean_pi_exact(seq)
    rhs = Fraction(area_recursive(cached_trace(r)), 4 * r * r) + Fraction(1, 8)
    assert lhs == rhs


@pytest.mark.parametrize("source", [SIGNUM, PARAM_EXACT, PARAM_FLOOR, PARAM_ROUND])
@pytest.mark.parametrize("r", [2, 3, 10, 50])
def test_arithmetic_dominates_harmonic(source, r):
    seq = pi_sequence(r, source)
    assert arithmetic_mean_pi(seq) > harmonic_mean_pi(seq)


def test_sweep_targets():
    assert sweep_target(Estimator.ARITHMETIC, SIGNUM) == (math.pi, "")
    assert sweep_target(Estimator.HARMONIC, SIGNUM) == (harmonic_asymptote(), "")
    assert sweep_target(Estimator.ARITHMETIC, PARAM_EXACT) == (
        parametric_asymptote_closed_form(),
        "",
    )
    for source in (PARAM_FLOOR, PARAM_ROUND):
        target, note = sweep_target(Estimator.ARITHMETIC, source)
        assert target == math.pi
        assert note == "no closed form"


def test_sweep_records():
    records = sweep([2], Estimator.ARITHMETIC, SIGNUM)
    assert len(records) == 1
    rec = records[0]
    assert rec.radius == 2
    assert rec.value == pytest.approx(10 / 3, abs=1e-15)
    assert rec.target == math.pi
    assert rec.abs_error == pytest.approx(abs(10 / 3 - math.pi), abs=1e-15)
    assert rec.target_note == ""


def test_sweep_keeps_input_order():
    radii = [10, 3, 77, 3]
    records = sweep(radii, Estimator.HARMONIC, SIGNUM)
    assert [rec.radius for rec in records] == radii
    assert records[1] == records[3]


def test_sweep_error_shrinks_for_signum_arithmetic():
    records = sweep([10, 100, 1000], Estimator.ARITHMETIC, SIGNUM)
    errors = [rec.abs_error for rec in records]
    assert errors[0] > errors[1] > errors[2]


def test_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        sweep([], Estimator.ARITHMETIC, SIGNUM)
    with pytest.raises(ValueError):
        sweep([0, 3], Estimator.ARITHMETIC, SIGNUM)
    with pytest.raises(ValueError, match="approx requires radius"):
        sweep([3], Estimator.ARITHMETIC, SIGNUM, CostVariant.APPROX)
    # the same radii are fine for non-signum sources
    assert sweep([3], Estimator.ARITHMETIC, PARAM_FLOOR, CostVariant.APPROX)


@pytest.mark.parametrize(
    "args, error",
    [
        pytest.param(([5, 2.0], Estimator.ARITHMETIC, SIGNUM), TypeError, id="2.0-TypeError"),
        pytest.param(([5, 0], Estimator.ARITHMETIC, SIGNUM), ValueError, id="0-ValueError"),
        pytest.param(
            ([5, 2**62], Estimator.ARITHMETIC, SIGNUM), OverflowError, id="2**62-OverflowError"
        ),
        pytest.param(([5, 6], "bogus", SIGNUM), ValueError, id="estimator-ValueError"),
        pytest.param(([5, 6], Estimator.ARITHMETIC, "bogus"), ValueError, id="source-ValueError"),
        pytest.param(
            ([5, 6], Estimator.ARITHMETIC, SIGNUM, "bogus"), ValueError, id="variant-ValueError"
        ),
    ],
)
def test_sweep_reads_every_radius_before_any_runs(monkeypatch, args, error):
    calls = []
    monkeypatch.setattr(estimators, "estimate", lambda *call: calls.append(call))
    with pytest.raises(error):
        sweep(*args)
    assert calls == []


@pytest.mark.parametrize("estimator", list(Estimator))
@pytest.mark.parametrize("source", [SIGNUM, PARAM_EXACT, PARAM_FLOOR, PARAM_ROUND])
def test_estimate_record(estimator, source):
    mean = arithmetic_mean_pi if estimator is Estimator.ARITHMETIC else harmonic_mean_pi
    value = mean(pi_sequence(12, source))
    target, note = sweep_target(estimator, source)
    assert estimate(12, estimator, source) == ConvergenceRecord(
        12, estimator, source, value, target, abs(value - target), note
    )
