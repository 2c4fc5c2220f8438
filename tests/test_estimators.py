import math
from fractions import Fraction

import pytest

from conftest import cached_trace
from latticircle.area import area_recursive
from latticircle.estimators import (
    ConvergenceRecord,
    Estimator,
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
from latticircle.reference import DiscretizationSource
from latticircle.signum import CostVariant

SIGNUM = DiscretizationSource.SIGNUM
PARAM_EXACT = DiscretizationSource.PARAM_EXACT
PARAM_FLOOR = DiscretizationSource.PARAM_FLOOR
PARAM_ROUND = DiscretizationSource.PARAM_ROUND


def test_sequence_r2():
    seq = pi_sequence(2, SIGNUM)
    assert seq.l1_values == (2, 3, 2, 3)
    assert seq.pi_values == (4.0, 8 / 3, 4.0, 8 / 3)


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
    assert len(seq.pi_values) == 2 * r
    for a, p in zip(seq.l1_values, seq.pi_values):
        assert p * a == pytest.approx(4 * r, rel=1e-12)


@pytest.mark.parametrize("r", [1, 2, 5, 33])
def test_signum_ratio_bounds(r):
    seq = pi_sequence(r, SIGNUM)
    lower = 2 * math.sqrt(2) * r / (r + 1)
    for p in seq.pi_values:
        assert lower - 1e-12 <= p <= 4.0


def test_midpoint_has_no_sequence():
    with pytest.raises(ValueError):
        pi_sequence(5, DiscretizationSource.MIDPOINT)


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


@pytest.mark.parametrize("estimator", list(Estimator))
@pytest.mark.parametrize("source", [SIGNUM, PARAM_EXACT, PARAM_FLOOR, PARAM_ROUND])
def test_estimate_record(estimator, source):
    mean = arithmetic_mean_pi if estimator is Estimator.ARITHMETIC else harmonic_mean_pi
    value = mean(pi_sequence(12, source))
    target, note = sweep_target(estimator, source)
    assert estimate(12, estimator, source) == ConvergenceRecord(
        12, estimator, source, value, target, abs(value - target), note
    )
