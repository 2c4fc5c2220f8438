"""Acceptance gate: nine checks, one printed verdict line each.

The verdict lines print through the capture plumbing, so they appear in
any pytest run.  Tolerances and radius ranges are pinned; loosening them
is not an option when a check fails.
"""

import math
from fractions import Fraction

import pytest

from conftest import cached_trace, decimal_step_sign
from latticircle.area import area_recursive, check_sum_identity, inner_outer_areas
from latticircle.estimators import (
    arithmetic_mean_pi,
    continuum_mean_closed_form,
    harmonic_asymptote,
    harmonic_mean_pi,
    harmonic_mean_pi_exact,
    parametric_asymptote_closed_form,
    pi_sequence,
)
from latticircle.lattice import check_path
from latticircle.reference import DiscretizationSource, midpoint_quadrant
from latticircle.signum import (
    CostVariant,
    QuadrantTrace,
    _walk_predicate,
    assemble_full_circle,
    cost_approx,
    cost_simplified,
)

SIGNUM = DiscretizationSource.SIGNUM


@pytest.fixture
def verdict(capsys):
    """Run one check, print exactly one ACCEPTANCE line, re-raise failures."""

    def _run(num, desc, check):
        def log(msg):
            with capsys.disabled():
                print(msg)

        try:
            check(log)
        except BaseException:
            log(f"ACCEPTANCE {num}: FAIL - {desc}")
            raise
        log(f"ACCEPTANCE {num}: PASS - {desc}")

    return _run


def test_acceptance_1_quadrant_structure(verdict):
    def check(log):
        for r in range(1, 513):
            t = cached_trace(r)
            n_pts = 2 * r
            assert len(t.points) == n_pts
            assert t.points[0] == (r, 0)
            assert t.signs[0] == 1
            for n in range(n_pts - 1):
                assert t.l1_dists[n + 1] == t.l1_dists[n] + t.signs[n]
            for n in range(n_pts):
                assert t.xs[n] - t.ys[n] == r - n
                assert t.signs[n] == -t.signs[n_pts - 1 - n]
            assert t.sign_sums[-1] == 0
            assert t.sign_sums[-2] == 1
            assert t.signs[-1] == -1
            assert check_sum_identity(t)
            circle = assemble_full_circle(t)
            assert len(circle.points) == 8 * r
            assert check_path(circle.points, mode="closed").is_closed_valid

    verdict(1, "quadrant structure and closed full circles hold for r in 1..512", check)


def test_acceptance_2_cost_variant_equivalence(verdict):
    def check(log):
        def first_sign_diff(a, b):
            for n, (sa, sb) in enumerate(zip(a.signs, b.signs)):
                if sa != sb:
                    return n
            return None

        bad = []
        for r in range(1, 513):
            exact = cached_trace(r)
            steps = _walk_predicate(r, cost_simplified)
            simplified = QuadrantTrace(r, CostVariant.SIMPLIFIED, steps)
            n = first_sign_diff(exact, simplified)
            if n is None:
                assert exact.points == simplified.points
            else:
                bad.append(("simplified", r, n, exact.l1_dists[n], r - n - 1))
        for r in range(5, 513):
            exact = cached_trace(r)
            approx = QuadrantTrace(r, CostVariant.APPROX, _walk_predicate(r, cost_approx))
            n = first_sign_diff(exact, approx)
            if n is None:
                assert exact.points == approx.points
            else:
                bad.append(("approx", r, n, exact.l1_dists[n], r - n - 1))
        for variant, r, n, a_n, c_n in bad:
            log(f"counterexample: variant={variant} r={r} n={n} a_n={a_n} c_n={c_n}")
        assert not bad

    verdict(2, "cost variants agree bitwise (simplified r 1..512, approx r 5..512)", check)


def test_acceptance_3_exact_sign_correctness(verdict):
    def check(log):
        for r in range(1, 65):
            t = cached_trace(r)
            for n in range(2 * r):
                assert t.signs[n] == decimal_step_sign(t.xs[n], t.ys[n], r)

    verdict(3, "integer sign predicate matches 60-digit evaluation on every step, r 1..64", check)


def test_acceptance_4_pi_recovery(verdict):
    def check(log):
        radii = (10, 100, 1000, 10000)
        errors = [
            abs(arithmetic_mean_pi(pi_sequence(r, SIGNUM)) - math.pi) for r in radii
        ]
        log(
            "arithmetic mean errors: "
            + ", ".join(f"r={r}: {e:.3e}" for r, e in zip(radii, errors))
        )
        assert errors[0] > errors[1] > errors[2] > errors[3]
        assert errors[3] < 0.02

    verdict(4, "arithmetic mean approaches pi with strictly shrinking error, r 10..10000", check)


def test_acceptance_5_harmonic_identity(verdict):
    def check(log):
        for r in range(1, 65):
            h = harmonic_mean_pi_exact(pi_sequence(r, SIGNUM))
            area = area_recursive(cached_trace(r))
            assert 1 / h == Fraction(area, 4 * r * r) + Fraction(1, 8)
        h_large = harmonic_mean_pi(pi_sequence(10000, SIGNUM))
        assert abs(h_large - harmonic_asymptote()) < 0.01

    verdict(5, "harmonic mean ties to the area exactly, and hits 16/(pi+2) at r 10000", check)


def test_acceptance_6_parametric_asymptote(verdict):
    def check(log):
        value = arithmetic_mean_pi(pi_sequence(10000, DiscretizationSource.PARAM_EXACT))
        assert abs(value - 3.17406) < 1e-3
        gap = abs(continuum_mean_closed_form() - parametric_asymptote_closed_form())
        assert gap < 1e-12

    verdict(6, "exact parametric sampling converges to its closed-form limit 3.17406", check)


def test_acceptance_7_naive_snapping_misses_pi(verdict):
    def check(log):
        sources = (DiscretizationSource.PARAM_FLOOR, DiscretizationSource.PARAM_ROUND)
        for source in sources:
            value = arithmetic_mean_pi(pi_sequence(10000, source))
            offset = abs(value - math.pi)
            log(f"offset from pi at r=10000, {source.value}: {offset:.6f}")
            assert offset > 0.01

    verdict(7, "floor and round snapping stay more than 0.01 away from pi at r 10000", check)


def test_acceptance_8_area_convergence(verdict):
    def check(log):
        for r in range(1, 513):
            inner, outer = inner_outer_areas(r)
            assert inner <= area_recursive(cached_trace(r)) <= outer
        r = 1000
        ratio = 4 * area_recursive(cached_trace(r)) / r**2
        log(f"area ratio at r=1000: {ratio:.6f}")
        assert abs(ratio - math.pi) < 0.02

    verdict(8, "staircase bounds bracket the area for r 1..512, ratio near pi at r 1000", check)


def test_acceptance_9_midpoint_baseline_invalid(verdict):
    def check(log):
        for r in (5, 7, 9, 11):
            report = check_path(midpoint_quadrant(r), mode="open")
            assert not report.is_valid
            assert report.violations

    verdict(9, "midpoint rasterizer output fails open-path validity for r 5, 7, 9, 11", check)
