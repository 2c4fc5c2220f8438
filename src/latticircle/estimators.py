"""Recovering pi from Manhattan-distance averages along circle discretizations.

Every sample point p of a radius-r discretization carries the ratio
pi_n = 4r / (x + y), the full l1 circumference 8r over twice the point's
Manhattan distance.  Averaging those ratios over the 2r quarter-circle
samples gives the estimators:

* arithmetic mean  A = 2 sum(1 / a_n), which for the constructed paths
  approaches pi itself,
* harmonic mean    H = 8 r^2 / sum(a_n), which approaches 16 / (pi + 2).

The angle-sampled sources approach a different constant,
(4 sqrt(2) / pi) (ln(2 + sqrt(2)) - ln(2 - sqrt(2))) = 3.174060...,
which equals the continuum average (8 sqrt(2) / pi) atanh(1 / sqrt(2)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from latticircle.reference import (
    DiscretizationSource,
    a_param_exact,
    a_param_floor,
    a_param_round,
)
from latticircle.signum import CostVariant, generate_quadrant


class Estimator(enum.Enum):
    """Which mean of the per-sample ratios is taken."""

    ARITHMETIC = "arithmetic"
    HARMONIC = "harmonic"


@dataclass(frozen=True)
class PiSequence:
    """Per-sample ratios 4r / a_n for one discretization of radius r."""

    radius: int
    source: DiscretizationSource
    l1_values: tuple

    @property
    def pi_values(self) -> tuple[float, ...]:
        """The ratios 4r / a_n, computed on each access; no estimator reads them."""
        return tuple(4 * self.radius / a for a in self.l1_values)


_PARAM_SAMPLERS = {
    DiscretizationSource.PARAM_EXACT: a_param_exact,
    DiscretizationSource.PARAM_FLOOR: a_param_floor,
    DiscretizationSource.PARAM_ROUND: a_param_round,
}


def pi_sequence(
    radius: int,
    source: DiscretizationSource,
    variant: CostVariant = CostVariant.EXACT,
) -> PiSequence:
    """Build the 2r-sample ratio sequence for one source.

    The midpoint rasterizer is excluded: it emits a different number of
    points per quadrant, so the 2r-sample estimators do not apply to it.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if source is DiscretizationSource.SIGNUM:
        l1s: Sequence = generate_quadrant(radius, variant).l1_dists
    else:
        sampler = _PARAM_SAMPLERS.get(source)
        if sampler is None:
            raise ValueError("midpoint baseline has no 2r-sample pi sequence")
        l1s = [sampler(radius, n) for n in range(2 * radius)]
    low = min(l1s)
    if low <= 0:
        raise ValueError(f"nonpositive Manhattan distance {low} at radius {radius}")
    return PiSequence(radius=radius, source=source, l1_values=tuple(l1s))


def arithmetic_mean_pi(seq: PiSequence) -> float:
    """Arithmetic mean of the ratios: 2 sum(1 / a_n), compensated summation."""
    return 2 * math.fsum(1 / a for a in seq.l1_values)


def harmonic_mean_pi(seq: PiSequence) -> float:
    """Harmonic mean of the ratios: 8 r^2 / sum(a_n)."""
    return 8 * seq.radius * seq.radius / math.fsum(seq.l1_values)


def _require_integer_samples(seq: PiSequence) -> None:
    if not all(isinstance(a, int) for a in seq.l1_values):
        raise ValueError("exact means need integer Manhattan distances")


def arithmetic_mean_pi_exact(seq: PiSequence) -> Fraction:
    """Arithmetic mean as an exact rational; integer sources only."""
    _require_integer_samples(seq)
    return 2 * sum(Fraction(1, a) for a in seq.l1_values)


def harmonic_mean_pi_exact(seq: PiSequence) -> Fraction:
    """Harmonic mean as an exact rational; integer sources only."""
    _require_integer_samples(seq)
    return Fraction(8 * seq.radius * seq.radius, sum(seq.l1_values))


def continuum_mean_closed_form() -> float:
    """Limit of the arithmetic mean over the continuum quarter circle:
    (8 sqrt(2) / pi) atanh(1 / sqrt(2)) = 3.174060..."""
    return 8 * math.sqrt(2) / math.pi * math.atanh(1 / math.sqrt(2))


def parametric_asymptote_closed_form() -> float:
    """Limit of the arithmetic mean for the angle-sampled sources:
    (4 sqrt(2) / pi) (ln(2 + sqrt(2)) - ln(2 - sqrt(2))); equals the
    continuum average."""
    root2 = math.sqrt(2)
    return 4 * root2 / math.pi * (math.log(2 + root2) - math.log(2 - root2))


def harmonic_asymptote() -> float:
    """Limit of the harmonic mean for the constructed paths: 16 / (pi + 2)."""
    return 16 / (math.pi + 2)


@dataclass(frozen=True)
class ConvergenceRecord:
    """One sweep row: estimate at radius r against its reference value.

    ``target_note`` is empty when the target is a known limit and holds
    "no closed form" when pi is recorded as a stand-in.
    """

    radius: int
    estimator: Estimator
    source: DiscretizationSource
    value: float
    target: float
    abs_error: float
    target_note: str = ""


def sweep_target(estimator: Estimator, source: DiscretizationSource) -> tuple[float, str]:
    """Reference value for an (estimator, source) pair, plus a note when the
    pair has no known limit and pi stands in."""
    if source is DiscretizationSource.SIGNUM:
        if estimator is Estimator.ARITHMETIC:
            return math.pi, ""
        return harmonic_asymptote(), ""
    if source is DiscretizationSource.PARAM_EXACT and estimator is Estimator.ARITHMETIC:
        return parametric_asymptote_closed_form(), ""
    return math.pi, "no closed form"


def estimate(
    radius: int,
    estimator: Estimator,
    source: DiscretizationSource,
    variant: CostVariant = CostVariant.EXACT,
) -> ConvergenceRecord:
    """The estimate at one radius against its target, as one sweep row."""
    seq = pi_sequence(radius, source, variant)
    mean = arithmetic_mean_pi if estimator is Estimator.ARITHMETIC else harmonic_mean_pi
    value = mean(seq)
    target, note = sweep_target(estimator, source)
    return ConvergenceRecord(radius, estimator, source, value, target, abs(value - target), note)


def sweep(
    radii: Sequence[int],
    estimator: Estimator,
    source: DiscretizationSource,
    variant: CostVariant = CostVariant.EXACT,
) -> list[ConvergenceRecord]:
    """One convergence record per radius, in input order."""
    if not radii:
        raise ValueError("radii must be nonempty")
    for r in radii:
        if r < 1:
            raise ValueError("radii must be >= 1")
        if r < 5 and source is DiscretizationSource.SIGNUM and variant is CostVariant.APPROX:
            raise ValueError("approx requires radius ≥ 5")
    return [estimate(r, estimator, source, variant) for r in radii]
