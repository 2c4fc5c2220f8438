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
from itertools import accumulate, chain, repeat
from operator import truediv
from typing import TYPE_CHECKING, Collection, NamedTuple, Sequence

from latticircle.lattice import read_radius
from latticircle.reference import (
    DiscretizationSource,
    param_exact_samples,
    param_floor_samples,
    param_round_samples,
)
from latticircle.signum import CostVariant, L1Distances, generate_quadrant

if TYPE_CHECKING:
    from fractions import Fraction


class Estimator(enum.Enum):
    """Which mean of the per-sample ratios is taken."""

    ARITHMETIC = "arithmetic"
    HARMONIC = "harmonic"


class PiSequence(NamedTuple):
    """The 2r Manhattan distances a_n of one discretization of radius r,
    whose per-sample ratios are 4r / a_n.

    ``l1_values`` is sized and can be iterated any number of times.  For
    the signum source it is an ``L1Distances`` view that streams the a_n
    from the trace's 2r step bytes on each pass, so no 2r ints are stored;
    for the angle-sampled sources it is the sampler's own list, uncopied."""

    radius: int
    source: DiscretizationSource
    l1_values: Collection


_PARAM_SAMPLERS = {
    DiscretizationSource.PARAM_EXACT: param_exact_samples,
    DiscretizationSource.PARAM_FLOOR: param_floor_samples,
    DiscretizationSource.PARAM_ROUND: param_round_samples,
}


def pi_sequence(
    radius: int,
    source: DiscretizationSource | str,
    variant: CostVariant | str = CostVariant.EXACT,
) -> PiSequence:
    """Build the 2r-sample ratio sequence for one source.

    Each selector is read by its enum: "signum" reads as its member, and an
    unknown name raises ValueError before any work.

    Only an angle-sampled source can give a sample a_n <= 0, which raises
    ValueError.  The signum walk never visits the origin, so every a_n >= 1
    (``generate_quadrant``'s proof) and its samples are not scanned; the
    cost variants give the same trace."""
    radius = read_radius(radius)
    source, variant = DiscretizationSource(source), CostVariant(variant)
    if source is DiscretizationSource.SIGNUM:
        l1s: Collection = L1Distances(radius, generate_quadrant(radius, variant).steps)
    else:
        l1s = _PARAM_SAMPLERS[source](radius)
        low = min(l1s)
        if low <= 0:
            raise ValueError(f"nonpositive Manhattan distance {low} at radius {radius}")
    return PiSequence(radius=radius, source=source, l1_values=l1s)


def arithmetic_mean_pi(seq: PiSequence) -> float:
    """Arithmetic mean of the ratios: 2 sum(1 / a_n), compensated summation.

    The signum view sums the first half only: a_{2r-n} = a_n (see
    ``QuadrantTrace``), so the terms are 1/a_0, 1/a_r and 2/a_n for
    1 <= n < r, with a_0..a_r streamed from the first r steps.  The float
    is the one the 2r terms give: 2/a rounds to exactly twice the rounding
    of 1/a, so the new terms add up exactly to the old ones, and fsum
    rounds the exact sum of its terms."""
    values = seq.l1_values
    if isinstance(values, L1Distances):
        r = values.radius
        weights = chain((1,), repeat(2, r - 1), (1,))
        values = accumulate(memoryview(values.steps)[:r], initial=r)
    else:
        weights = repeat(1)
    return 2 * math.fsum(map(truediv, weights, values))


def harmonic_mean_pi(seq: PiSequence) -> float:
    """Harmonic mean of the ratios: 8 r^2 / sum(a_n), compensated summation.

    The signum view sums its ints exactly from the first r steps
    (``L1Distances.total``).  Every a_n <= 2r is below 2^53, since the 2r
    step bytes fit in memory, so each a_n is exactly a float, and fsum and
    float() of the exact int sum both round that sum correctly: the float
    is the one fsum gives."""
    values = seq.l1_values
    total = float(values.total()) if isinstance(values, L1Distances) else math.fsum(values)
    return 8 * seq.radius * seq.radius / total


def _require_integer_samples(seq: PiSequence) -> None:
    if not all(isinstance(a, int) for a in seq.l1_values):
        raise ValueError("exact means need integer Manhattan distances")


def arithmetic_mean_pi_exact(seq: PiSequence) -> Fraction:
    """Arithmetic mean as an exact rational; integer sources only."""
    from fractions import Fraction  # imported here: it costs every CLI start-up

    _require_integer_samples(seq)
    return 2 * sum(Fraction(1, a) for a in seq.l1_values)


def harmonic_mean_pi_exact(seq: PiSequence) -> Fraction:
    """Harmonic mean as an exact rational; integer sources only."""
    from fractions import Fraction

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


class ConvergenceRecord(NamedTuple):
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


def sweep_target(
    estimator: Estimator | str, source: DiscretizationSource | str
) -> tuple[float, str]:
    """Reference value for an (estimator, source) pair, plus a note when the
    pair has no known limit and pi stands in.  Both are read by their enums."""
    estimator, source = Estimator(estimator), DiscretizationSource(source)
    if source is DiscretizationSource.SIGNUM:
        if estimator is Estimator.ARITHMETIC:
            return math.pi, ""
        return harmonic_asymptote(), ""
    if source is DiscretizationSource.PARAM_EXACT and estimator is Estimator.ARITHMETIC:
        return parametric_asymptote_closed_form(), ""
    return math.pi, "no closed form"


def estimate(
    radius: int,
    estimator: Estimator | str,
    source: DiscretizationSource | str,
    variant: CostVariant | str = CostVariant.EXACT,
) -> ConvergenceRecord:
    """The estimate at one radius against its target, as one sweep row.
    Selectors are read as in ``pi_sequence``; the record holds the members."""
    estimator = Estimator(estimator)
    seq = pi_sequence(radius, source, variant)
    mean = arithmetic_mean_pi if estimator is Estimator.ARITHMETIC else harmonic_mean_pi
    value = mean(seq)
    target, note = sweep_target(estimator, seq.source)
    error = abs(value - target)
    return ConvergenceRecord(seq.radius, estimator, seq.source, value, target, error, note)


def sweep(
    radii: Sequence[int],
    estimator: Estimator | str,
    source: DiscretizationSource | str,
    variant: CostVariant | str = CostVariant.EXACT,
) -> list[ConvergenceRecord]:
    """One convergence record per radius, in input order.  Every radius and
    selector is read, as in ``estimate``, before the first radius runs."""
    if not radii:
        raise ValueError("radii must be nonempty")
    estimator, source = Estimator(estimator), DiscretizationSource(source)
    variant = CostVariant(variant)
    radii = [*map(read_radius, radii)]
    approx = source is DiscretizationSource.SIGNUM and variant is CostVariant.APPROX
    if approx and min(radii) < 5:
        raise ValueError("approx requires radius ≥ 5")
    return [estimate(r, estimator, source, variant) for r in radii]
