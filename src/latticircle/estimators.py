"""Recovering pi from Manhattan-distance averages along circle discretizations.

Every sample point p of a radius-r discretization carries the ratio
pi_n = 4r / (x + y), the full l1 circumference 8r over twice the point's
Manhattan distance.  Averaging those ratios over the 2r quarter-circle
samples gives the estimators:

* arithmetic mean  A = 2 sum(1 / a_n), which for the constructed paths
  approaches pi itself,
* harmonic mean    H = 8 r^2 / sum(a_n), which approaches 16 / (pi + 2).

The arithmetic mean tends to pi because one path step is one unit of l1
arc.  On the quarter circle x = r cos(theta), y = r sin(theta), so
x + y = r (cos(theta) + sin(theta)), and the l1 arc element is
dl1 = |dx| + |dy| = r (cos(theta) + sin(theta)) dtheta.  So sum(1 / a_n),
one unit of dl1 per term, is a Riemann sum of the integral of dl1 / (x + y)
= dtheta over 0..pi/2, and A = 2 sum(1 / a_n) tends to 2 (pi/2) = pi.  The
sum is exact, as harmonic numbers over the columns of the path, in
``L1Distances.reciprocal_total``.

Cell by cell, A moves against the area.  The path is the boundary
staircase of C, the cells under it.  Where it turns left, then up, at
(x - 1, y), the cell [x - 1, x] x [y, y + 1] is a corner that can join C;
with it the path turns up, then left, so one point moves from (x - 1, y)
to (x, y + 1), its a_n from s - 1 to s + 1 with s = x + y, and A changes
by 2 (1/(s + 1) - 1/(s - 1)) = -4/(s^2 - 1).  Removing a corner cell is
the reverse, +4/(s^2 - 1), for s >= 2.  In 4|C| below, the cell counts 4.

For the constructed path the harmonic mean counts a shifted lattice in a
disc, as the area does.  Its distances sum to sum(a_n) = 2|C| + r^2, where
C is the set of cells under the path, and 4|C| = N(rho), the number of
points of (Z + 1/2)^2 in the disc of radius^2 rho^2 = r^2 - 1/2 (the
``area`` module docstring).  Writing N(rho) = pi rho^2 + E(rho) gives
H = 16 r^2 / ((pi + 2) r^2 + E - pi/2), so H approaches 16 / (pi + 2) with
error about -16 (E - pi/2) / ((pi + 2)^2 r^2), at the rate of the Gauss
circle problem.

The angle-sampled sources approach a different constant,
(4 sqrt(2) / pi) (ln(2 + sqrt(2)) - ln(2 - sqrt(2))) = 3.174060...,
which equals the continuum average (8 sqrt(2) / pi) atanh(1 / sqrt(2)).
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import truediv
from typing import TYPE_CHECKING, Collection, NamedTuple, Sequence

from latticircle.choices import CostVariant, DiscretizationSource, Estimator
from latticircle.lattice import read_radius
from latticircle.signum import L1Distances, _require_approx_radius, generate_quadrant

if TYPE_CHECKING:
    from fractions import Fraction


class PiSequence(NamedTuple):
    """The 2r Manhattan distances a_n of one discretization of radius r,
    whose per-sample ratios are 4r / a_n.

    ``l1_values`` is sized and can be iterated any number of times.  For
    the signum source it is an ``L1Distances`` view that streams the a_n
    from the trace's 2r step bytes on each pass, so no 2r ints are stored;
    for the angle-sampled sources it is the list that
    ``reference.param_samples`` returns, uncopied."""

    radius: int
    source: DiscretizationSource
    l1_values: Collection


def pi_sequence(
    radius: int,
    source: DiscretizationSource | str,
    variant: CostVariant | str = CostVariant.EXACT,
) -> PiSequence:
    """Build the 2r-sample ratio sequence for one source.

    Each selector is read by its enum: "signum" reads as its member, and an
    unknown name raises ValueError before any work.

    Every a_n is positive but for one sample, so no sample is scanned:
    param-floor at r = 1 raises ValueError before sampling.  The signum
    walk never visits the origin, so every a_n >= 1 (``generate_quadrant``'s
    proof).  An angle sample is a = f(u) + f(v) with u = r cos phi,
    v = r sin phi, phi in [0, pi/2), and f the identity, floor or rounding.
    As u, v >= 0 and u^2 + v^2 = r^2, max(u, v) >= r / sqrt(2), so
    param-exact gives a > 0; param-round gives a >= floor(r / sqrt(2) + 1/2)
    >= 1 for every r >= 1; and param-floor gives a >= floor(r / sqrt(2))
    >= 1 for every r >= 2.  The float rounding of cos and sin, some
    10^-16 relative, is far below the margins, 0.41 for floor at r = 2
    and 0.21 for rounding at r = 1.  At r = 1 the samples are phi = 0,
    a = 1, and phi = pi/4, where u = v = 0.707..., so floor gives a = 0.
    Every cost variant runs the same hull walk, so they give the same
    trace."""
    radius = read_radius(radius)
    source, variant = DiscretizationSource(source), CostVariant(variant)
    if source is DiscretizationSource.PARAM_FLOOR and radius == 1:
        raise ValueError("nonpositive Manhattan distance 0 at radius 1")
    if source is DiscretizationSource.SIGNUM:
        l1s: Collection = L1Distances(radius, generate_quadrant(radius, variant).steps)
    else:
        # imported here, so a signum `pi` or `sweep` child never compiles it
        from latticircle import reference

        l1s = reference.param_samples(radius, source)
    return PiSequence(radius=radius, source=source, l1_values=l1s)


def arithmetic_mean_pi(seq: PiSequence) -> float:
    """Arithmetic mean of the ratios: 2 sum(1 / a_n), compensated summation.

    The signum view sums the first half only, by
    ``L1Distances.reciprocal_total``, which gives the float of the 2r terms."""
    values = seq.l1_values
    if isinstance(values, L1Distances):
        return 2 * values.reciprocal_total()
    return 2 * math.fsum(map(truediv, repeat(1), values))


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
    if source is DiscretizationSource.SIGNUM and variant is CostVariant.APPROX:
        _require_approx_radius(min(radii))
    return [estimate(r, estimator, source, variant) for r in radii]
