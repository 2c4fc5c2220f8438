"""Quarter-disc area from the recursion, and integer cell-count bounds.

Every upward step of the quarter-circle walk closes off a vertical strip
of x unit cells, so summing x over the upward steps gives the area
enclosed by the path, the axes included.  Counting unit cells whose far
corner stays inside the circle (inner) and whose near corner does (outer)
brackets that area, and 4 area / r^2 approaches pi as r grows.

The cells under the path are C = {(i, j) >= 0 : (2i+1)^2 + (2j+1)^2 <= 4r^2 - 2}
(``signum._walk_hull``), so the area counts a shifted lattice in a disc:
4|C| = N(rho), the number of points of (Z + 1/2)^2 in the closed disc of
radius^2 rho^2 = r^2 - 1/2 about the origin.  Cell (i, j) is in C exactly
when its centre (i + 1/2, j + 1/2) is in that disc, and the reflections
(+-p, +-q) of the centres cover (Z + 1/2)^2 once each, since none of its
points lies on an axis.  So 4 area / r^2 = N(rho) / r^2 approaches pi at
the rate of the Gauss circle problem.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from latticircle.lattice import read_radius
from latticircle.signum import (CostVariant, L1Distances, QuadrantTrace, _hull_runs,
                                generate_quadrant)


def area_recursive(trace: QuadrantTrace) -> int:
    """Cells under the quarter path: sum of x over upward steps n <= 2r - 2.

    The sum is read off the Manhattan distances a_n, which
    ``L1Distances.total`` sums from the first r steps alone, through
    sum(a_n) = 2 area + r^2 (the harmonic identity 1/H = area/(4r^2) + 1/8).
    Proof: the path makes r up steps, the j-th at index k_j with
    x = r - k_j + j (because x_n - y_n = r - n), so
    area = r^2 + r(r-1)/2 - sum(k_j); each raises y at the 2r - 1 - k_j
    later points, so sum(y_n) = r(2r - 1) - sum(k_j) = area + (r^2 - r)/2; and
    sum(a_n) = 2 sum(y_n) + sum(r - n) = 2 sum(y_n) + r.
    """
    return (L1Distances(trace.radius, trace.steps).total() - trace.radius**2) // 2


# The hull walk takes 0.427-0.460 runs per r^(2/3), measured for r from 10^3
# to 10^8 (0.432 at 10^9 and 10^10 + 1).  A run costs 2.6-3.3 us for r from
# 10^4 to 10^9 and 4.1 us at 10^10 + 1, where r^2 passes 64 bits (in-process,
# two cores, Python 3.11).  A radius whose prediction at the top of that band
# passes the cap, about 16 s of walking (r near 2.6 * 10^10), is refused.
_RUNS_PER_R23 = 0.46
_MAX_RUNS = 4e6


def inner_outer_areas(r: int) -> tuple[int, int]:
    """Unit-cell counts bracketing the quarter-disc area.

    A cell with lower-left corner (i, j), i, j >= 0, counts as inner when
    its far corner satisfies (i+1)^2 + (j+1)^2 <= r^2 and as outer when its
    near corner satisfies i^2 + j^2 < r^2.

    Both come from the column heights h_i = isqrt(r^2 - i^2), i in 1..r-1.
    Inner: a far corner at x = i (1 <= i <= r) admits heights 1..h_i, and
    column r adds nothing, so inner = sum(h_i), the lattice points
    (i, j) >= 1 with i^2 + j^2 <= r^2.  Outer: a near corner at x = i admits
    j with j^2 < r^2 - i^2, i.e. ceil(sqrt(r^2 - i^2)) cells, which is h_i
    when r^2 - i^2 = h_i^2 and h_i + 1 otherwise; column 0 adds r.  So
    outer = inner + 2r - 1 - P, where P counts the columns whose r^2 - i^2
    is a perfect square.

    Only the octant i <= k = isqrt(floor(r^2 / 2)) is needed.  No lattice
    point lies on the diagonal: 2i^2 = r^2 would make sqrt(2) = r / i
    rational.  So i <= k exactly when 2i^2 < r^2, and then h_i >= k; a point
    with i > k has j <= k.  Swapping i and j maps the points with j > k,
    which number sum_{i<=k} (h_i - k), onto those with i > k, and the k^2
    points with i, j <= k remain: inner = 2 sum_{i<=k} h_i - k^2.  Likewise
    the perfect squares r^2 - i^2 = j^2 pair column i with column j != i,
    one of each pair on either side of k, so P is twice the count for i <= k.

    The octant sum is taken along the upper convex hull of the lattice
    points D = {(i, j) : 0 <= i <= k, F(i, j) <= 0}, F(i, j) = i^2 + j^2 - r^2,
    which has O(r^(2/3)) vertices (Balog and Barany, 1991), by the
    Stern-Brocot walk of Sladkey (arXiv:1206.3369): ``_hull_runs`` with
    s = 0, which ends at this k: both of its callers end at the largest k
    with 2k^2 <= r^2 - s.  One step by (a, b) from height j passes a
    columns with heights summing to aj - c, c = (a-1)(b+1)/2 + b, the
    ceiling sum there, so a run of m steps that ends at height j adds
    m(aj - c) + ab m(m+1)/2.

    Every lattice point with F = 0 lies on the circle, so it is an extreme
    point of D's hull: the walk lands on each one with i >= 1, at the end
    of a run, and counts P from the run's last F.

    A radius for which 0.46 r^(2/3) runs exceed 4 * 10^6 raises
    OverflowError, naming both, before the walk: 10^10 + 1 (2.1 * 10^6 runs
    predicted, about 8 s) is walked, and 2^61 (8 * 10^11, over a month at
    4 us a run) is refused.
    """
    r = read_radius(r)
    runs = _RUNS_PER_R23 * r ** (2 / 3)
    if runs > _MAX_RUNS:
        raise OverflowError(f"radius {r}: {runs:.4g} hull runs predicted, over the cap "
                            f"{_MAX_RUNS:g}")
    k = math.isqrt(r * r // 2)
    heights = squares = 0
    for a, b, m, j, f, _ in _hull_runs(r, 0, k):
        heights += m * (a * j - ((a - 1) * (b + 1) >> 1) - b) + a * b * (m * (m + 1) >> 1)
        squares += f == 0
    inner = 2 * heights - k * k
    return inner, inner + 2 * r - 1 - 2 * squares


def check_sum_identity(trace: QuadrantTrace) -> bool:
    """Running decision sums tie to the area:
    sum_{k=1}^{2r-2} sign_sums[k-1] == 2 area - r^2 - 1."""
    r = trace.radius
    return sum(trace.sign_sums[:-2]) == 2 * area_recursive(trace) - r * r - 1


class AreaReport(NamedTuple):
    """Area of one quarter path with its cell-count bracket and pi ratio."""

    radius: int
    area: int
    inner: int | None
    outer: int | None
    ratio: float


def area_report(
    radius: int, variant: CostVariant = CostVariant.EXACT, with_bounds: bool = True
) -> AreaReport:
    """Generate the trace for ``radius`` and report area, bounds and ratio;
    without ``with_bounds`` the bounds are skipped and read None."""
    trace = generate_quadrant(radius, variant)
    radius = trace.radius
    area = area_recursive(trace)
    inner, outer = inner_outer_areas(radius) if with_bounds else (None, None)
    return AreaReport(
        radius=radius,
        area=area,
        inner=inner,
        outer=outer,
        ratio=4 * area / (radius * radius),
    )
