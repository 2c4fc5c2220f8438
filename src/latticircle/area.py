"""Quarter-disc area from the recursion, and integer cell-count bounds.

Every upward step of the quarter-circle walk closes off a vertical strip
of x unit cells, so summing x over the upward steps gives the area
enclosed by the path, the axes included.  Counting unit cells whose far
corner stays inside the circle (inner) and whose near corner does (outer)
brackets that area, and 4 area / r^2 approaches pi as r grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from latticircle.signum import CostVariant, QuadrantTrace, generate_quadrant


def area_recursive(trace: QuadrantTrace) -> int:
    """Cells under the quarter path: sum of x over upward steps n <= 2r - 2.

    The sum is read off the Manhattan distances a_n streamed from the step
    array, through sum(a_n) = 2 area + r^2 (the harmonic identity
    1/H = area/(4r^2) + 1/8).  Proof: the path makes r up steps, the j-th
    at index k_j with x = r - k_j + j (because x_n - y_n = r - n), so
    area = r^2 + r(r-1)/2 - sum(k_j); each raises y at the 2r - 1 - k_j
    later points, so sum(y_n) = r(2r - 1) - sum(k_j) = area + (r^2 - r)/2;
    and sum(a_n) = 2 sum(y_n) + sum(r - n) = 2 sum(y_n) + r.
    """
    r = trace.radius
    return (sum(trace.iter_l1_dists()) - r * r) // 2


def inner_outer_areas(r: int) -> tuple[int, int]:
    """Unit-cell counts bracketing the quarter-disc area.

    A cell with lower-left corner (i, j), i, j >= 0, counts as inner when
    its far corner satisfies (i+1)^2 + (j+1)^2 <= r^2 and as outer when its
    near corner satisfies i^2 + j^2 < r^2.
    """
    if r < 1:
        raise ValueError("radius must be >= 1")
    rsq = r * r
    # inner: a far corner at x = i (1 <= i <= r) admits far-corner heights
    # 1..isqrt(r^2 - i^2)
    inner = sum(math.isqrt(rsq - i * i) for i in range(1, r + 1))
    # outer: a near corner at x = i (0 <= i < r) admits heights j with
    # j^2 < r^2 - i^2, i.e. 0..isqrt(r^2 - i^2 - 1)
    outer = sum(math.isqrt(rsq - i * i - 1) + 1 for i in range(r))
    return inner, outer


def check_sum_identity(trace: QuadrantTrace) -> bool:
    """Running decision sums tie to the area:
    sum_{k=1}^{2r-2} sign_sums[k-1] == 2 area - r^2 - 1."""
    r = trace.radius
    lhs = sum(trace.sign_sums[k - 1] for k in range(1, 2 * r - 1))
    return lhs == 2 * area_recursive(trace) - r * r - 1


@dataclass(frozen=True)
class AreaReport:
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
    area = area_recursive(trace)
    inner, outer = inner_outer_areas(radius) if with_bounds else (None, None)
    return AreaReport(
        radius=radius,
        area=area,
        inner=inner,
        outer=outer,
        ratio=4 * area / (radius * radius),
    )
