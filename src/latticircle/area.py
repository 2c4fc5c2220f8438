"""Quarter-disc area from the recursion, and integer cell-count bounds.

Every upward step of the quarter-circle walk closes off a vertical strip
of x unit cells, so summing x over the upward steps gives the area
enclosed by the path, the axes included.  Counting unit cells whose far
corner stays inside the circle (inner) and whose near corner does (outer)
brackets that area, and 4 area / r^2 approaches pi as r grows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from latticircle.lattice import read_radius
from latticircle.signum import CostVariant, QuadrantTrace, generate_quadrant, l1_sum


def area_recursive(trace: QuadrantTrace) -> int:
    """Cells under the quarter path: sum of x over upward steps n <= 2r - 2.

    The sum is read off the Manhattan distances a_n, which ``l1_sum`` sums
    from the first r steps alone, through sum(a_n) = 2 area + r^2 (the
    harmonic identity 1/H = area/(4r^2) + 1/8).  Proof: the path makes r
    up steps, the j-th at index k_j with x = r - k_j + j (because
    x_n - y_n = r - n), so area = r^2 + r(r-1)/2 - sum(k_j); each raises y
    at the 2r - 1 - k_j later points, so
    sum(y_n) = r(2r - 1) - sum(k_j) = area + (r^2 - r)/2; and
    sum(a_n) = 2 sum(y_n) + sum(r - n) = 2 sum(y_n) + r.
    """
    r = trace.radius
    return (l1_sum(trace.steps, r) - r * r) // 2


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
    Stern-Brocot walk of Sladkey (arXiv:1206.3369).  D is the lattice part
    of a convex set, so its hull lies in the disc and floor(hull(i)) = h_i:
    (i, h_i) is in D and hull(i) <= sqrt(r^2 - i^2) < h_i + 1.  From the
    vertex (0, r) the walk steps along each hull edge by its primitive
    direction (a, b), coprime, from (i, j) to (i + a, j - b).  One step
    passes columns i + t, t = 1..a, at heights j - ceil(tb/a), and
    sum_{t<=a} ceil(tb/a) = (a-1)(b+1)/2 + b: for t < a, tb/a is no
    integer, so ceil = floor + 1, and t <-> a - t pairs the floors to
    b - 1 each.

    A direction u fits at P when P + u is in D.  The next edge is the
    shallowest u that fits: the segment from P to a farther point of D
    holds P + u.  Edges only steepen, and (1, 1) always fits, since
    F(i+1, j-1) = F(i, j) + 2(i - j + 1) and j = h_i >= k > i; so the
    directions stay between (1, 0) and (1, 1), and the stack holds a chain
    of Farey neighbours (ad - bc = 1) from the current one down to (1, 1).
    Directions that do not fit are closed under addition: with u = (a, b),
    v = (c, d), F(P+u+v) = F(P+u) + F(P+v) - F(P) + 2(ac + bd), where
    F(P) <= 0, and i only grows.  So once the stack's top does not fit,
    popping to the first L that fits leaves the next edge between L and
    the last popped R, neighbours with R out: it is L or some iL + jR,
    i, j >= 1.  The mediant M = L + R is pushed as the new L when it fits
    and replaces R otherwise.  The search stops at L once M fails at
    Q = P + M with Q past column k, or with F not falling along L from Q.
    F always rises along R from Q, as F is convex and Q - R = P + L fits:
    F(Q+R) - F(Q) = F(Q) - F(P+L) + 2|R|^2 > 0.  So then
    F(Q + sL + tR) - F(Q) = s(F(Q+L) - F(Q)) + t(F(Q+R) - F(Q))
    + (s^2 - s)|L|^2 + (t^2 - t)|R|^2 + 2st L.R >= 0 for all integers
    s, t >= 0, and no iL + jR fits.

    Every lattice point with F = 0 lies on the circle, so it is an extreme
    point of D's hull: the walk lands on each one with i >= 1 and counts P
    from the same F it tests for the step.
    """
    r = read_radius(r)
    rsq = r * r
    k = math.isqrt(rsq // 2)
    i, j, f = 0, r, 0  # a hull vertex and F there
    stack = [(1, 1), (1, 0)]
    heights = squares = 0
    while True:
        a, b = stack.pop()
        while i + a <= k and (g := f + a * (2 * i + a) + b * (b - 2 * j)) <= 0:
            heights += a * j - ((a - 1) * (b + 1) >> 1) - b
            i, j, f = i + a, j - b, g
            squares += g == 0
        if i == k:
            break
        while True:  # L: the first direction on the stack that fits
            la, lb = stack[-1]
            if i + la <= k and f + la * (2 * i + la) + lb * (lb - 2 * j) <= 0:
                break
            a, b = stack.pop()
        while (qi := i + la + a) <= k:  # a, b is R
            qj = j - lb - b
            if qi * qi + qj * qj <= rsq:
                la, lb = la + a, lb + b
                stack.append((la, lb))
            elif 2 * (qi * la - qj * lb) + la * la + lb * lb >= 0:
                break
            else:
                a, b = la + a, lb + b
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
