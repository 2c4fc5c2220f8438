"""Recursive circle construction driven by exact sign decisions.

From a quadrant point (x, y) the path moves either left to (x-1, y) or up
to (x, y+1), whichever lands radially closer to the circle of radius r;
the leftward move wins exact ties.  Comparisons that would involve square
roots are resolved by repeated squaring in integer arithmetic, so every
platform produces the same trace and no radius overflows (Python integers
are unbounded).

Three equivalent step deciders are provided as the reference predicates:

* ``cost_exact``     compares the radial deviations of the two candidate
                     points directly,
* ``cost_simplified`` is the same decision rewritten in the diagonal
                     coordinates a = x + y and c = x - y - 1,
* ``cost_approx``    drops the square roots altogether and keeps only the
                     quadratic term; it is admitted for radius >= 5.

The exact trace itself is produced by ``_walk_midpoint``, an additions-only
second-order midpoint walker whose decisions equal ``cost_exact``'s on every
state (the proof is in ``generate_quadrant``).  A trace stores one signed
byte per step; points, distances and running sums are derived from it.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import neg

from latticircle.lattice import Point


class CostVariant(enum.Enum):
    """Which step decider drives the recursion."""

    EXACT = "exact"
    SIMPLIFIED = "simplified"
    APPROX = "approx"


def sgn(v) -> int:
    """Sign of v with the tie convention sgn(0) = -1."""
    return -1 if v <= 0 else 1


def cost_exact(x: int, y: int, r: int) -> int:
    """Step decision at (x, y) for radius r: +1 steps up, -1 steps left.

    Decides the sign of |r - sqrt((x-1)^2 + y^2)| - |r - sqrt(x^2 + (y+1)^2)|
    without floating point.  Writing u and v for the two squared candidate
    norms, the difference of squared deviations factors as
    (sqrt(u) - sqrt(v)) (sqrt(u) + sqrt(v) - 2r), and u < v always holds
    here (their difference is -2(x+y)), so only sqrt(u) + sqrt(v) versus 2r
    remains.  One more squaring reduces that to integer comparisons.
    """
    if r < 1:
        raise ValueError("radius must be >= 1")
    if x < 0 or y < 0 or (x == 0 and y == 0):
        raise ValueError("cost_exact needs a quadrant point other than the origin")
    u = (x - 1) * (x - 1) + y * y
    v = x * x + (y + 1) * (y + 1)
    # sqrt(u) + sqrt(v) < 2r  <=>  t > 0 and 4uv < t^2, with t = 4r^2 - u - v;
    # equality lands on the tie branch and ties step left.
    t = 4 * r * r - u - v
    return 1 if t > 0 and 4 * u * v < t * t else -1


def cost_simplified(a: int, c: int, r: int) -> int:
    """Step decision in diagonal coordinates: a = x + y, c = x - y - 1.

    Returns -sgn(a + (r/sqrt(2)) (sqrt((a-1)^2 + c^2) - sqrt((a+1)^2 + c^2))),
    decided exactly.  With p = (a-1)^2 + c^2 and q = (a+1)^2 + c^2 the inner
    expression has the sign of sqrt(2) a - r (sqrt(q) - sqrt(p)); both sides
    are nonnegative, so two squarings settle it in integers.  On the path c
    equals r - n - 1 at step n and may be negative; only c^2 enters.
    """
    if r < 1:
        raise ValueError("radius must be >= 1")
    if a < 1:
        raise ValueError("cost_simplified needs a = x + y >= 1")
    p = (a - 1) * (a - 1) + c * c
    q = (a + 1) * (a + 1) + c * c
    # sqrt(2) a vs r (sqrt(q) - sqrt(p)): square once to
    #   2 a^2 vs r^2 (p + q) - 2 r^2 sqrt(pq),
    # i.e. 2 r^2 sqrt(pq) vs w = r^2 (p + q) - 2 a^2, then square again.
    w = r * r * (p + q) - 2 * a * a
    if w < 0:
        return -1
    # d == 0 is the exact tie: the inner expression is 0 and -sgn(0) = +1.
    d = 4 * r ** 4 * p * q - w * w
    return -1 if d > 0 else 1


def cost_approx(a: int, c: int, r: int) -> int:
    """Integer-only step decision: -sgn(a^2 + c^2 + 1 - 2 r^2).

    On a lattice state (a = x + y, c = x - y - 1) the quadratic equals 2d,
    with d the midpoint decision variable of ``_walk_midpoint``, so this is
    the midpoint rule, and it agrees with ``cost_exact`` at every radius
    r >= 1 (see ``generate_quadrant``).  The r >= 5 guard is the domain the
    paper documents for this variant, not a correctness bound.
    """
    if r < 5:
        raise ValueError("approx requires radius ≥ 5")
    if a < 1:
        raise ValueError("cost_approx needs a = x + y >= 1")
    return -sgn(a * a + c * c + 1 - 2 * r * r)


@dataclass(frozen=True)
class QuadrantTrace:
    """Complete record of one quarter-circle recursion.

    Index n runs over the 2r generated points.  ``steps[n]`` is the step
    decision taken at point n (+1 up, -1 left), one signed byte per step;
    the array is never mutated.  Everything else is derived from it once,
    on first use, and cached: ``signs`` is ``steps`` as a tuple,
    ``l1_dists[n]`` the Manhattan distance x + y of point n from the
    center, ``sign_sums[n]`` the running sum of decisions up to and
    including n, and ``xs``, ``ys``, ``points`` the coordinates.
    """

    radius: int
    variant: CostVariant
    steps: array = field(hash=False)

    @cached_property
    def signs(self) -> tuple[int, ...]:
        return tuple(self.steps)

    @cached_property
    def sign_sums(self) -> tuple[int, ...]:
        return tuple(accumulate(self.steps))

    def iter_l1_dists(self):
        """Stream of ``l1_dists`` without building it: a_0 = r, a_{n+1} = a_n + s_n."""
        return accumulate(self.steps[:-1], initial=self.radius)

    @cached_property
    def l1_dists(self) -> tuple[int, ...]:
        return tuple(self.iter_l1_dists())

    @cached_property
    def xs(self) -> tuple[int, ...]:
        # x falls by one on each left step (byte 0xff); up steps are zeroed
        lefts = array("b", self.steps.tobytes().replace(b"\x01", b"\x00"))
        return tuple(accumulate(lefts[:-1], initial=self.radius))

    @cached_property
    def ys(self) -> tuple[int, ...]:
        # y rises by one on each up step (byte 0x01); left steps are zeroed
        ups = array("b", self.steps.tobytes().replace(b"\xff", b"\x00"))
        return tuple(accumulate(ups[:-1], initial=0))

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(zip(self.xs, self.ys))


def _walk_midpoint(r: int) -> array:
    """Exact quadrant steps by the second-order midpoint scheme, additions only.

    The decision variable is d = x^2 - x + y^2 + y + 1 - r^2, which starts
    at 1 - r at (r, 0).  The walk steps up when d <= 0 and left otherwise.
    An up step adds 2y + 2 to d and a left step subtracts 2x - 2; both
    differences change by 2 with each move along their axis (Bresenham,
    "A linear algorithm for incremental digital display of circular arcs",
    CACM 1977), so no multiplication is needed.  ``generate_quadrant``
    proves that the decisions are those of ``cost_exact``.
    """
    n_steps = 2 * r
    steps = array("b", [-1]) * n_steps  # every step left until set
    d = 1 - r
    up = 2  # 2y + 2
    left = 2 * r - 2  # 2x - 2
    for n in range(n_steps):
        if d <= 0:
            steps[n] = 1
            d += up
            up += 2
        else:
            d -= left
            left -= 2
    assert (left // 2 + 1, up // 2 - 1) == (0, r), "quarter turn must end at (0, r)"
    return steps


def _walk_predicate(r: int, decide) -> array:
    """Quadrant steps chosen by a reference predicate decide(a, c, r) in
    diagonal coordinates, called once per step."""
    n_steps = 2 * r
    steps = array("b", [-1]) * n_steps
    x, y = r, 0
    for n in range(n_steps):
        if decide(x + y, r - n - 1, r) > 0:
            steps[n] = 1
            y += 1
        else:
            x -= 1
    assert (x, y) == (0, r), "quarter turn must end one step past (1, r)"
    return steps


def generate_quadrant(r: int, variant: CostVariant = CostVariant.EXACT) -> QuadrantTrace:
    """Walk the quarter circle from (r, 0): 2r points, one decision each.

    The trace stops one step short of the vertical axis; a final leftward
    step from the last point would land on (0, r), which belongs to the
    next quadrant.  ``simplified`` and ``approx`` call their predicate at
    every step; ``exact`` runs ``_walk_midpoint``, which decides exactly as
    ``cost_exact`` does, by the following argument (compare McIlroy, "Best
    approximate circles on integer grids", ACM TOG 1983).

    Take a quadrant state (x, y) other than the origin, so a = x + y >= 1,
    and any r >= 1.  Let u = (x-1)^2 + y^2 and v = x^2 + (y+1)^2 be the
    squared norms of the two candidates.  Then v - u = 2a > 0 and
    2d = u + v - 2r^2.  ``cost_exact`` steps up iff AM < r, where
    AM = (sqrt(u) + sqrt(v)) / 2; the midpoint rule steps up iff QM <= r,
    where QM = sqrt((u + v) / 2) is the quadratic mean.

    * Midpoint up implies exact up: u != v, so AM < QM <= r.
    * Midpoint left implies exact left.  The gap between the means is
      QM^2 - AM^2 = (sqrt(v) - sqrt(u))^2 / 4 = a^2 / (sqrt(u) + sqrt(v))^2.
      Since sqrt(p^2 + q^2) >= (|p| + |q|) / sqrt(2), sqrt(u) >= (a - 1) / sqrt(2)
      and sqrt(v) >= (a + 1) / sqrt(2), so sqrt(u) + sqrt(v) >= sqrt(2) a
      and the gap is at most 1/2.  Now u + v is even, so d > 0 means
      (u + v) / 2 >= r^2 + 1, hence AM^2 >= r^2 + 1/2 > r^2 and AM > r.
    * Exact ties never occur: AM = r would need r^2 < QM^2 < r^2 + 1,
      and QM^2 is an integer.  In ``cost_exact``'s terms t^2 = 4uv never
      holds with t >= 0; nor with t < 0, which would need
      sqrt(v) - sqrt(u) = 2r, while that difference is
      2a / (sqrt(u) + sqrt(v)) <= sqrt(2) < 2r.

    At the origin the argument fails (u = v = 1) and indeed the rules
    differ there for r = 1, but the walk never visits it.
    """
    if r < 1:
        raise ValueError("radius must be >= 1")
    if variant is CostVariant.EXACT:
        steps = _walk_midpoint(r)
    elif variant is CostVariant.SIMPLIFIED:
        steps = _walk_predicate(r, cost_simplified)
    else:
        steps = _walk_predicate(r, cost_approx)
    return QuadrantTrace(radius=r, variant=variant, steps=steps)


@dataclass(frozen=True)
class CirclePath:
    """An ordered sequence of lattice points tracing a circle or an arc."""

    radius: int
    points: tuple[Point, ...]
    closed: bool


def assemble_full_circle(trace: QuadrantTrace) -> CirclePath:
    """Counterclockwise full circle: the quadrant plus its three rotations.

    The quadrant's 2r points exclude (0, r), so the four rotated copies are
    disjoint and concatenate to exactly 8r distinct points forming a closed
    4-connected loop.  Quarter turn k maps (x, y) to ``rotate90((x, y), k)``:
    (x, y), (-y, x), (-x, -y) and (y, -x), built here from the coordinate
    columns directly.
    """
    xs, ys = trace.xs, trace.ys
    neg_xs, neg_ys = tuple(map(neg, xs)), tuple(map(neg, ys))
    pts = (*zip(xs, ys), *zip(neg_ys, xs), *zip(neg_xs, neg_ys), *zip(ys, neg_xs))
    return CirclePath(radius=trace.radius, points=pts, closed=True)
