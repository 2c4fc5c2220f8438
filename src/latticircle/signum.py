"""Recursive circle construction driven by exact sign decisions.

From a quadrant point (x, y) the path moves either left to (x-1, y) or up
to (x, y+1), whichever lands radially closer to the circle of radius r;
the leftward move wins exact ties.  Comparisons that would involve square
roots are resolved by repeated squaring in integer arithmetic, so every
platform produces the same trace and no radius overflows (Python integers
are unbounded).

Three equivalent step deciders are provided as the paper's predicates:

* ``cost_exact``     compares the radial deviations of the two candidate
                     points directly,
* ``cost_simplified`` is the same decision rewritten in the diagonal
                     coordinates a = x + y and c = x - y - 1,
* ``cost_approx``    drops the square roots altogether and keeps only the
                     quadratic term; it is admitted for radius >= 5.

The trace of every variant is produced by ``_walk_hull``, whose decisions
equal each predicate's on every state the walk reaches (the proofs are in
``generate_quadrant`` and ``cost_simplified``), so the variant only labels
the trace.  It reads the path off the convex hull of the cells the path
encloses, which has O(r^(2/3)) edges, found by the Stern-Brocot walk
``_hull_runs``, and writes each edge's steps as one repeated byte pattern.
``_walk_predicate``, which calls a predicate at every step, is kept as the
reference walker that the tests compare with it.  A trace stores one
signed byte per step; points, distances and running sums are derived from
it.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import fsum, isqrt
from operator import eq, neg, truediv
from typing import Iterator, NamedTuple

from latticircle.choices import CostVariant
from latticircle.lattice import Point, PointColumns, read_radius, require_memory


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
    decided exactly by one integer comparison.  With p = (a-1)^2 + c^2 and
    q = (a+1)^2 + c^2 the inner expression has the sign of
    sqrt(2) a - r (sqrt(q) - sqrt(p)), and both sides are nonnegative.
    Squaring once gives 2 r^2 sqrt(pq) versus w = r^2 (p + q) - 2 a^2, and
    w > 0 for every r >= 1: with s = a^2 + c^2 + 1, p + q = 2s and
    w = 2 a^2 (r^2 - 1) + 2 r^2 (c^2 + 1).  Squaring again, pq = s^2 - 4a^2
    gives 4 r^4 pq - w^2 = 4 a^2 (2 r^2 (s - 2 r^2) - a^2), and a >= 1, so
    the step goes left exactly when 2 r^2 (s - 2 r^2) > a^2.  Equality is
    the exact tie: the inner expression is 0 and -sgn(0) = +1.  On the path
    c equals r - n - 1 at step n and may be negative; only c^2 enters.

    It decides as ``cost_approx``'s rule, up exactly when
    a^2 + c^2 + 1 <= 2 r^2, on every integer state with a >= 1 and r >= 1.  Put e = a^2 + c^2 + 1 - 2 r^2.  If e <= 0, both step up:
    2 r^2 e <= 0 < a^2.  If e >= 1, approx steps left, and this rule steps
    up only when 2 r^2 e <= a^2.  That needs a^2 >= 2 r^2, and then
    2 r^2 (a^2 + 1 - 2 r^2) <= 2 r^2 e <= a^2, that is
    (2 r^2 - 1)(a^2 - 2 r^2) <= 0, which forces a^2 = 2 r^2.  No integers
    satisfy that, as sqrt(2) is irrational.
    """
    if r < 1:
        raise ValueError("radius must be >= 1")
    if a < 1:
        raise ValueError("cost_simplified needs a = x + y >= 1")
    rr = r * r
    return -1 if 2 * rr * (a * a + c * c + 1 - 2 * rr) > a * a else 1


def _require_approx_radius(r: int) -> None:
    """Raise ValueError below approx's documented domain, r >= 5."""
    if r < 5:
        raise ValueError("approx requires radius ≥ 5")


def cost_approx(a: int, c: int, r: int) -> int:
    """Integer-only step decision: -sgn(a^2 + c^2 + 1 - 2 r^2).

    With sgn(0) = -1 that is +1 exactly when a^2 + c^2 + 1 <= 2 r^2, which
    is how it is computed.  On a lattice state (a = x + y, c = x - y - 1)
    the quadratic equals 2d, with d = x^2 - x + y^2 + y + 1 - r^2 the
    midpoint decision variable, so this is the midpoint rule, and it
    agrees with ``cost_exact`` at every radius r >= 1 (see
    ``generate_quadrant``).  The r >= 5 guard, ``_require_approx_radius``,
    is the domain the paper documents for this variant, not a correctness
    bound.
    """
    _require_approx_radius(r)
    if a < 1:
        raise ValueError("cost_approx needs a = x + y >= 1")
    return 1 if a * a + c * c + 1 <= 2 * r * r else -1


def _distances(steps: array, r: int, n: int) -> Iterator[int]:
    """a_0, ..., a_n, the Manhattan distances of the first n + 1 points of
    the radius-r trace whose steps are ``steps``: a_0 = r, and step m adds
    s_m.  The first n bytes are read through a view, so none is copied."""
    return accumulate(memoryview(steps)[:n], initial=r)


class QuadrantTrace:
    """Complete record of one quarter-circle recursion.

    Index n runs over the 2r generated points.  ``steps[n]`` is the step
    decision taken at point n (+1 up, -1 left), one signed byte per step;
    the array is never mutated.  Everything else is derived from it once,
    on first use, and cached: ``signs`` is ``steps`` as a tuple,
    ``l1_dists[n]`` the Manhattan distance x + y of point n from the
    center, ``sign_sums[n]`` the running sum of decisions up to and
    including n, and ``xs``, ``ys``, ``points`` the coordinates.

    Every trace mirrors in the diagonal: s_{2r-1-n} = -s_n, so point 2r - n
    is point n with x and y swapped.  ``_walk_hull``, which every variant
    runs, proves it and decides only the first half; the reference walker
    ``_walk_predicate`` asserts it of each predicate's walk.  ``ys``
    mirrors ``xs`` by ``mirror``, sharing its int objects, and reductions
    may read ``steps[:r]`` alone.
    """

    def __init__(self, radius: int, variant: CostVariant, steps: array) -> None:
        self.radius = radius
        self.variant = variant
        self.steps = steps

    @cached_property
    def signs(self) -> tuple[int, ...]:
        return tuple(self.steps)

    @cached_property
    def sign_sums(self) -> tuple[int, ...]:
        return tuple(accumulate(self.steps))

    @cached_property
    def l1_dists(self) -> tuple[int, ...]:
        return tuple(L1Distances(self.radius, self.steps))

    @cached_property
    def xs(self) -> tuple[int, ...]:
        # x falls by one on each left step (byte 0xff); up steps are zeroed
        lefts = array("b", self.steps.tobytes().replace(b"\x01", b"\x00"))
        return tuple(accumulate(lefts[:-1], initial=self.radius))

    @cached_property
    def ys(self) -> tuple[int, ...]:
        return mirror(self.xs, 0)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(zip(self.xs, self.ys))


_COUNT_BLOCK = 1 << 14


class L1Distances:
    """The Manhattan distances a_0, ..., a_{2r-1} of a trace, streamed from
    its step bytes instead of stored: ``len`` is 2r, and each iteration
    runs accumulate(steps[:2r-1], initial=r) afresh at C speed, so the 2r
    ints are never alive at once.  It is the one producer of a_n:
    ``QuadrantTrace.l1_dists`` is its tuple, which it compares equal to, so
    it is unhashable: it defines ``__eq__`` and no ``__hash__``, for which
    Python sets ``__hash__`` to None.

    ``total`` and ``reciprocal_total`` reduce them from a_0..a_r alone, the
    first r steps: point 2r - n mirrors point n (see ``QuadrantTrace``), so
    a_{2r-n} = a_n for 1 <= n <= 2r - 1, and every a_n with 0 < n < r
    stands for two."""

    __slots__ = ("radius", "steps")

    def __init__(self, radius: int, steps: array) -> None:
        self.radius = radius
        self.steps = steps

    def __len__(self) -> int:
        return 2 * self.radius

    def __iter__(self) -> Iterator[int]:
        return _distances(self.steps, self.radius, 2 * self.radius - 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, L1Distances)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def total(self) -> int:
        """sum(a_n) over the 2r points, an exact int: by the mirror,
        sum_{n<2r} a_n = 2 sum_{n<=r} a_n - a_0 - a_r, and point r lies on
        the diagonal, so a_r = 2 y_r, twice the up steps among the first r.
        They are counted in blocks of ``_COUNT_BLOCK`` bytes, so no copy of
        the steps exceeds one block."""
        r, half = self.radius, memoryview(self.steps)[: self.radius]
        ups = sum(half[i : i + _COUNT_BLOCK].tobytes().count(1) for i in range(0, r, _COUNT_BLOCK))
        return 2 * sum(_distances(self.steps, r, r)) - r - 2 * ups

    def reciprocal_total(self) -> float:
        """sum(1 / a_n) over the 2r points, by compensated summation.

        By the mirror the terms are 1/a_0, 1/a_r and 2/a_n for 0 < n < r,
        weights 1, 2, ..., 2, 1 over a_0..a_r.  The float is the one that
        fsum gives over the 2r terms 1/a_n: 2/a rounds to exactly twice the
        rounding of 1/a, so the new terms add up exactly to the old ones,
        and fsum rounds the exact sum of its terms.

        Exactly, the sum runs over the columns of the cells C under the path
        (``_walk_hull``): column x, for x = r, ..., 1, holds the points
        (x, H_x), ..., (x, H_{x-1}), with a = x + H_x, ..., x + H_{x-1}, so
        with Harm(m) = sum_{j=1}^{m} 1/j,
        sum_{n<2r} 1/a_n = sum_{x=1}^{r} (Harm(x + H_{x-1}) - Harm(x + H_x - 1)).
        H_x is the height of column x of C, the number of j >= 0 with
        (2j+1)^2 <= 4r^2 - 2 - (2x+1)^2, (isqrt of that bound + 1) // 2 when
        it is positive and 0 otherwise; H_0 = r and H_r = 0."""
        r = self.radius
        return fsum(map(truediv, chain((1,), repeat(2, r - 1), (1,)), _distances(self.steps, r, r)))


_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")  # s -> -s on signed bytes


def _hull_runs(r: int, s: int, k: int) -> Iterator[tuple[int, int, int, int, int, bytes]]:
    """The upper convex hull of D = {(i, j) : 0 <= i <= k, F(i, j) <= 0}, with
    F(i, j) = i^2 + j^2 + s(i + j + 1) - r^2 and s in {0, 1}, as edge runs
    (a, b, m, j, f, P): m steps by the coprime direction (a, b), each from
    (i, j) to (i + a, j - b), ending at height j with F = f, and P = P(a, b),
    the step pattern of one step.

    For s = 0, D is the lattice part of the disc of radius r about the
    origin (``area.inner_outer_areas``); for s = 1 it is the cells of the
    quadrant path (``_walk_hull``): 4F = (2i+1)^2 + (2j+1)^2 - 4r^2 + 2.
    The walk starts at the top of column 0, (0, r - s), and ends at column
    k, which both callers choose by one rule: the largest k with
    2k^2 <= r^2 - s.  Then F(k - 1, k) = 2k^2 + 2(s - 1)k + 1 - r^2 <= 0
    (for s = 0 and k >= 1 it is at most 1 - 2k).  The top h_i of column
    i, the largest j with F(i, j) <= 0, falls as i grows, so
    h_i >= k >= i + 1 for every i < k.  D is the lattice part of a convex
    set, so its hull lies in that set and floor(hull(i)) = h_i: (i, h_i) is
    in D and hull(i) < h_i + 1.  So one step by (a, b) passes columns
    i + t, t = 1..a, at heights j - ceil(tb/a), and its column drops are
    d_t = ceil(tb/a) - ceil((t-1)b/a).  Their partial sums total
    sum_{t<=a} ceil(tb/a) = (a-1)(b+1)/2 + b: for t < a, tb/a is no
    integer, so ceil = floor + 1, and t <-> a - t pairs the floors to
    b - 1 each.

    A direction u fits at P when P + u is in D.  The next edge is the
    shallowest u that fits: the segment from P to a farther point of D
    holds P + u.  Edges only steepen, and (1, 1) always fits before column
    k, since F(i+1, j-1) = F(i, j) + 2(i - j + 1) and j = h_i > i; so the
    directions stay between (1, 0) and (1, 1), and the stack holds a chain
    of Farey neighbours from the current one down to (1, 1).  Directions
    that do not fit are closed under addition: with u = (a, b),
    v = (c, d), F(P+u+v) = F(P+u) + F(P+v) - F(P) + 2(ac + bd), where
    F(P) <= 0, and i only grows.  So once the stack's top does not fit,
    popping to the first L that fits leaves the next edge between L and
    the last popped R, neighbours with R out: it is L or some xL + yR,
    x, y >= 1.  The mediant M = L + R is pushed as the new L when it fits
    and replaces R otherwise.  The search stops at L once M fails at
    Q = P + M with Q past column k, or with F not falling along L from Q.
    F always rises along R from Q, as F is convex and Q - R = P + L fits:
    F(Q+R) - F(Q) = F(Q) - F(P+L) + 2|R|^2 > 0.  So then
    F(Q + xL + yR) - F(Q) = x(F(Q+L) - F(Q)) + y(F(Q+R) - F(Q))
    + (x^2 - x)|L|^2 + (y^2 - y)|R|^2 + 2xy L.R >= 0 for all integers
    x, y >= 0, and no xL + yR fits.  Along a run F is a strictly convex
    quadratic in the step count, so a run lands on F = 0 only at its ends.

    The pattern P(a, b) is one up step (byte 0x01) and then d_t left steps
    (0xff) for t = 1..a, the bytes ``_walk_hull`` writes for the step.
    P(1, 0) is up and P(1, 1) is up, left, the stack's first entries.  For
    Farey neighbours L = (a, b), the steeper, and R = (c, d), bc - ad = 1,
    P(L + R) = P(L) + P(R): the drops of M = L + R are L's over its first
    a columns and R's over its last c.
    With beta = (b+d)/(a+c), that is ceil(t beta) = ceil(tb/a) for t <= a
    and ceil((a+u) beta) = b + ceil(ud/c) for u <= c.  In both the two
    values differ only if an integer n lies between them.  First,
    t beta <= n < tb/a puts (t, n) in the cone of M and L, so
    (t, n) = xL + yM with integers x >= 0, y >= 1, as |det(L, M)| = 1, and
    t >= a + c > a.  Second, (a+u) beta - b = (u(b+d) - 1)/(a+c) <= ud/c;
    an integer n from the one up to below the other gives (a+u, b+n) a
    slope of at least beta and at most d/c < beta.  These are the
    Christoffel words and their standard factorization (Borel and Laubie,
    1993).

    So the search carries the patterns in one byte string, the word:
    P(u) is its first a + b bytes for every u on the stack and for the
    last direction walked or popped.  P(1, 0) is the first byte of
    P(1, 1), and a pushed M has its L, the entry below it, as prefix.
    While the mediants are searched, the word is P(M) = P(L) + P(R), so
    M becoming L appends P(R), the part past P(L), and M becoming R
    prepends P(L).  A pattern per stack entry would cost far more: near
    the top of the circle the stack holds (1, 1), (2, 1), ..., (n, 1),
    with n of order sqrt(r), and their patterns n^2 / 2 bytes.
    """
    rs = r * r - s  # F(i, j) = i(i + s) + j(j + s) - rs
    i, j, f = 0, r - s, s * (1 - r)
    stack, word = [(1, 1), (1, 0)], b"\x01\xff"  # P(1, 1); P(1, 0) is its first byte
    while True:
        a, b = stack.pop()
        # F(P + u) - F(P) along the run, which grows by 2|u|^2 a step
        d, w = a * (2 * i + a + s) + b * (b - 2 * j - s), 2 * (a * a + b * b)
        m, top = 0, (k - i) // a
        while m < top and (g := f + d) <= 0:
            f, d, m = g, d + w, m + 1
        if m:
            i, j = i + m * a, j - m * b
            yield a, b, m, j, f, word[: a + b]
        if i == k:
            return
        la, lb = stack[-1]  # L: the first direction on the stack that fits
        while i + la > k or f + la * (2 * i + la + s) + lb * (lb - 2 * j - s) > 0:
            a, b = stack.pop()
            la, lb = stack[-1]
        word = word[: la + lb] + word[: a + b]  # P(L) + P(R), with (a, b) as R
        while (qi := i + la + a) <= k:
            qj = j - lb - b
            if qi * (qi + s) + qj * (qj + s) <= rs:
                la, lb, word = la + a, lb + b, word + word[la + lb :]
                stack.append((la, lb))
            elif la * (2 * qi + la + s) + lb * (lb - 2 * qj - s) >= 0:
                break
            else:
                a, b, word = la + a, lb + b, word[: la + lb] + word


def _walk_hull(r: int) -> array:
    """Exact quadrant steps from the hull of the cells below the path.

    With f(i, j) = i^2 + i + j^2 + j + 1 - r^2, F of ``_hull_runs`` for
    s = 1, the exact rule steps up at (x, y) exactly when d = f(x-1, y) <= 0
    (``generate_quadrant``), that is, when the unit cell [x-1, x] x [y, y+1]
    lies in C = {(i, j) >= 0 : f(i, j) <= 0}, the cells whose centres
    satisfy (2i+1)^2 + (2j+1)^2 <= 4r^2 - 2.  f grows in i and in j, so C
    is a down-set: column i of C is the cells j < H_i, with H_i
    nonincreasing, H_0 = r (f(0, r-1) = 1 - r <= 0 < f(0, r)) and H_r = 0.
    By induction on x from r down to 1, the walk reaches x at height
    H_x <= H_{x-1}, climbs to H_{x-1} and steps left; so the cells below
    and left of the path are exactly C, and the path is C's boundary
    staircase from (r, 0) to (0, r).

    Such a staircase is determined by the cells below it, and
    f(i, j) = f(j, i), so reflection in the diagonal maps C, and hence the
    path, onto itself, traversed backwards.  The point (x, y) is point
    n = r - x + y, so point 2r - n is the reflection of point n, and step n
    reflected and run backwards is step 2r - 1 - n with up and left
    swapped: s_{2r-1-n} = -s_n.  Point r lies on the diagonal.  So only the
    first r steps are decided.

    Reflected, they run from (0, r) along the top of C: one up step across
    column i, then H_i - H_{i+1} left steps, for i = 0, 1, ..., up to r
    steps.  The top cell of column i is H_i - 1, so a hull step by (a, b)
    emits P(a, b) of ``_hull_runs``, and a run of m steps emits it m times.
    The hull is walked to column k, the largest with 2k^2 <= r^2 - 1, that
    is f(k - 1, k) = 2k^2 + 1 - r^2 <= 0, as ``_hull_runs`` requires; that
    emits the k + r - H_k steps of columns 0..k-1, and H_k - k remain.
    H_k >= k: for k >= 1 the cell (k, k - 1) is in C, as its mirror
    (k - 1, k) is.
    H_k <= k + 1: f(k, k + 1) = 2(k + 1)^2 + 1 - r^2 > 0 by the choice of k.
    So one step remains, the up step across the diagonal cell (k, k),
    exactly when f(k, k) = 2k^2 + 2k + 1 - r^2 <= 0.  At r = 1, k = 0:
    there is no run, and that step is the walk.

    Each run goes to its place n and, reversed and negated, to its mirror
    place 2r - n - len(run), through an unsigned view of the step array:
    the walk holds the 2r bytes and one run.
    """
    steps = array("b", [0]) * (2 * r)
    out = memoryview(steps).cast("B")  # a "b" view refuses bytes objects

    k = isqrt((r * r - 1) // 2)
    n = 0
    for run in (p * m for _, _, m, _, _, p in _hull_runs(r, 1, k)):
        out[n : n + len(run)] = run
        out[2 * r - n - len(run) : 2 * r - n] = run[::-1].translate(_NEGATE)
        n += len(run)
    if 2 * k * (k + 1) < r * r:  # f(k, k) <= 0: up across the diagonal cell, mirrored left
        steps[n], steps[2 * r - 1 - n], n = 1, -1, n + 1
    assert n == r, "half turn must end on the diagonal"
    return steps


def _walk_predicate(r: int, decide) -> array:
    """The reference walker: quadrant steps chosen by a predicate
    decide(a, c, r) in diagonal coordinates, called once per step.

    No variant runs it: ``generate_quadrant`` runs ``_walk_hull`` for all
    three, and the tests compare this walk with that one for the paper's
    predicates ``cost_simplified`` and ``cost_approx``.

    Step n is taken at a = x + y and c = r - n - 1; an up step raises a by
    one and a left step lowers it by one."""
    steps = array("b", [-1]) * (2 * r)
    a, n = r, 0
    for c in range(r - 1, -r - 1, -1):
        if decide(a, c, r) > 0:
            steps[n] = 1
            a += 1
        else:
            a -= 1
        n += 1
    # after 2r unit steps a = 2u - r for u up steps, so a == r iff (x, y) = (0, r)
    assert a == r, "quarter turn must end one step past (1, r)"
    # s_{2r-1-n} = -s_n, which lets every reduction read the first half only
    mirrored = steps[r - 1 :: -1].tobytes().translate(_NEGATE)
    assert steps[r:].tobytes() == mirrored, "quarter turn must mirror in the diagonal"
    return steps


def require_step_memory(r: int) -> None:
    """Raise MemoryError, by ``require_memory``, when the 2r step bytes of a
    radius-r walk exceed physical memory."""
    require_memory(f"{2 * r} steps", 2 * r, "for the step array")


def generate_quadrant(r: int, variant: CostVariant | str = CostVariant.EXACT) -> QuadrantTrace:
    """Walk the quarter circle from (r, 0): 2r points, one decision each.

    The trace stops one step short of the vertical axis; a final leftward
    step from the last point would land on (0, r), which belongs to the
    next quadrant.  ``r`` is read by ``read_radius`` and ``variant`` by
    ``CostVariant``, so ``True`` walks radius 1 and "exact" as the member
    does, while a float such as 2.0 or an unknown name raises before any work.
    So does a radius whose 2r step bytes exceed physical memory, with
    MemoryError from ``require_memory``.

    Every variant runs ``_walk_hull``, which steps up at (x, y) exactly
    when d = x^2 - x + y^2 + y + 1 - r^2 <= 0, the midpoint rule, so
    ``variant`` only labels the trace; ``approx`` keeps its documented
    domain r >= 5, refused before the step array is allocated.  The three
    predicates decide as the midpoint rule on every state the walk reaches:
    ``cost_approx``'s quadratic is 2d there, ``cost_simplified`` decides as
    ``cost_approx`` on every integer state (its docstring), and the midpoint
    rule decides exactly as ``cost_exact`` does, by the following argument
    (compare McIlroy, "Best approximate circles on integer grids", ACM TOG
    1983).

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
    r, variant = read_radius(r), CostVariant(variant)
    if variant is CostVariant.APPROX:
        _require_approx_radius(r)
    require_step_memory(r)
    return QuadrantTrace(radius=r, variant=variant, steps=_walk_hull(r))


class CirclePath(NamedTuple):
    """The lattice points of a circle, in order, as x and y columns."""

    radius: int
    points: PointColumns


def mirror(xs, zero):
    """A quadrant's y column, sharing the cells of its x column: y_0 is
    ``zero`` and y_{2r-n} = x_n, the diagonal mirror (see ``QuadrantTrace``)."""
    return (zero, *xs[:0:-1])


def circle_columns(xs, neg_xs, zero):
    """The full circle's x and y columns from the quadrant's x column, its
    negation and the cell for 0, as ints or as their decimal strings alike:
    quarter turns 0..3 map (x, y) to (x, y), (-y, x), (-x, -y) and (y, -x)."""
    ys, neg_ys = mirror(xs, zero), mirror(neg_xs, zero)
    return (*xs, *neg_ys, *neg_xs, *ys), (*ys, *xs, *neg_ys, *neg_xs)


def assemble_full_circle(trace: QuadrantTrace) -> CirclePath:
    """Counterclockwise full circle: the quadrant plus its three rotations,
    the columns that ``circle_columns`` lays out.  The quadrant's 2r points
    exclude (0, r), so the four rotated copies are disjoint and concatenate
    to exactly 8r distinct points forming a closed 4-connected loop."""
    xs = trace.xs
    return CirclePath(trace.radius, PointColumns(*circle_columns(xs, tuple(map(neg, xs)), 0)))
