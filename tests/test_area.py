import math
import random
import signal
from fractions import Fraction
from itertools import compress, repeat
from operator import gt

import pytest

from conftest import DIAGONAL_CELL_TIES, END_COLUMN_TIES, cached_trace, cell_centres_in_disc
from latticircle.area import (
    area_recursive,
    area_report,
    check_sum_identity,
    inner_outer_areas,
)
from latticircle.signum import _hull_runs, generate_quadrant


def brute_inner_outer(r):
    """Independent oracle: test every cell corner in the r x r block."""
    inner = sum(
        1
        for i in range(r)
        for j in range(r)
        if (i + 1) ** 2 + (j + 1) ** 2 <= r * r
    )
    outer = sum(1 for i in range(r) for j in range(r) if i * i + j * j < r * r)
    return inner, outer


def test_area_small_radii():
    assert [area_recursive(cached_trace(r)) for r in range(1, 11)] == [
        1, 3, 8, 13, 20, 28, 39, 52, 64, 79,
    ]


def area_by_columns(trace):
    """The first definition: x summed over the up steps n <= 2r - 2."""
    ups = map(gt, trace.steps[:-1], repeat(0))
    return sum(compress(trace.xs[:-1], ups))


def test_area_from_l1_sum_matches_column_sum():
    for r in range(1, 2001):
        trace = generate_quadrant(r)
        assert area_recursive(trace) == area_by_columns(trace), r


def half_integer_points_in_disc(r):
    """N(rho): the points (p, q) of (Z + 1/2)^2 with p^2 + q^2 <= r^2 - 1/2,
    counted over the whole disc as (P, Q) = (2p, 2q), odd, with
    P^2 + Q^2 <= 4r^2 - 2."""
    odd = range(-2 * r + 1, 2 * r, 2)
    return sum(P * P + Q * Q <= 4 * r * r - 2 for P in odd for Q in odd)


@pytest.mark.parametrize("r", list(range(1, 61)))
def test_area_counts_a_shifted_lattice_in_a_disc(r):
    # 4|C| = N(rho), rho^2 = r^2 - 1/2: the identity of the area module
    assert 4 * area_recursive(cached_trace(r)) == half_integer_points_in_disc(r)


def test_area_ratio_is_the_shifted_lattice_count_over_r_squared():
    # ratio = 4|C| / r^2 = N(rho) / r^2 = pi + (E - pi/2) / r^2 in exact
    # arithmetic, with N(rho) = pi rho^2 + E and rho^2 = r^2 - 1/2; the float
    # is that rational correctly rounded
    for r in range(1, 61):
        assert area_report(r).ratio == float(Fraction(half_integer_points_in_disc(r), r * r)), r


def test_area_counts_the_cell_centres_in_the_disc():
    for r in range(1, 2001):
        assert area_recursive(generate_quadrant(r)) == cell_centres_in_disc(r), r


def test_inner_outer_small_radii():
    assert inner_outer_areas(1) == (0, 1)
    assert inner_outer_areas(2) == (1, 4)
    assert inner_outer_areas(3) == (4, 9)
    assert inner_outer_areas(10) == (69, 86)


@pytest.mark.parametrize("r", list(range(1, 61)))
def test_inner_outer_match_brute_force(r):
    assert inner_outer_areas(r) == brute_inner_outer(r)


def two_sum_inner_outer(r):
    """The former two-pass formulas, one isqrt per column for each count."""
    rsq = r * r
    inner = sum(math.isqrt(rsq - i * i) for i in range(1, r + 1))
    outer = sum(math.isqrt(rsq - i * i - 1) + 1 for i in range(r))
    return inner, outer


def test_inner_outer_matches_the_two_sums():
    for r in range(1, 3001):
        assert inner_outer_areas(r) == two_sum_inner_outer(r), r


@pytest.mark.parametrize("r", [5, 25, 65, 325, 1105, 5525])
def test_inner_outer_on_radii_with_many_pythagorean_legs(r):
    inner, outer = inner_outer_areas(r)
    assert (inner, outer) == two_sum_inner_outer(r)
    assert outer - inner < 2 * r - 1  # some r^2 - i^2 is a perfect square


def octant_loop_inner_outer(r):
    """The former octant loop: one isqrt per column i <= isqrt(r^2 // 2)."""
    rsq = r * r
    k = math.isqrt(rsq // 2)
    heights = squares = 0
    for i in range(1, k + 1):
        n = rsq - i * i
        h = math.isqrt(n)
        heights += h
        squares += h * h == n
    inner = 2 * heights - k * k
    return inner, inner + 2 * r - 1 - 2 * squares


# 5525 = 5^2 13 17, 27625 = 5^3 13 17 and 32 * 5525 lie on many Pythagorean triples
HULL_RADII = sorted(
    {*range(1, 3001), *(2**k + d for k in range(2, 22) for d in (-1, 1)), 5525, 27625, 32 * 5525}
)


def test_hull_walk_matches_the_octant_loop():
    for r in HULL_RADII:
        assert inner_outer_areas(r) == octant_loop_inner_outer(r), r


@pytest.mark.parametrize("r", [5525, 27625, 32 * 5525])
def test_hull_walk_lands_on_every_circle_point(r):
    # every lattice point of the circle with 1 <= i <= k is a column whose
    # r^2 - i^2 is a perfect square; the walk must count each one
    k = math.isqrt(r * r // 2)
    on_circle = sum(math.isqrt(r * r - i * i) ** 2 == r * r - i * i for i in range(1, k + 1))
    inner, outer = inner_outer_areas(r)
    assert on_circle > 10
    assert outer - inner == 2 * r - 1 - 2 * on_circle


@pytest.mark.parametrize(
    "r, bounds",
    [
        # computed by the octant loop
        (10**7, (78539806337647, 78539826337632)),
        (2**24 + 1, (221069939322215, 221069972876622)),
    ],
)
def test_hull_walk_at_large_radii(r, bounds):
    assert inner_outer_areas(r) == bounds


@pytest.mark.slow
def test_hull_walk_matches_the_octant_loop_exhaustively():
    for r in range(1, 20_001):
        assert inner_outer_areas(r) == octant_loop_inner_outer(r), r


def circle_points_by_jacobi(r):
    """(r_2(r^2) - 4) / 8, the lattice points (i, j) of the circle of radius r
    with 0 < i < j.  By Jacobi's two-square theorem r_2(r^2), which counts
    every (i, j) with i^2 + j^2 = r^2, is 4 prod (2 e_p + 1) over the primes
    p = 1 (mod 4) that divide r, e_p times; the 4 points on the axes remain,
    and the others come in eights, (+-i, +-j) and (+-j, +-i)."""
    product, n, p = 1, r, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if p % 4 == 1:
            product *= 2 * e + 1
        p += 1
    if n % 4 == 1 and n > 1:
        product *= 3
    return (4 * product - 4) // 8


def circle_points_on_the_hull_walk(r):
    """The runs of the s = 0 walk that end at F = 0, which ``inner_outer_areas``
    counts as the columns whose r^2 - i^2 is a perfect square."""
    return sum(f == 0 for _, _, _, _, f, _ in _hull_runs(r, 0, math.isqrt(r * r // 2)))


def test_hull_walk_counts_the_circle_points_of_jacobi():
    # no O(r) oracle: the number of circle points follows from r's factors
    for r in range(1, 2001):
        assert circle_points_on_the_hull_walk(r) == circle_points_by_jacobi(r), r
    # 5525 = 5^2 13 17, 5^10 and 48612265 = 5 13 17 29 37 41
    for r, points in ((5525, 22), (5**10, 10), (48_612_265, 364)):
        assert circle_points_by_jacobi(r) == points, r
        assert circle_points_on_the_hull_walk(r) == points, r


@pytest.mark.slow
def test_hull_walk_counts_the_circle_points_of_jacobi_exhaustively():
    for r in range(1, 20_001):
        assert circle_points_on_the_hull_walk(r) == circle_points_by_jacobi(r), r
    # 2576450045 = 48612265 * 53, and 10^10 + 1 = 101 3541 27961
    for r, points in ((2_576_450_045, 1093), (10**10 + 1, 13)):
        assert circle_points_by_jacobi(r) == points, r
        assert circle_points_on_the_hull_walk(r) == points, r


def assert_runs_end_on_the_boundary(r, s, columns=()):
    """Each run of ``_hull_runs`` ends at the top of its column, on F's
    last point before F > 0 or column k, and the last run ends at column k;
    each run is steeper than the one before, as the edges of a hull are.
    The top of column i is the largest j with F(i, j) <= 0, and
    4F = (2i + s)^2 + (2j + s)^2 + 2s - 4r^2, so it is
    (isqrt(4r^2 - 2s - (2i + s)^2) - s) // 2.  Each of ``columns``, in
    ascending order, is the column i + t, 1 <= t <= a, that some step by
    (a, b) of a run passes from (i, j), and its top is j - ceil(tb/a)."""
    def F(i, j):
        return i * i + j * j + s * (i + j + 1) - r * r

    def top(i):
        return (math.isqrt(4 * r * r - 2 * s - (2 * i + s) ** 2) - s) // 2

    k = math.isqrt((r * r - s) // 2)
    i, slope = 0, (1, -1)
    inside = iter(columns)
    column = next(inside, None)
    for a, b, m, j, f, _ in _hull_runs(r, s, k):
        assert b * slope[0] > slope[1] * a, (r, s, i)
        start, height = i, j + m * b
        i, slope = i + m * a, (a, b)
        while column is not None and column <= i:
            steps, t = divmod(column - start - 1, a)
            assert height - steps * b + (-(t + 1) * b // a) == top(column), (r, s, column)
            column = next(inside, None)
        assert f == F(i, j) and f <= 0, (r, s, i)
        assert i + a > k or F(i + a, j - b) > 0, (r, s, i)
        assert j == top(i), (r, s, i)
    assert i == k and column is None, (r, s)


def random_columns(r, s, count=10_000):
    """Up to ``count`` distinct columns in 1..k, ascending, drawn with seed r."""
    k = math.isqrt((r * r - s) // 2)
    return sorted(random.Random(r).sample(range(1, k + 1), min(count, k)))


def test_hull_runs_end_on_the_boundary():
    for s in (0, 1):
        for r in range(1, 2001):
            assert_runs_end_on_the_boundary(r, s)


@pytest.mark.parametrize("r", [100, 5525, 65_537, 665_857, 10**6])
def test_heights_inside_runs_are_the_column_tops(r):
    for s in (0, 1):
        assert_runs_end_on_the_boundary(r, s, random_columns(r, s))


@pytest.mark.slow
@pytest.mark.parametrize("r", [4_478_554_083, 7_645_370_045])
def test_hull_runs_end_on_the_boundary_near_ten_to_the_ten(r):
    # one radius of each boundary family of test_signum.py: r^2 = 2k^2 + 1
    # puts the s = 1 walk's end column on F = 0, 2r^2 = (2k + 1)^2 + 1 the
    # diagonal cell (k, k); 2576450045 is in the Jacobi test above
    k = math.isqrt((r * r - 1) // 2)
    assert r * r == 2 * k * k + 1 or 2 * r * r == (2 * k + 1) ** 2 + 1
    for s in (0, 1):
        assert_runs_end_on_the_boundary(r, s, random_columns(r, s))


def cells_by_the_hull_walk(r):
    """|C|, the cells under the quarter path, from the s = 1 runs alone.

    The run-height sum, taken as ``inner_outer_areas`` takes it, is
    sum h_i over the columns 1..k, k = isqrt((r^2 - 1) // 2), where h_i is
    the top of column i; column 0 holds r cells, so the columns 0..k hold
    S0 = r + k + sum.  F is symmetric in i and j, so the rows 0..k hold S0
    as well.  No cell has i, j > k, since F(k + 1, k + 1) > 0 once
    2(k + 1)^2 > r^2 - 1, and every cell of the square i, j <= k is in C
    but (k, k) when F(k, k) = 2k(k + 1) + 1 - r^2 > 0.  So
    |C| = 2 S0 - (k + 1)^2 + [2k(k + 1) >= r^2]."""
    k = math.isqrt((r * r - 1) // 2)
    heights = 0
    for a, b, m, j, _, _ in _hull_runs(r, 1, k):
        heights += m * (a * j - ((a - 1) * (b + 1) >> 1) - b) + a * b * (m * (m + 1) >> 1)
    s0 = r + k + heights
    return 2 * s0 - (k + 1) ** 2 + (2 * k * (k + 1) >= r * r)


def test_hull_walk_counts_the_cells_under_the_path():
    for r in (*range(1, 2001), *END_COLUMN_TIES, *DIAGONAL_CELL_TIES):
        assert cells_by_the_hull_walk(r) == area_recursive(generate_quadrant(r)), r


@pytest.mark.slow
def test_hull_walk_counts_the_cells_under_the_path_at_powers_of_two():
    # up to 2^26 + 1, where the 2r step bytes of the oracle still fit
    for r in (2**j + d for j in range(1, 27) for d in (-1, 0, 1)):
        assert cells_by_the_hull_walk(r) == area_recursive(generate_quadrant(r)), r


def test_inner_outer_rejects_bad_radius():
    with pytest.raises(ValueError):
        inner_outer_areas(0)


def test_inner_outer_refuses_a_radius_of_months_before_it_walks():
    # 2^61 passes read_radius and holds O(1) memory, but its 8 * 10^11 runs
    # would take over a month; the prediction refuses it at once
    def expire(signum, frame):
        raise TimeoutError("inner_outer_areas(2**61) walked")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(OverflowError, match=r"^radius 2305843009213693952: 8\.029e\+11 hull "
                           r"runs predicted, over the cap 4e\+06$"):
            inner_outer_areas(2**61)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_inner_outer_run_cap_lies_between_two_radii(monkeypatch):
    # 0.46 r^(2/3) = 4 * 10^6 at r = 25 642 079 331.3; below it nothing is
    # refused, so the walk is replaced by one that takes no run
    with pytest.raises(OverflowError, match=r"^radius 25642079332: 4e\+06 hull runs predicted"):
        inner_outer_areas(25_642_079_332)
    monkeypatch.setattr("latticircle.area._hull_runs", lambda r, s, k: iter(()))
    r = 25_642_079_331
    k = math.isqrt(r * r // 2)
    assert inner_outer_areas(r) == (-k * k, 2 * r - 1 - k * k)


@pytest.mark.parametrize("r", list(range(1, 81)))
def test_sum_identity(r):
    assert check_sum_identity(cached_trace(r))


@pytest.mark.parametrize("r", list(range(1, 129)))
def test_area_is_bracketed_by_cell_counts(r):
    area = area_recursive(cached_trace(r))
    inner, outer = inner_outer_areas(r)
    assert inner <= area <= outer


@pytest.mark.parametrize("r", [4, 16, 64, 256])
def test_cell_counts_bracket_the_disc(r):
    inner, outer = inner_outer_areas(r)
    quarter_disc = math.pi * r * r / 4
    assert inner < quarter_disc < outer


def test_area_report_fields():
    rep = area_report(2)
    assert (rep.radius, rep.area, rep.inner, rep.outer) == (2, 3, 1, 4)
    assert rep.ratio == pytest.approx(3.0, abs=0)


def test_ratio_approaches_pi():
    errors = [abs(area_report(r).ratio - math.pi) for r in (10, 100, 1000)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.02
