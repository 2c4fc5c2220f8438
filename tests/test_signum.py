import decimal
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cached_trace
from latticircle.lattice import check_path, l2_norm_sq
from latticircle.signum import (
    CostVariant,
    assemble_full_circle,
    cost_approx,
    cost_exact,
    cost_simplified,
    generate_quadrant,
    sgn,
)


def highprec_step_sign(x, y, r, prec=60):
    """Independent check: evaluate the radial-deviation difference with
    60-digit decimals and take its sign."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        rr = decimal.Decimal(r)
        d_left = abs(rr - decimal.Decimal((x - 1) ** 2 + y * y).sqrt())
        d_up = abs(rr - decimal.Decimal(x * x + (y + 1) ** 2).sqrt())
        diff = d_left - d_up
    return -1 if diff <= 0 else 1


def test_sgn_tie_goes_negative():
    assert sgn(0) == -1
    assert sgn(0.0) == -1
    assert sgn(-3) == -1
    assert sgn(-0.25) == -1
    assert sgn(2) == 1
    assert sgn(0.0001) == 1


def test_cost_exact_examples():
    assert cost_exact(2, 0, 2) == 1
    assert cost_exact(2, 1, 2) == -1
    assert cost_exact(1, 0, 1) == 1


def test_cost_exact_first_step_always_up():
    for r in range(1, 200):
        assert cost_exact(r, 0, r) == 1


def test_cost_exact_rejects_bad_input():
    with pytest.raises(ValueError):
        cost_exact(0, 0, 1)
    with pytest.raises(ValueError):
        cost_exact(-1, 2, 3)
    with pytest.raises(ValueError):
        cost_exact(2, 1, 0)


def test_cost_simplified_examples():
    assert cost_simplified(2, 1, 2) == 1
    assert cost_simplified(2, 1, 2) == cost_exact(2, 0, 2)
    for r in (1, 2, 3, 10, 99):
        assert cost_simplified(r, r - 1, r) == 1


def test_cost_simplified_matches_the_trace_state_by_state():
    # at step n the diagonal coordinates are a = x + y and c = r - n - 1
    for r in (1, 2, 3, 5, 17):
        trace = cached_trace(r)
        for n in range(2 * r):
            a = trace.xs[n] + trace.ys[n]
            c = r - n - 1
            assert cost_simplified(a, c, r) == trace.signs[n], (r, n)


def test_cost_approx_examples():
    assert cost_approx(10, 9, 10) == 1
    assert cost_approx(13, 6, 10) == -1
    assert cost_approx(11, 8, 10) == 1


def test_cost_approx_rejects_small_radii():
    for r in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="approx requires radius"):
            cost_approx(r, r - 1, r)


def test_quadrant_r1():
    t = cached_trace(1)
    assert t.points == ((1, 0), (1, 1))
    assert t.signs == (1, -1)
    assert t.l1_dists == (1, 2)
    assert t.sign_sums == (1, 0)


def test_quadrant_r2():
    t = cached_trace(2)
    assert t.points == ((2, 0), (2, 1), (1, 1), (1, 2))
    assert t.signs == (1, -1, 1, -1)
    assert t.l1_dists == (2, 3, 2, 3)
    assert t.sign_sums == (1, 0, 1, 0)


def test_quadrant_r3():
    t = cached_trace(3)
    assert t.points == ((3, 0), (3, 1), (3, 2), (2, 2), (2, 3), (1, 3))
    assert t.signs == (1, 1, -1, 1, -1, -1)


def test_quadrant_r5():
    t = cached_trace(5)
    assert t.points == (
        (5, 0), (5, 1), (5, 2), (4, 2), (4, 3),
        (4, 4), (3, 4), (2, 4), (2, 5), (1, 5),
    )
    assert t.signs == (1, 1, -1, 1, 1, -1, -1, 1, -1, -1)


def test_quadrant_rejects_bad_radius():
    with pytest.raises(ValueError):
        generate_quadrant(0)
    with pytest.raises(ValueError, match="approx requires radius"):
        generate_quadrant(3, CostVariant.APPROX)


def assert_trace_invariants(trace):
    r = trace.radius
    n_pts = 2 * r
    assert len(trace.xs) == len(trace.ys) == n_pts
    assert len(trace.signs) == len(trace.l1_dists) == len(trace.sign_sums) == n_pts
    assert (trace.xs[0], trace.ys[0]) == (r, 0)
    assert trace.signs[0] == 1
    assert trace.signs[-1] == -1
    assert trace.sign_sums[-1] == 0
    assert trace.sign_sums[-2] == 1

    running = 0
    for n in range(n_pts):
        x, y = trace.xs[n], trace.ys[n]
        a = trace.l1_dists[n]
        s = trace.signs[n]
        assert s in (-1, 1)
        assert a == x + y
        assert x - y == r - n
        # the running sum determines x: x = r + (sum_{<n} - n) / 2
        assert 2 * x == 2 * r + running - n
        running += s
        assert trace.sign_sums[n] == running

        # l1 band r <= a <= ceil(sqrt(2) (r + 1)), checked in integers
        assert a >= r
        assert (a - 1) * (a - 1) < 2 * (r + 1) * (r + 1)
        # radial band |sqrt(x^2 + y^2) - r| <= sqrt(2), checked in integers
        q = l2_norm_sq((x, y))
        hi = q - r * r - 2
        assert hi <= 0 or hi * hi <= 8 * r * r
        lo = r * r + 2 - q
        assert lo <= 0 or lo * lo <= 8 * r * r

        if n + 1 < n_pts:
            assert trace.l1_dists[n + 1] == a + s
            dx = trace.xs[n + 1] - x
            dy = trace.ys[n + 1] - y
            assert (dx, dy) == ((0, 1) if s == 1 else (-1, 0))

    # reversal antisymmetry of the decisions
    for n in range(n_pts):
        assert trace.signs[n] == -trace.signs[n_pts - 1 - n]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 8, 13, 21, 64, 137, 256])
def test_trace_invariants(r):
    assert_trace_invariants(cached_trace(r))


@pytest.mark.parametrize("r", list(range(1, 65)))
def test_simplified_variant_reproduces_exact(r):
    exact = cached_trace(r)
    simplified = cached_trace(r, CostVariant.SIMPLIFIED)
    assert simplified.signs == exact.signs
    assert simplified.points == exact.points


@pytest.mark.parametrize("r", list(range(5, 65)))
def test_approx_variant_reproduces_exact(r):
    exact = cached_trace(r)
    approx = cached_trace(r, CostVariant.APPROX)
    assert approx.signs == exact.signs
    assert approx.points == exact.points


def test_full_circle_r1():
    circle = assemble_full_circle(cached_trace(1))
    assert circle.points == (
        (1, 0), (1, 1), (0, 1), (-1, 1),
        (-1, 0), (-1, -1), (0, -1), (1, -1),
    )
    assert circle.closed


@pytest.mark.parametrize("r", [1, 2, 3, 7, 30, 101])
def test_full_circle_is_closed_valid(r):
    circle = assemble_full_circle(cached_trace(r))
    assert len(circle.points) == 8 * r
    assert len(set(circle.points)) == 8 * r
    assert circle.points[0] == (r, 0)
    report = check_path(circle.points, "closed")
    assert report.is_closed_valid
    assert report.violations == ()


quadrant_point_st = st.tuples(
    st.integers(0, 10_000), st.integers(0, 10_000)
).filter(lambda p: p != (0, 0))


@settings(max_examples=300)
@given(quadrant_point_st, st.integers(1, 10_000))
def test_cost_exact_agrees_with_highprec_decimals(p, r):
    x, y = p
    assert cost_exact(x, y, r) == highprec_step_sign(x, y, r)


@settings(max_examples=300)
@given(quadrant_point_st, st.integers(1, 10_000))
def test_cost_simplified_is_a_change_of_coordinates(p, r):
    x, y = p
    assert cost_simplified(x + y, x - y - 1, r) == cost_exact(x, y, r)


@settings(max_examples=300)
@given(
    st.integers(1, 10**6),
    st.integers(-(10**6), 10**6),
    st.integers(5, 10**5),
)
def test_cost_approx_never_disagrees_on_integer_states(a, c, r):
    assert cost_approx(a, c, r) == cost_simplified(a, c, r)


def exact_reference_steps(r):
    """The walk as first specified: call cost_exact at every step."""
    steps = []
    x, y = r, 0
    for _ in range(2 * r):
        s = cost_exact(x, y, r)
        steps.append(s)
        if s > 0:
            y += 1
        else:
            x -= 1
    return steps


def midpoint_is_up(x, y, r):
    return x * x - x + y * y + y + 1 - r * r <= 0


@st.composite
def states_near_the_circle(draw):
    """Quadrant states within a few cells of the circle, where decisions are close."""
    r = draw(st.integers(1, 10**30))
    x = draw(st.integers(0, r + 2))
    y = max(0, math.isqrt(max(0, r * r - x * x)) + draw(st.integers(-2, 2)))
    return (x, y, r) if (x, y) != (0, 0) else (1, 0, r)


arbitrary_states = st.tuples(
    st.integers(0, 10**30), st.integers(0, 10**30), st.integers(1, 10**30)
).filter(lambda s: s[:2] != (0, 0))


@settings(max_examples=200)
@given(st.one_of(arbitrary_states, states_near_the_circle()))
def test_midpoint_rule_is_cost_exact_on_every_state(state):
    x, y, r = state
    assert midpoint_is_up(x, y, r) == (cost_exact(x, y, r) == 1)


def test_walker_matches_cost_exact_beyond_512():
    for r in range(513, 1501):
        assert list(generate_quadrant(r).steps) == exact_reference_steps(r), r


@pytest.mark.slow
def test_walker_matches_cost_exact_exhaustively():
    for r in range(1, 3001):
        assert list(generate_quadrant(r).steps) == exact_reference_steps(r), r


@pytest.mark.parametrize("variant", list(CostVariant))
def test_trace_stores_one_byte_per_step(variant):
    trace = generate_quadrant(9, variant)
    assert trace.steps.itemsize == 1
    assert len(trace.steps) == 18
