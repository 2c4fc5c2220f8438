import hashlib
import math
import tracemalloc
from array import array
from itertools import accumulate, chain
from operator import eq, neg

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DIAGONAL_CELL_TIES,
    END_COLUMN_TIES,
    cached_trace,
    cell_centres_in_disc,
    decimal_step_sign,
)
from latticircle import signum
from latticircle.area import area_recursive
from latticircle.lattice import PointColumns, check_path
from latticircle.signum import (
    CostVariant,
    QuadrantTrace,
    _walk_hull,
    _walk_predicate,
    assemble_full_circle,
    circle_columns,
    cost_approx,
    cost_exact,
    cost_simplified,
    generate_quadrant,
    sgn,
)


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
    # the walk never visits the origin, so pi_sequence need not scan for a_n <= 0
    assert min(trace.l1_dists) >= 1

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
        q = x * x + y * y
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


# the paper's predicate of each variant, which only the reference walker calls
PREDICATE = {CostVariant.SIMPLIFIED: cost_simplified, CostVariant.APPROX: cost_approx}


def predicate_trace(r, variant):
    """The trace of ``variant``'s predicate walked by the reference walker."""
    return QuadrantTrace(r, variant, _walk_predicate(r, PREDICATE[variant]))


@pytest.mark.parametrize("r", list(range(1, 65)))
def test_simplified_variant_reproduces_exact(r):
    exact = cached_trace(r)
    simplified = predicate_trace(r, CostVariant.SIMPLIFIED)
    assert simplified.signs == exact.signs
    assert simplified.points == exact.points


@pytest.mark.parametrize("r", list(range(5, 65)))
def test_approx_variant_reproduces_exact(r):
    exact = cached_trace(r)
    approx = predicate_trace(r, CostVariant.APPROX)
    assert approx.signs == exact.signs
    assert approx.points == exact.points


def simplified_before_trim(a, c, r):
    """``cost_simplified``'s body before it was trimmed: q and r^4 in full."""
    p = (a - 1) * (a - 1) + c * c
    q = (a + 1) * (a + 1) + c * c
    w = r * r * (p + q) - 2 * a * a
    if w < 0:
        return -1
    d = 4 * r ** 4 * p * q - w * w
    return -1 if d > 0 else 1


def approx_before_trim(a, c, r):
    """``cost_approx``'s body before it was trimmed: through ``sgn``."""
    return -sgn(a * a + c * c + 1 - 2 * r * r)


@pytest.mark.parametrize(
    "cost, before, lowest",
    [(cost_simplified, simplified_before_trim, 1), (cost_approx, approx_before_trim, 5)],
)
def test_trimmed_predicates_decide_as_before_on_every_state(cost, before, lowest):
    for r in range(lowest, 61):
        for a in range(1, 3 * r + 1):
            for c in range(-3 * r, 3 * r + 1):
                assert cost(a, c, r) == before(a, c, r), (a, c, r)


def walk_with(decide, r):
    """Quadrant steps taken by calling decide(a, c, r) at all 2r steps."""
    steps, x, y = [], r, 0
    for n in range(2 * r):
        s = 1 if decide(x + y, r - n - 1, r) > 0 else -1
        steps.append(s)
        if s > 0:
            y += 1
        else:
            x -= 1
    return steps


@pytest.mark.parametrize(
    "variant, before, lowest",
    [
        (CostVariant.SIMPLIFIED, simplified_before_trim, 1),
        (CostVariant.APPROX, approx_before_trim, 5),
    ],
)
def test_trimmed_predicates_walk_as_before(variant, before, lowest):
    for r in [*range(lowest, 400), *(2**k + d for k in range(9, 16) for d in (-1, 1))]:
        assert list(_walk_predicate(r, PREDICATE[variant])) == walk_with(before, r), r


def test_predicate_walk_asserts_its_end_point():
    with pytest.raises(AssertionError, match="quarter turn must end one step past"):
        _walk_predicate(3, lambda a, c, r: 1)


def test_predicate_walk_asserts_its_mirror():
    # r = 2: up, left, left, up ends on (0, 2), but step 3 is not -step 0
    def decide(a, c, r):
        return 1 if c in (1, -2) else -1

    with pytest.raises(AssertionError, match="quarter turn must mirror in the diagonal"):
        _walk_predicate(2, decide)


def test_predicates_reject_bad_states():
    with pytest.raises(ValueError, match="radius must be >= 1"):
        cost_simplified(1, 0, 0)
    with pytest.raises(ValueError, match="a = x \\+ y >= 1"):
        cost_simplified(0, 0, 3)
    with pytest.raises(ValueError, match="a = x \\+ y >= 1"):
        cost_approx(0, 0, 5)


def test_full_circle_r1():
    points = assemble_full_circle(cached_trace(1)).points
    assert list(zip(points.xs, points.ys)) == [
        (1, 0), (1, 1), (0, 1), (-1, 1),
        (-1, 0), (-1, -1), (0, -1), (1, -1),
    ]


@pytest.mark.parametrize("r", [1, 2, 3, 7, 30, 101])
def test_full_circle_is_closed_valid(r):
    columns = assemble_full_circle(cached_trace(r)).points
    points = list(zip(columns.xs, columns.ys))
    assert len(columns) == len(set(points)) == 8 * r
    assert points[0] == (r, 0)
    report = check_path(columns, "closed")
    assert report.is_closed_valid
    assert report.violations == ()


def test_circle_columns_lay_out_the_four_quarter_turns():
    for r in range(1, 65):
        trace = cached_trace(r)
        xs, ys = circle_columns(trace.xs, tuple(map(neg, trace.xs)), 0)
        turns = [
            *trace.points,
            *((-y, x) for x, y in trace.points),
            *((-x, -y) for x, y in trace.points),
            *((y, -x) for x, y in trace.points),
        ]
        assert len(xs) == len(ys) == 8 * r, r
        assert list(zip(xs, ys)) == turns, r
        # the assembled circle holds these columns as they are
        points = assemble_full_circle(trace).points
        assert isinstance(points, PointColumns), r
        assert (points.xs, points.ys) == (xs, ys), r
        # the CLI lays out decimal strings by the same rule
        strings = circle_columns(
            tuple(map(str, trace.xs)), tuple(map(str, map(neg, trace.xs))), "0"
        )
        assert strings == (tuple(map(str, xs)), tuple(map(str, ys))), r


quadrant_point_st = st.tuples(
    st.integers(0, 10_000), st.integers(0, 10_000)
).filter(lambda p: p != (0, 0))


@settings(max_examples=300)
@given(quadrant_point_st, st.integers(1, 10_000))
def test_cost_exact_agrees_with_highprec_decimals(p, r):
    x, y = p
    assert cost_exact(x, y, r) == decimal_step_sign(x, y, r)


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


diagonal_states = st.tuples(
    st.integers(1, 10**30), st.integers(-(10**30), 10**30), st.integers(1, 10**30)
)


@settings(max_examples=500)
@given(
    st.one_of(
        diagonal_states,
        states_near_the_circle().map(lambda s: (s[0] + s[1], s[0] - s[1] - 1, s[2])),
    )
)
def test_single_comparison_decides_as_before_at_large_values(state):
    a, c, r = state
    assert cost_simplified(a, c, r) == simplified_before_trim(a, c, r)


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


def full_walk_midpoint(r):
    """The midpoint walker as it was before the mirror: all 2r steps decided."""
    n_steps = 2 * r
    steps = array("b", [-1]) * n_steps
    d = 1 - r
    up = 2
    left = 2 * r - 2
    for n in range(n_steps):
        if d <= 0:
            steps[n] = 1
            d += up
            up += 2
        else:
            d -= left
            left -= 2
    assert (left // 2 + 1, up // 2 - 1) == (0, r)
    return steps


def is_mirrored(steps):
    """s_{2r-1-n} = -s_n for every n."""
    signs = list(steps)
    return signs[::-1] == [-s for s in signs]


def test_exact_trace_mirrors_in_the_diagonal():
    # cached_trace shares these walks with test_half_walk_matches_the_full_walk
    for r in range(1, 3001):
        assert is_mirrored(cached_trace(r).steps), r


@pytest.mark.parametrize(
    "variant, radii",
    [(CostVariant.SIMPLIFIED, range(1, 601)), (CostVariant.APPROX, range(5, 601))],
)
def test_predicate_traces_mirror_in_the_diagonal(variant, radii):
    for r in radii:
        assert is_mirrored(_walk_predicate(r, PREDICATE[variant])), (variant, r)


def raise_if_called(*args):
    raise AssertionError("a variant walked by another walker than the hull walk")


def test_every_variant_runs_the_one_hull_walk(monkeypatch):
    for name in ("_walk_predicate", "cost_simplified", "cost_approx"):
        monkeypatch.setattr(signum, name, raise_if_called)
    radii = [*range(5, 601), *(2**k + e for k in range(3, 17) for e in (-1, 1))]
    for r in radii:
        want = full_walk_midpoint(r)
        for variant in CostVariant:
            trace = generate_quadrant(r, variant)
            assert (trace.variant, trace.steps) == (variant, want), (variant, r)
    # approx's domain is refused before the walk, with no predicate to call
    monkeypatch.setattr(signum, "_walk_hull", raise_if_called)
    with pytest.raises(ValueError, match="^approx requires radius ≥ 5$"):
        generate_quadrant(3, "approx")


@pytest.mark.slow
def test_predicate_walks_match_the_hull_walk_far_beyond_512():
    radii = (10**5, 10**6, 2**20 - 1, 2**20 + 1, *END_COLUMN_TIES[-2:], *DIAGONAL_CELL_TIES[-2:])
    for r in radii:
        want = _walk_hull(r)
        for variant, decide in PREDICATE.items():
            assert _walk_predicate(r, decide) == want, (variant, r)


def test_boundary_radii_solve_their_equations():
    for r in END_COLUMN_TIES:
        k = math.isqrt((r * r - 1) // 2)
        assert r * r == 2 * k * k + 1, r
    for r in DIAGONAL_CELL_TIES:
        k = math.isqrt((r * r - 1) // 2)
        assert 2 * r * r == (2 * k + 1) ** 2 + 1, r


def test_half_walk_matches_the_full_walk():
    for r in range(1, 3001):
        assert cached_trace(r).steps == full_walk_midpoint(r), r
    # 1331714 = 2 * 665857 misses the end-column tie by 3: f(k - 1, k) = -3
    powers = (2**k + e for k in range(1, 22) for e in (-1, 0, 1))
    for r in (*powers, *END_COLUMN_TIES, *DIAGONAL_CELL_TIES, 1331714):
        assert generate_quadrant(r).steps == full_walk_midpoint(r), r


@pytest.mark.parametrize(
    "r, cut",
    [
        (1, (0, 1)),  # no hull run: the walk is the one up step
        (2, (1, 1)),
        (3, (2, 2)),
        (4, (2, 3)),
        (1970, (1393, 1393)),
        (10**6, (707106, 707107)),
        (10**6 + 1, (707107, 707107)),
        *zip(END_COLUMN_TIES[1:], [(12, 12), (70, 70), (408, 408), (2378, 2378),
                                   (13860, 13860), (80782, 80782), (470832, 470832)]),
        *zip(DIAGONAL_CELL_TIES, [(3, 4), (20, 21), (119, 120), (696, 697), (4059, 4060),
                                  (23660, 23661), (137903, 137904), (803760, 803761)]),
    ],
)
def test_hull_walk_cuts_the_tail_at_the_diagonal(r, cut):
    # cut: the hull walk's end column k, the largest with 2k^2 + 1 <= r^2,
    # and H_k, the cells of C in column k, which count the odd c = 2j + 1
    # with c^2 <= 4r^2 - 4k^2 - 4k - 3
    k = math.isqrt((r * r - 1) // 2)
    assert 2 * k * k + 1 <= r * r < 2 * (k + 1) ** 2 + 1
    q = 4 * (r * r - k * k - k) - 3
    height = (math.isqrt(q) + 1) // 2 if q > 0 else 0
    assert (k, height) == cut
    # the runs emit columns 0..k-1, and H_k - k steps remain: none, or the
    # up step across the diagonal cell (k, k), taken when f(k, k) <= 0
    assert k <= height <= k + 1
    tail = 2 * k * (k + 1) < r * r
    assert height - k == tail
    steps = generate_quadrant(r).steps
    assert (steps[r - 1] == 1) == tail  # the diagonal is reached by an up step
    assert steps == full_walk_midpoint(r)


def test_hull_walk_at_ten_million():
    # sha256 of full_walk_midpoint(10**7), which takes seconds to walk
    digest = "6ca2982ddd080c378604f627a718291418821bd1770d85e2536fea615aa2107c"
    assert hashlib.sha256(generate_quadrant(10**7).steps).hexdigest() == digest


def test_exact_walk_holds_only_the_step_bytes():
    # the runs and their mirrors are written in place: the peak is the
    # 2r-byte step array, one run of about 1.6 sqrt(r) bytes and the
    # hull search's pattern word
    r = 200_000
    tracemalloc.start()
    try:
        generate_quadrant(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * r + 64 * 1024


def full_length_ys(trace):
    """ys as accumulated before the mirror: y rises by one on each up step
    (byte 0x01), with the left steps zeroed."""
    ups = array("b", trace.steps.tobytes().replace(b"\xff", b"\x00"))
    return tuple(accumulate(ups[:-1], initial=0))


def full_length_circle(xs, ys):
    """The four quarter turns, each column negated by ``map(neg, ...)``; an
    iterator, so no second 8r-tuple is held."""
    return chain(
        zip(xs, ys), zip(map(neg, ys), xs), zip(map(neg, xs), map(neg, ys)), zip(ys, map(neg, xs))
    )


def assert_views_match_full_length(trace):
    label = (trace.variant, trace.radius)
    ys = full_length_ys(trace)
    assert trace.ys == ys, label
    circle = assemble_full_circle(trace).points
    assert len(circle) == 8 * trace.radius, label
    assert all(map(eq, zip(circle.xs, circle.ys), full_length_circle(trace.xs, ys))), label


@pytest.mark.parametrize("variant", list(CostVariant))
def test_mirrored_ys_and_full_circle_match_the_full_length_walk(variant):
    radii = range(5 if variant is CostVariant.APPROX else 1, 601)
    if variant is CostVariant.EXACT:
        radii = [*radii, *(2**k + e for k in range(1, 18) for e in (-1, 1))]
    for r in radii:
        assert_views_match_full_length(generate_quadrant(r, variant))


def test_mirrored_views_share_their_ints():
    r = 1000
    trace = generate_quadrant(r)
    xs, ys = trace.xs, trace.ys
    assert all(ys[2 * r - n] is xs[n] for n in range(1, 2 * r))


@pytest.mark.slow
def test_half_walk_and_area_exhaustively():
    for r in range(1, 20_001):
        trace = generate_quadrant(r)
        assert trace.steps == full_walk_midpoint(r), r
        assert area_recursive(trace) == cell_centres_in_disc(r), r
        assert trace.ys == full_length_ys(trace), r
