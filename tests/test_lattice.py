import pytest
from hypothesis import example, given, strategies as st

from conftest import cached_trace
from latticircle import lattice
from latticircle.lattice import PointColumns, check_path, require_memory
from latticircle.signum import assemble_full_circle
from latticircle.svg import render_path_svg

def test_open_path_accepts_quarter_turn():
    report = check_path([(2, 0), (2, 1), (1, 1), (1, 2)], "open")
    assert report.is_valid
    assert report.violations == ()


def test_closed_path_accepts_full_turn():
    # the radius-2 quarter path and its three quarter turns
    circle = [
        (2, 0), (2, 1), (1, 1), (1, 2),
        (0, 2), (-1, 2), (-1, 1), (-2, 1),
        (-2, 0), (-2, -1), (-1, -1), (-1, -2),
        (0, -2), (1, -2), (1, -1), (2, -1),
    ]
    report = check_path(circle, "closed")
    assert report.is_closed_valid
    assert report.is_valid
    assert report.violations == ()


def test_diagonal_gap_is_open_valid_but_closed_invalid():
    pts = [(0, 0), (1, 1)]
    assert check_path(pts, "open").is_valid
    closed = check_path(pts, "closed")
    assert not closed.is_closed_valid
    assert closed.violations == ((0, 0), (1, 0))


def test_segment_is_open_valid_only():
    pts = [(0, 0), (1, 0), (2, 0)]
    assert check_path(pts, "open").is_valid
    closed = check_path(pts, "closed")
    assert not closed.is_closed_valid
    # the interior point has its two neighbors, the two ends have one each
    assert closed.violations == ((0, 1), (2, 1))


def test_three_neighbors_fail_open():
    pts = [(0, 0), (1, 0), (-1, 0), (0, 1)]
    report = check_path(pts, "open")
    assert not report.is_valid
    assert (0, 3) in report.violations


def test_duplicates_are_violations_in_both_modes():
    pts = [(0, 0), (1, 0), (0, 0)]
    for mode in ("open", "closed"):
        report = check_path(pts, mode)
        assert not report.is_valid
        assert not report.is_closed_valid
        assert any(index == 2 for index, _ in report.violations)


def test_empty_input_is_vacuously_valid():
    report = check_path([], "open")
    assert report.is_valid
    assert report.is_closed_valid
    assert report.note == "empty"
    assert report.violations == ()


def test_closed_valid_implies_open_valid_on_examples():
    for pts in ([(0, 0), (1, 1)], [(2, 0), (2, 1), (1, 1), (1, 2)]):
        report = check_path(pts, "open")
        assert report.is_closed_valid <= report.is_valid


def test_mode_is_checked():
    with pytest.raises(ValueError):
        check_path([(0, 0)], "loop")


@pytest.mark.parametrize(
    "pts",
    [[(0.9, 0.0), (0.2, 0.0)], [(0.9, 0), (1, 0)], [(0, 0), (0, 1.5)], [(0, 0), (0.5, 0), (1, 0)]],
)
def test_non_integer_coordinates_are_rejected(pts):
    # int() would truncate the first case into a duplicate of (0, 0)
    with pytest.raises(TypeError):
        check_path(pts, "open")
    # both read their pairs with read_points; a float inside the bounding
    # box, as in the last case, would otherwise be written into the SVG
    with pytest.raises(TypeError):
        render_path_svg(pts, 1)


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=1,
        max_size=40,
    ),
    st.data(),
)
def test_verdict_ignores_input_order(pts, data):
    shuffled = data.draw(st.permutations(pts))
    for mode in ("open", "closed"):
        a = check_path(pts, mode)
        b = check_path(shuffled, mode)
        assert a.is_valid == b.is_valid
        assert a.is_closed_valid == b.is_closed_valid
        assert len(a.violations) == len(b.violations)


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=1,
        max_size=40,
    )
)
def test_open_violations_empty_iff_valid(pts):
    report = check_path(pts, "open")
    assert report.is_valid == (report.violations == ())


def oracle_check_path(points, mode):
    """The tuple-set checker that int keys replaced, kept as the reference."""
    pts = [(int(p[0]), int(p[1])) for p in points]
    if not pts:
        return True, True, (), "empty"
    members = set()
    dups = []
    for i, p in enumerate(pts):
        if p in members:
            dups.append(i)
        else:
            members.add(p)
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    counts = [sum((x + dx, y + dy) in members for dx, dy in steps) for x, y in pts]
    clean = not dups
    is_valid = clean and all(c <= 2 for c in counts)
    is_closed_valid = clean and all(c == 2 for c in counts)
    if mode == "open":
        flagged = {i for i, c in enumerate(counts) if c > 2}
    else:
        flagged = {i for i, c in enumerate(counts) if c != 2}
    flagged.update(dups)
    return is_valid, is_closed_valid, tuple((i, counts[i]) for i in sorted(flagged)), ""


def coords(bound):
    return st.integers(-bound, bound)


# Points that share a key under a fixed 2**32 stride, e.g. (0, 2**32) and (1, 0).
stride_collisions = st.builds(
    lambda x, k, y: (x, k * 2**32 + y), coords(2), coords(2), coords(1)
)


UNIT_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@st.composite
def path_like(draw):
    """A shuffled full circle, quadrant or arc of the circle, where almost
    every count is 2, with a few points deleted and a few unit neighbors of
    members added (count 3 where they join the path)."""
    trace = cached_trace(draw(st.integers(1, 40)))
    columns = assemble_full_circle(trace).points
    circle = list(zip(columns.xs, columns.ys))
    start = draw(st.integers(0, len(circle) - 1))
    pts = draw(st.sampled_from([
        circle,
        list(trace.points),
        (circle[start:] + circle[:start])[: draw(st.integers(1, len(circle)))],
    ]))
    for _ in range(draw(st.integers(0, 2))):
        del pts[draw(st.integers(0, len(pts) - 1))]
        if not pts:
            return pts
    for _ in range(draw(st.integers(0, 2))):
        x, y = pts[draw(st.integers(0, len(pts) - 1))]
        dx, dy = draw(st.sampled_from(UNIT_STEPS))
        pts.append((x + dx, y + dy))
    return draw(st.permutations(pts))


@st.composite
def point_lists(draw):
    dense = st.lists(st.tuples(coords(6), coords(6)), max_size=60)
    pts = draw(st.one_of(
        path_like(),
        dense,
        # dense clusters far from the origin, so neighbors exist at large keys
        st.builds(
            lambda ps, ox, oy: [(x + ox, y + oy) for x, y in ps],
            dense, coords(10**20), coords(10**20),
        ),
        st.lists(st.one_of(stride_collisions, st.tuples(coords(2), coords(2))), max_size=40),
    ))
    # copies of drawn points, each inserted at a drawn position
    for _ in range(draw(st.integers(0, 3)) if pts else 0):
        copy = pts[draw(st.integers(0, len(pts) - 1))]
        pts.insert(draw(st.integers(0, len(pts))), copy)
    return pts


@given(point_lists())
@example([(0, 2**32), (1, 0)])
@example([(0, -(2**32)), (-1, 0), (0, 2**32 + 1)])
@example([(0, 0), (1, 0), (-1, 0), (0, 1), (0, 0)])  # a crowded point that repeats
@example([(0, 0), (1, 0), (2, 0), (0, 0)])  # a repeated end point
def test_check_path_matches_tuple_set_oracle(pts):
    columns = PointColumns([x for x, _ in pts], [y for _, y in pts])
    for mode in ("open", "closed"):
        want = oracle_check_path(pts, mode)
        for given_pts in (pts, tuple(pts), (p for p in pts), columns):
            report = check_path(given_pts, mode)
            got = (report.is_valid, report.is_closed_valid, report.violations, report.note)
            assert got == want


def test_point_columns_are_two_equal_length_columns():
    pts = PointColumns([3, -1, 2**70], (0, 5, -(2**70)))
    assert len(pts) == 3
    assert (pts.xs, pts.ys) == ([3, -1, 2**70], (0, 5, -(2**70)))
    assert len(PointColumns([], [])) == 0
    with pytest.raises(ValueError):
        PointColumns([0, 1], [0])


def test_require_memory_names_the_need_and_the_limit(monkeypatch):
    sizes = {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(lattice.os, "sysconf", lambda name: sizes[name])
    require_memory("4 things", 4_096_000, "of cells")  # exactly physical memory fits
    with pytest.raises(MemoryError) as info:
        require_memory("4 things", 4_096_001, "of cells")
    assert str(info.value) == (
        "4 things need 4096001 bytes of cells, more than the 4096000 bytes of physical memory"
    )


def test_require_memory_has_no_bound_without_a_page_count(monkeypatch):
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(lattice.os, "sysconf", unknown)
    require_memory("4 things", 10**30, "of cells")
