"""Lattice points, point columns, the radius reader, and 4-connected path
validity.

Validity is a property of a point set: every member may touch at most two
other members at l1 distance exactly 1 (open path), or must touch exactly
two (closed path).  Input order is only used to label violations, so
permuting the input never changes the verdict.  Pieces are not counted,
so a union of disjoint paths is an open path.
"""

from __future__ import annotations

import os
import sys
from itertools import repeat
from operator import add, index, itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

Point = tuple[int, int]


class PointColumns:
    """A path as two equal-length columns, point i being (xs[i], ys[i]),
    with no tuple per point; ``len`` is the point count.  The columns are
    any sequences: lists from the CSV parser, tuples from the circle's
    layout.  ``check_path`` and ``render_path_svg`` read them as they are,
    so they must hold ints."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: Sequence[int], ys: Sequence[int]):
        if len(xs) != len(ys):
            raise ValueError(f"columns differ in length: {len(xs)} x, {len(ys)} y")
        self.xs = xs
        self.ys = ys

    def __len__(self) -> int:
        return len(self.xs)


def read_radius(r) -> int:
    """The radius r as an int, read with ``operator.index``: ``True`` is
    radius 1 and a float such as 2.0 raises TypeError; below 1 raises
    ValueError.  A quarter turn is 2r steps or samples, so an r whose 2r
    cannot be indexed (2r > sys.maxsize) raises OverflowError before any
    work, also in ``phi_n`` and the ``a_param_*`` functions."""
    r = index(r)
    if r < 1:
        raise ValueError("radius must be >= 1")
    if 2 * r > sys.maxsize:
        raise OverflowError(f"{2 * r} samples exceed the largest index {sys.maxsize}")
    return r


def require_memory(what: str, need: int, of: str) -> None:
    """Raise MemoryError when ``need`` bytes exceed physical memory, before
    anything is allocated, instead of growing until the host runs out.  The
    message reads "{what} need {need} bytes {of}, more than the {memory}
    bytes of physical memory".  Without a page count from ``os.sysconf``
    there is no bound."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < memory < need:
        raise MemoryError(
            f"{what} need {need} bytes {of}, more than the {memory} bytes of physical memory"
        )


class PathValidityReport(NamedTuple):
    """Verdicts of a path check plus per-index violations.

    ``violations`` holds (index, neighbor_count) pairs for the requested
    mode.  Duplicate occurrences of a point are violations in either mode:
    a set cannot contain them, and deduplicating silently would hide
    generator bugs.
    """

    is_valid: bool
    is_closed_valid: bool
    violations: tuple[tuple[int, int], ...]
    note: str = ""


def read_points(points: Iterable[Point] | PointColumns) -> PointColumns:
    """The points as a ``PointColumns``: one is returned as it is, and any
    other iterable of (x, y) pairs is read into two lists, each coordinate
    with ``operator.index``, so a non-integer one such as 0.9 raises
    TypeError instead of being truncated onto another point."""
    if isinstance(points, PointColumns):
        return points
    pts = points if isinstance(points, (list, tuple)) else list(points)
    xs = list(map(index, map(itemgetter(0), pts)))
    return PointColumns(xs, list(map(index, map(itemgetter(1), pts))))


def check_path(points: Iterable[Point] | PointColumns, mode: str = "open") -> PathValidityReport:
    """Check a point sequence against the unit-neighbor counting rule.

    For every input point, members of the point set at l1 distance exactly
    1 are counted.  Open mode tolerates counts up to 2, closed mode demands
    exactly 2.  Empty input is vacuously valid and flagged with
    note="empty".  The points are read with ``read_points``: a
    ``PointColumns`` as it is, (x, y) pairs with integer coordinates only.

    Each point (x, y) is looked up as the int key x*m + y, with
    m = 2*max|y| + 3 over the input.  Every member and every unit neighbor
    of a member has y in [-max|y| - 1, max|y| + 1], which is m consecutive
    values, so the key is injective on all of them and the neighbors of key
    k are k +- 1 and k +- m, for coordinates of any size.

    The count depends only on the point, so it is taken once per distinct
    key, in the member set's own order, and only the counts other than 2
    are kept: a path has almost none.  The verdicts follow from those and
    from whether the member set is shorter than the input, that is whether
    some point repeats.  So permuting the input never changes the verdict.
    Only when some key fails for the mode, or some point repeats, is the
    input scanned once, in order, for the violations: every occurrence of
    a failing key, and every occurrence after the first of any other key,
    as a duplicate in either mode.  They come out in index order.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', not {mode!r}")
    points = read_points(points)
    if not points:
        return PathValidityReport(True, True, (), note="empty")

    m = 2 * max(max(points.ys), -min(points.ys)) + 3
    keys = list(map(add, map(mul, points.xs, repeat(m)), points.ys))
    del points  # columns read from pairs are freed before the set is built, off the peak
    members = set(keys)
    irregular = {}  # key -> neighbor count, for the counts other than 2
    for k in members:
        c = (k + 1 in members) + (k - 1 in members) + (k + m in members) + (k - m in members)
        if c != 2:
            irregular[k] = c
    repeats = len(members) < len(keys)
    crowded = {k for k, c in irregular.items() if c > 2}
    is_valid = not crowded and not repeats
    is_closed_valid = not irregular and not repeats

    failing = crowded if mode == "open" else irregular
    violations = []
    if failing or repeats:
        # Failing keys leave the set first, so each of their occurrences is
        # flagged; any other key's first occurrence consumes it from the
        # set, and its later ones find it gone.
        members.difference_update(failing)
        for i, k in enumerate(keys):
            if k in members:
                members.remove(k)
            else:
                violations.append((i, irregular.get(k, 2)))
    return PathValidityReport(is_valid, is_closed_valid, tuple(violations))
