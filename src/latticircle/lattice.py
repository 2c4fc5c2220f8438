"""Lattice points, point columns, the radius reader, and 4-connected path
validity.

Validity is a property of a point set: every member may touch at most two
other members at l1 distance exactly 1 (open path), or must touch exactly
two (closed path).  Input order is only used to label violations, so
permuting the input never changes the verdict.
"""

from __future__ import annotations

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
    ValueError."""
    r = index(r)
    if r < 1:
        raise ValueError("radius must be >= 1")
    return r


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


def check_path(points: Iterable[Point] | PointColumns, mode: str = "open") -> PathValidityReport:
    """Check a point sequence against the unit-neighbor counting rule.

    For every input point, members of the point set at l1 distance exactly
    1 are counted.  Open mode tolerates counts up to 2, closed mode demands
    exactly 2.  Empty input is vacuously valid and flagged with
    note="empty".  The points are a ``PointColumns``, whose int columns are
    read directly, or any iterable of (x, y) pairs, whose coordinates are
    read with ``operator.index``, so a non-integer one such as 0.9 raises
    TypeError instead of being truncated onto another point.

    Each point (x, y) is looked up as the int key x*m + y, with
    m = 2*max|y| + 3 over the input.  Every member and every unit neighbor
    of a member has y in [-max|y| - 1, max|y| + 1], which is m consecutive
    values, so the key is injective on all of them and the neighbors of key
    k are k +- 1 and k +- m, for coordinates of any size.

    The count depends only on the point, so it is taken once per distinct
    key, in the member set's own order, and only the counts other than 2
    are kept: a path has almost none.  The verdicts follow from those
    alone, and the input is scanned for the indices of failing keys only
    when some key fails.  So permuting the input permutes the violations
    and never changes the verdict.  Occurrences of a point after its first
    are duplicates, flagged in either mode.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', not {mode!r}")
    if isinstance(points, PointColumns):
        xs, ys = points.xs, points.ys
    else:
        pts = points if isinstance(points, (list, tuple)) else list(points)
        xs = map(index, map(itemgetter(0), pts))
        ys = list(map(index, map(itemgetter(1), pts)))
    if not ys:
        return PathValidityReport(True, True, (), note="empty")

    m = 2 * max(max(ys), -min(ys)) + 3
    keys = list(map(add, map(mul, xs, repeat(m)), ys))
    del xs, ys  # a list of ys is freed before the set is built, off the peak
    members = set(keys)
    irregular = {}  # key -> neighbor count, for the counts other than 2
    for k in members:
        c = (k + 1 in members) + (k - 1 in members) + (k + m in members) + (k - m in members)
        if c != 2:
            irregular[k] = c
    # The first occurrence of a key consumes it from the set; later ones
    # find it gone.  A set as long as the input holds no duplicates.
    dups = []
    if len(members) < len(keys):
        for i, k in enumerate(keys):
            if k in members:
                members.remove(k)
            else:
                dups.append(i)

    crowded = {k for k, c in irregular.items() if c > 2}
    is_valid = not crowded and not dups
    is_closed_valid = not irregular and not dups

    failing = crowded if mode == "open" else irregular
    flagged = [i for i, k in enumerate(keys) if k in failing] if failing else []
    if dups:
        flagged = sorted({*flagged, *dups})
    violations = tuple((i, irregular.get(keys[i], 2)) for i in flagged)
    return PathValidityReport(is_valid, is_closed_valid, violations)
