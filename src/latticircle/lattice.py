"""Lattice points, norms, quadrant symmetry, and 4-connected path validity.

Validity is a property of a point set: every member may touch at most two
other members at l1 distance exactly 1 (open path), or must touch exactly
two (closed path).  Input order is only used to label violations, so
permuting the input never changes the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Point = tuple[int, int]

_UNIT_STEPS: tuple[Point, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


def l1_norm(p: Point) -> int:
    """Manhattan norm |x| + |y|."""
    return abs(p[0]) + abs(p[1])


def l2_norm_sq(p: Point) -> int:
    """Squared Euclidean norm x^2 + y^2, kept integer-exact."""
    return p[0] * p[0] + p[1] * p[1]


def rotate90(p: Point, k: int) -> Point:
    """Rotate p counterclockwise about the origin by k quarter turns."""
    x, y = p
    for _ in range(k % 4):
        x, y = -y, x
    return x, y


@dataclass(frozen=True)
class PathValidityReport:
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


def check_path(points: Iterable[Point], mode: str = "open") -> PathValidityReport:
    """Check a point sequence against the unit-neighbor counting rule.

    For every input point, members of the point set at l1 distance exactly
    1 are counted.  Open mode tolerates counts up to 2, closed mode demands
    exactly 2.  Empty input is vacuously valid and flagged with
    note="empty".
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', not {mode!r}")
    pts = [(int(p[0]), int(p[1])) for p in points]
    if not pts:
        return PathValidityReport(True, True, (), note="empty")

    members: set[Point] = set()
    dups = []
    for i, p in enumerate(pts):
        if p in members:
            dups.append(i)
        else:
            members.add(p)
    counts = [
        sum((x + dx, y + dy) in members for dx, dy in _UNIT_STEPS)
        for x, y in pts
    ]

    clean = not dups
    is_valid = clean and all(c <= 2 for c in counts)
    is_closed_valid = clean and all(c == 2 for c in counts)

    if mode == "open":
        flagged = {i for i, c in enumerate(counts) if c > 2}
    else:
        flagged = {i for i, c in enumerate(counts) if c != 2}
    flagged.update(dups)
    violations = tuple((i, counts[i]) for i in sorted(flagged))
    return PathValidityReport(is_valid, is_closed_valid, violations)
