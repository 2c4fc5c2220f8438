"""Shared helpers: memoized traces so the suite builds each one once, an
area oracle that does not walk, a sign oracle in decimal arithmetic, and
the boundary radii of the hull walk."""

from __future__ import annotations

import decimal
import functools
import math

from latticircle.signum import CostVariant, QuadrantTrace, generate_quadrant

# the two families of boundary radii for the hull walk's end column
# k = isqrt((r^2 - 1) / 2): r^2 = 2k^2 + 1 puts f(k - 1, k) = 0, so k is the
# last column that the walk may reach, and 2r^2 = (2k + 1)^2 + 1 puts
# f(k, k) = 0, so the diagonal cell (k, k) lies on the tie
END_COLUMN_TIES = (3, 17, 99, 577, 3363, 19_601, 114_243, 665_857)
DIAGONAL_CELL_TIES = (5, 29, 169, 985, 5741, 33_461, 195_025, 1_136_689)


@functools.lru_cache(maxsize=None)
def cached_trace(r: int, variant: CostVariant = CostVariant.EXACT) -> QuadrantTrace:
    return generate_quadrant(r, variant)


def cell_centres_in_disc(r: int) -> int:
    """#{i, j >= 0 : (2i+1)^2 + (2j+1)^2 <= 4r^2 - 2}, the cells whose centres
    lie in the disc of radius^2 r^2 - 1/2, which is the quarter path's area.

    Column i holds the odd c = 2j + 1 with c^2 <= 4r^2 - 2 - (2i+1)^2; that
    bound is positive for every 2i + 1 < 2r, and (isqrt(bound) + 1) // 2
    odd numbers are at most its root.
    """
    q = 4 * r * r - 2
    return sum((math.isqrt(q - c * c) + 1) // 2 for c in range(1, 2 * r, 2))


def decimal_step_sign(x: int, y: int, r: int) -> int:
    """Independent check of ``cost_exact``: the sign of the radial-deviation
    difference evaluated with 60 significant digits, far beyond what
    distinguishing two integer radicands can require at the tested sizes."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        rr = decimal.Decimal(r)
        d_left = abs(rr - decimal.Decimal((x - 1) ** 2 + y * y).sqrt())
        d_up = abs(rr - decimal.Decimal(x * x + (y + 1) ** 2).sqrt())
        diff = d_left - d_up
    return -1 if diff <= 0 else 1
