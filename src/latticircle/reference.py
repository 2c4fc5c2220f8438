"""Angle-sampled circle discretizations and a classic midpoint rasterizer.

The angle samples place 2r points on the quarter circle at phi = n pi / (4r);
the floor and round variants snap those samples to the lattice.  The
``a_param_*`` functions define one sample each, with range checks.
``param_samples`` returns all 2r samples of a radius for one angle-sampled
source in one pass, with the same floating-point operations in the same
order, so each sample equals its ``a_param_*`` value bit for bit.

The midpoint rasterizer is the textbook integer scheme with second-order
increments, kept verbatim including the seam pixels its eight-way plotter
emits twice, so its output doubles as a known-invalid baseline for the
path checker.
"""

from __future__ import annotations

import math
from operator import index

from latticircle.choices import DiscretizationSource
from latticircle.lattice import Point, read_radius, require_memory


def phi_n(r: int, n: int) -> float:
    """Sample angle n pi / (4r) for index n in [0, 2r - 1].  Like the radius,
    n is read with ``operator.index``: ``True`` is sample 1 and a float such
    as 1.5 raises TypeError instead of naming an angle between samples."""
    r = read_radius(r)
    n = index(n)
    if not 0 <= n <= 2 * r - 1:
        raise ValueError(f"sample index {n} outside [0, {2 * r - 1}]")
    return n * math.pi / (4 * r)


def a_param_exact(r: int, n: int) -> float:
    """Manhattan distance r (cos phi + sin phi) of the exact circle sample."""
    phi = phi_n(r, n)
    return r * (math.cos(phi) + math.sin(phi))


def a_param_floor(r: int, n: int) -> int:
    """Manhattan distance floor(r cos phi) + floor(r sin phi)."""
    phi = phi_n(r, n)
    return math.floor(r * math.cos(phi)) + math.floor(r * math.sin(phi))


def a_param_round(r: int, n: int) -> int:
    """Manhattan distance floor(r cos phi + 1/2) + floor(r sin phi + 1/2)."""
    phi = phi_n(r, n)
    return math.floor(r * math.cos(phi) + 0.5) + math.floor(r * math.sin(phi) + 0.5)


# Bytes a sample holds in the sample list, its pointer and its object:
# tracemalloc read 40.2 per int sample of param-floor and param-round at
# r = 200 000, and 32.2 per float sample of param-exact, so a param-exact
# list is refused only when it would take over 80% of physical memory.
_SAMPLE_BYTES = 40


def param_samples(r: int, source: DiscretizationSource | str) -> list:
    """[a_param_<source>(r, n) for n in range(2r)] in one pass: floats for
    param-exact, ints for param-floor and param-round.

    ``source`` is read by its enum, so an unknown name raises ValueError
    before any work, and so does signum, which is not angle-sampled.  The
    radius is read with ``read_radius``.  The list of 2r samples needs
    ``_SAMPLE_BYTES`` per sample, 80r bytes, which ``require_memory`` holds
    against physical memory before any sampling.

    Each comprehension evaluates phi_n's expression n * pi / (4r) once per
    sample and binds it with := for cos and sin.  The operands r, 4r and n
    are converted to float up front: an int operand of a float operation is
    converted by the same PyLong_AsDouble that float() calls, so every
    operation sees the same bits as in ``a_param_*``, while float-by-float
    arithmetic runs on the interpreter's specialised fast paths."""
    source = DiscretizationSource(source)
    if source is DiscretizationSource.SIGNUM:
        raise ValueError("signum is not an angle-sampled source")
    r = read_radius(r)
    require_memory(f"{2 * r} samples", 2 * r * _SAMPLE_BYTES, "for the sample list")
    cos, sin, pi, floor = math.cos, math.sin, math.pi, math.floor
    rf, r4 = float(r), float(4 * r)
    if source is DiscretizationSource.PARAM_EXACT:
        return [rf * (cos(phi := n * pi / r4) + sin(phi)) for n in map(float, range(2 * r))]
    # each v = r cos phi or r sin phi is >= 0, so v + 0.0 == v and floor(v + 0.0) == floor(v)
    half = 0.0 if source is DiscretizationSource.PARAM_FLOOR else 0.5
    return [
        floor(rf * cos(phi := n * pi / r4) + half) + floor(rf * sin(phi) + half)
        for n in map(float, range(2 * r))
    ]


def midpoint_quadrant(r: int) -> list[Point]:
    """First-quadrant points of the textbook midpoint circle, ordered by angle.

    Emits the octant from (0, r) toward the diagonal with the second-order
    increment scheme, then mirrors it across the diagonal.  The octant loop
    runs while y > x and so crosses the diagonal; mirroring therefore
    repeats the seam points, exactly as the textbook eight-way plotter
    paints them twice.  Diagonal gaps and those duplicates are the point:
    this output is the known-invalid baseline, not a usable path.
    """
    r = read_radius(r)
    x, y = 0, r
    d = 1 - r
    delta_e = 3
    delta_se = -2 * r + 5
    octant: list[Point] = [(x, y)]
    while y > x:
        if d < 0:
            d += delta_e
            delta_e += 2
            delta_se += 2
        else:
            d += delta_se
            delta_e += 2
            delta_se += 4
            y -= 1
        x += 1
        octant.append((x, y))
    pts = octant + [(py, px) for px, py in octant]
    pts.sort(key=lambda p: math.atan2(p[1], p[0]))
    return pts
