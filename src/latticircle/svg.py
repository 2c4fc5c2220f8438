"""Deterministic SVG rendering: lattice grid, path polyline, optional circle.

Output is plain SVG 1.1 text with one lattice unit drawn as 8 px and the
y axis pointing up.  No timestamps or randomness: identical input gives
identical bytes.
"""

from __future__ import annotations

from typing import Iterable

from latticircle.lattice import Point, PointColumns, read_points, read_radius

UNIT = 8  # px per lattice unit


def render_path_svg(
    points: PointColumns | Iterable[Point],
    radius: int,
    closed: bool = False,
    overlay_circle: bool = False,
) -> str:
    """Render a lattice path; ``closed`` draws a polygon, else a polyline.

    The points are read with ``read_points``: a ``PointColumns`` as it is,
    (x, y) pairs with integer coordinates only, so a coordinate such as 0.5
    raises TypeError.
    ``overlay_circle`` adds the real circle of ``radius``, read by
    ``read_radius``, around the origin for visual comparison.
    """
    radius = read_radius(radius)
    path = read_points(points)
    xs, ys = path.xs, path.ys
    if not xs:
        raise ValueError("nothing to render")
    xmin, xmax = min(xs) - 1, max(xs) + 1
    ymin, ymax = min(ys) - 1, max(ys) + 1
    width = (xmax - xmin) * UNIT
    height = (ymax - ymin) * UNIT

    # lattice (x, y) sits at pixel ((x - xmin) * UNIT, (ymax - y) * UNIT)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        '<g stroke="#dddddd" stroke-width="1">',
    ]
    # grid lines at x = xmin..xmax, then y = ymin..ymax
    lines += [
        f'<line x1="{px}" y1="0" x2="{px}" y2="{height}"/>' for px in range(0, width + 1, UNIT)
    ]
    lines += [
        f'<line x1="0" y1="{py}" x2="{width}" y2="{py}"/>' for py in range(height, -1, -UNIT)
    ]
    lines.append("</g>")

    if overlay_circle:
        lines.append(
            f'<circle cx="{-xmin * UNIT}" cy="{ymax * UNIT}" r="{radius * UNIT}" '
            'fill="none" stroke="#999999" stroke-width="1" stroke-dasharray="4 4"/>'
        )

    coords = " ".join([f"{(x - xmin) * UNIT},{(ymax - y) * UNIT}" for x, y in zip(xs, ys)])
    shape = "polygon" if closed else "polyline"
    lines.append(
        f'<{shape} points="{coords}" fill="none" stroke="#000000" stroke-width="2"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
