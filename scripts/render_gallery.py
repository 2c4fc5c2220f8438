"""Render an SVG gallery: full circles at several radii, plus a quadrant
comparison of the constructed path against the midpoint rasterizer.

The constructed paths are what ``latticircle generate --format svg
--overlay-circle`` writes; the midpoint baseline, which no command draws,
is rendered with the library."""

import argparse
import pathlib
import sys

from latticircle.cli import run
from latticircle.reference import midpoint_quadrant
from latticircle.svg import render_path_svg

FULL_RADII = (5, 10, 15, 20, 25, 30)


def generate_svg(r: int, path: pathlib.Path, *extent: str) -> None:
    code = run([
        "generate", "--radius", str(r), *extent, "--format", "svg", "--overlay-circle",
        "--out", str(path),
    ])
    if code:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/gallery")
    ap.add_argument("--compare-radius", type=int, default=15)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for r in FULL_RADII:
        generate_svg(r, out_dir / f"circle_r{r}.svg", "--extent", "full")

    r = args.compare_radius
    generate_svg(r, out_dir / f"quadrant_signum_r{r}.svg")
    # the midpoint octant mirror double-emits its seam points, so this one
    # fails the validity check that the constructed path passes
    (out_dir / f"quadrant_midpoint_r{r}.svg").write_text(
        render_path_svg(midpoint_quadrant(r), r, overlay_circle=True), encoding="utf-8"
    )
    print(f"wrote {len(FULL_RADII) + 2} files to {out_dir}")


if __name__ == "__main__":
    main()
