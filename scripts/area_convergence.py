"""Tabulate quarter-disc areas with their staircase bounds over growing radii.

The printed ratio column is 4*area/r^2, which should drift toward pi.
"""

import argparse
import math
import pathlib

from latticircle.area import area_report
from latticircle.cli import parse_radii_spec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-radius", type=int, default=1)
    ap.add_argument("--max-radius", type=int, default=2000)
    ap.add_argument("--samples", type=int, default=16)
    ap.add_argument("--out", help="also write the table as CSV")
    args = ap.parse_args()
    try:
        radii = parse_radii_spec(f"log:{args.min_radius}:{args.max_radius}:{args.samples}")
    except ValueError as e:
        ap.error(str(e))

    rows = []
    print(f"{'r':>6} {'area':>12} {'inner':>12} {'outer':>12} {'ratio':>10} {'|ratio-pi|':>12}")
    for r in radii:
        rep = area_report(r)
        err = abs(rep.ratio - math.pi)
        rows.append((r, rep.area, rep.inner, rep.outer, rep.ratio, err))
        print(f"{r:>6} {rep.area:>12} {rep.inner:>12} {rep.outer:>12} {rep.ratio:>10.6f} {err:>12.3e}")

    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("r,area,inner,outer,ratio,abs_error\n")
            for r, area, inner, outer, ratio, err in rows:
                fh.write(f"{r},{area},{inner},{outer},{ratio:.12g},{err:.12g}\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
