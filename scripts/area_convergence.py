"""Tabulate quarter-disc areas with their staircase bounds over growing radii.

The printed ratio column is 4*area/r^2, which should drift toward pi.
The column E/sqrt(rho) is the lattice-point error scaled by its conjectured
size: 4*area counts the points of (Z + 1/2)^2 in the disc of radius
rho = sqrt(r^2 - 1/2), N(rho) = pi rho^2 + E(rho), and the column is
E/sqrt(rho) with E = 4*area - pi (r^2 - 1/2), in float arithmetic.
The last column, (A-pi)*r^1.5, scales the error of the arithmetic mean
A = 2 sum(1/a_n) of the same path, the float that ``latticircle pi`` prints.
"""

import argparse
import math
import pathlib

from latticircle.area import area_report
from latticircle.cli import format_real, parse_radii_spec
from latticircle.estimators import arithmetic_mean_pi, pi_sequence


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-radius", type=int, default=1)
    ap.add_argument("--max-radius", type=int, default=2000)
    ap.add_argument("--samples", type=int, default=16)
    ap.add_argument("--out", help="also write the table as CSV")
    args = ap.parse_args()
    try:
        radii = parse_radii_spec(f"log:{args.min_radius}:{args.max_radius}:{args.samples}")
    except (ValueError, MemoryError) as e:  # a bad spec, or radii past memory
        ap.error(str(e))

    rows = []
    print(
        f"{'r':>6} {'area':>12} {'inner':>12} {'outer':>12} {'ratio':>10} {'|ratio-pi|':>12}"
        f" {'E/sqrt(rho)':>12} {'(A-pi)*r^1.5':>13}"
    )
    for r in radii:
        rep = area_report(r)
        err = abs(rep.ratio - math.pi)
        rho = math.sqrt(r * r - 0.5)
        scaled = (4 * rep.area - math.pi * rho * rho) / math.sqrt(rho)
        mean_err = (arithmetic_mean_pi(pi_sequence(r, "signum")) - math.pi) * r**1.5
        rows.append((r, rep.area, rep.inner, rep.outer, rep.ratio, err, scaled, mean_err))
        print(
            f"{r:>6} {rep.area:>12} {rep.inner:>12} {rep.outer:>12} {rep.ratio:>10.6f}"
            f" {err:>12.3e} {scaled:>12.4f} {mean_err:>13.6f}"
        )

    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("r,area,inner,outer,ratio,abs_error,E/sqrt(rho),(A-pi)*r^1.5\n")
            for r, area, inner, outer, *reals in rows:
                reals = ",".join(map(format_real, reals))
                fh.write(f"{r},{area},{inner},{outer},{reals}\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
