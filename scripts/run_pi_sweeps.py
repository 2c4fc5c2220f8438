"""Run the pi-convergence sweeps and write one CSV per estimator/source pair.

Covers the constructed path with both means, the exact parametric samples,
and the two naive snappings.  Prints a last-radius summary to stdout.
"""

import argparse
import math
import pathlib

from latticircle.estimators import Estimator, sweep
from latticircle.reference import DiscretizationSource

PAIRS = [
    (Estimator.ARITHMETIC, DiscretizationSource.SIGNUM),
    (Estimator.HARMONIC, DiscretizationSource.SIGNUM),
    (Estimator.ARITHMETIC, DiscretizationSource.PARAM_EXACT),
    (Estimator.ARITHMETIC, DiscretizationSource.PARAM_FLOOR),
    (Estimator.ARITHMETIC, DiscretizationSource.PARAM_ROUND),
]


def log_radii(lo: int, hi: int, k: int) -> list[int]:
    if k == 1:
        return [lo]
    step = (math.log(hi) - math.log(lo)) / (k - 1)
    return sorted({round(math.exp(math.log(lo) + i * step)) for i in range(k)})


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-radius", type=int, default=2)
    ap.add_argument("--max-radius", type=int, default=10000)
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--out-dir", default="out/sweeps")
    args = ap.parse_args()

    radii = log_radii(args.min_radius, args.max_radius, args.samples)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{len(radii)} radii from {radii[0]} to {radii[-1]}")
    for estimator, source in PAIRS:
        records = sweep(radii, estimator, source)
        path = out_dir / f"{estimator.value}_{source.value}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("r,estimator,source,value,target,abs_error\n")
            for rec in records:
                target = rec.target_note or f"{rec.target:.12g}"
                fh.write(
                    f"{rec.radius},{estimator.value},{source.value},"
                    f"{rec.value:.12g},{target},{rec.abs_error:.12g}\n"
                )
        last = records[-1]
        print(
            f"  {estimator.value:10s} {source.value:12s} -> {path}   "
            f"value({last.radius})={last.value:.9f}  abs_error={last.abs_error:.3e}"
        )


if __name__ == "__main__":
    main()
