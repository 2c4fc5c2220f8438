"""Run the pi-convergence sweeps and write one CSV per estimator/source pair.

Covers the constructed path with both means, the exact parametric samples,
and the two naive snappings.  Each CSV is what ``latticircle sweep`` writes
for the same radii.  Prints a last-radius summary to stdout.
"""

import argparse
import pathlib
import sys

from latticircle.cli import parse_radii_spec, run

PAIRS = [
    ("arithmetic", "signum"),
    ("harmonic", "signum"),
    ("arithmetic", "param-exact"),
    ("arithmetic", "param-floor"),
    ("arithmetic", "param-round"),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-radius", type=int, default=2)
    ap.add_argument("--max-radius", type=int, default=10000)
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--out-dir", default="out/sweeps")
    args = ap.parse_args()

    spec = f"log:{args.min_radius}:{args.max_radius}:{args.samples}"
    try:
        radii = parse_radii_spec(spec)
    except ValueError as e:
        ap.error(str(e))
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{len(radii)} radii from {radii[0]} to {radii[-1]}")
    for estimator, source in PAIRS:
        path = out_dir / f"{estimator}_{source}.csv"
        code = run([
            "sweep", "--radii", spec, "--estimator", estimator,
            "--source", source, "--out", str(path),
        ])
        if code:
            sys.exit(code)
        last = path.read_text(encoding="utf-8").splitlines()[-1].split(",")
        print(
            f"  {estimator:10s} {source:12s} -> {path}   "
            f"value({last[0]})={float(last[3]):.9f}  abs_error={float(last[5]):.3e}"
        )


if __name__ == "__main__":
    main()
