#!/usr/bin/env python3
"""Partial-sum study across charges: decay exponents on both sides of the
convergence threshold.

For each charge the vacuum band series is summed to --n-max bands; the tail
slope of the band norms and the increment ratio S_2N - S_N are printed, and
per-charge CSVs are written when --out-dir is given.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chargedfock.diagnostics import loglog_slope
from chargedfock.twodim import partial_sum_norm_series, write_convergence_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=256, help="bands per series")
    ap.add_argument("--m", type=int, default=0, help="mode number of the second factor")
    ap.add_argument("--out-dir", type=Path, default=None, help="write per-charge CSVs here")
    args = ap.parse_args()

    # (label, alpha^2): exact below the threshold, float at it
    charges = [
        ("1/4", Fraction(1, 16)),
        ("1/2", Fraction(1, 4)),
        ("critical", 0.5),
    ]
    print(f"{'alpha':>10} {'band slope':>12} {'S_2N - S_N at N=' + str(args.n_max // 2):>22}")
    for label, alpha_sq in charges:
        rows = partial_sum_norm_series(alpha_sq, args.m, args.n_max)
        series = [(band, float(val)) for band, val, _ in rows if val > 0]
        sums = {band: float(total) for band, _, total in rows}
        slope = loglog_slope(series, (args.n_max // 8, args.n_max - 1))
        n_half = args.n_max // 2
        increment = sums[args.n_max - 1] - sums[n_half - 1]
        print(f"{label:>10} {slope:>12.4f} {increment:>22.6e}")
        if args.out_dir:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            path = args.out_dir / f"partial_sums_{label.replace('/', '_')}.csv"
            with open(path, "w", encoding="utf-8") as fp:
                write_convergence_csv(rows, fp)
            print(f"           wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
