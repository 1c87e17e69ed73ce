#!/usr/bin/env python3
"""Residual-versus-cutoff sweep for the perturbed boost family.

Runs the weak-relation report at a range of level cutoffs and prints how the
largest bilinear residual and its tail budget shrink as the window grows.
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chargedfock.desitter import verify_lorentz
from chargedfock.fock import Space, Truncation
from chargedfock.scalar import make_context


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cutoffs", default="8,12,16,20,24", help="comma-separated level cutoffs")
    ap.add_argument("--lambda", dest="lam", default="1/4", help="perturbation strength p/q")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=2)
    args = ap.parse_args()

    ctx = make_context("exact-rational")
    alpha = Fraction(1, 2)
    lam = Fraction(args.lam)
    cutoffs = [int(tok) for tok in args.cutoffs.split(",")]
    print(f"lambda = {lam}, alpha = {alpha}")
    print(f"{'L':>4} {'records':>8} {'max |residual|':>16} {'max budget':>12} {'time':>8}")
    for L in cutoffs:
        space = Space(ctx, alpha, Truncation(L, -2, 2))
        t0 = time.perf_counter()
        report = verify_lorentz(space, alpha, lam, seed=args.seed, samples=args.samples)
        dt = time.perf_counter() - t0
        s = report["summary"]
        print(
            f"{L:>4} {s['records']:>8} {s['max_abs_residual']:>16.6e}"
            f" {s['max_tail_budget']:>12.4e} {dt:>7.1f}s"
        )
        if s["verdict"] != "pass":
            print(f"     verdict: {s['verdict']}")
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
