#!/usr/bin/env python3
"""Empirical scan: how many Model-I levels clear the radicand criterion as C1
sweeps toward its upper limit on the C2 = 1/2, C3 = k - 1 branch.

The count is recorded, not asserted: the closed-form level count is one of
the quantities the oracle report flags as inconsistent with the oracle
spectrum, and this scan documents its parameter dependence.
"""
import argparse
import sys

import numpy as np

from dirac_sphere import gauge, spectra


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=float, default=2.0)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--points", type=int, default=25)
    args = ap.parse_args()

    print(f"k = {args.k}, branch C2=1/2, C3=k-1, levels scanned 0..{args.n_max}")
    print(f"{'C1':>10s} {'radicand-ok count':>18s} {'lowest E_sq_bar':>16s}")
    prev = None
    monotone = True
    for c1 in np.linspace(0.01, 0.4999, args.points):
        p = gauge.Model1Params.from_branch(float(c1), args.k, "half-down")
        lines = [spectra.energy_model1(n, p, args.k, 1.0) for n in range(args.n_max + 1)]
        count = sum(1 for ln in lines if ln.radicand_ok)
        print(f"{c1:10.4f} {count:18d} {lines[0].E_sq_bar:16.6f}")
        if prev is not None and count < prev:
            monotone = False
        prev = count
    print(f"count non-decreasing in C1: {monotone}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
