#!/usr/bin/env python3
"""Amplitude decay toward the sonic speed for the contact kernel.

Fits the vanishing exponent of the trough depth and checks the lower bound
||W * eta||_inf >= (2 - c^2)/4 at every sample.

Usage: python scripts/sonic_limit.py [out.csv]
"""

import sys

from nlgp import delta, sonic_sweep
from nlgp.io import SONIC_COLUMNS, write_csv


def main():
    sweep = sonic_sweep(delta())
    print(f"{'c':>10s} {'sqrt2-c':>10s} {'eta_max':>12s} {'E':>12s} {'p':>12s}")
    for c, gap, eta, E, p, margin in sweep.rows:
        print(f"{c:10.6f} {gap:10.4f} {eta:12.4e} {E:12.4e} {p:12.4e}")
    print(f"fitted amplitude exponent gamma = {sweep.gamma:.4f} "
          f"(eta_max ~ (2 - c^2)^gamma)")
    print(f"nonvanishing lower bound held everywhere: {sweep.all_nonvanishing_ok}")
    if len(sys.argv) > 1:
        write_csv(sys.argv[1], SONIC_COLUMNS, sweep.rows)
        print(f"wrote {sys.argv[1]}")


if __name__ == "__main__":
    main()
