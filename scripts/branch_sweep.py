#!/usr/bin/env python3
"""Continue branches in speed for several kernels and emit CSV tables.

Each row carries c, E, p, J, eta_max, min_rho, a tail-decay fit, the
Newton iteration count and dp/dc, ready for any plotting tool.

Usage: python scripts/branch_sweep.py [outdir]
"""

import sys
from pathlib import Path

from nlgp import Grid, continue_branch
from nlgp.io import write_branch_csv
from nlgp.potentials import reference_cases


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/branches")
    outdir.mkdir(parents=True, exist_ok=True)
    # the first four reference kernels, each on its default grid
    for name, spec, L, N in reference_cases()[:4]:
        grid = Grid(L, N)
        branch = continue_branch(spec, grid, 0.2, 1.35)
        path = outdir / f"{name}.csv"
        write_branch_csv(path, branch)
        print(f"{name:22s} {len(branch.solutions):3d} members, "
              f"terminated: {branch.termination}; wrote {path}")


if __name__ == "__main__":
    main()
