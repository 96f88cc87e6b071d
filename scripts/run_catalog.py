#!/usr/bin/env python3
"""Solve every catalog kernel at one speed and emit solution files + a summary.

Usage: python scripts/run_catalog.py [outdir] [c]
"""

import sys
from pathlib import Path

from nlgp import solve_auto
from nlgp.io import write_solution
from nlgp.potentials import reference_cases


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/catalog")
    c = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    outdir.mkdir(parents=True, exist_ok=True)
    for name, spec, L, N in reference_cases():
        sol, _ = solve_auto(spec, c, half_length=L, size=N)
        status = "ok" if sol.converged and sol.identity_report.passed else "FAIL"
        print(f"{name:22s} {status}  iters={sol.newton_iters:2d} "
              f"res={sol.residual_sup:.2e} id={sol.identity_report.max_residual:.2e} "
              f"E={sol.E:.6f} p={sol.p:.6f}")
        write_solution(outdir / f"{name}_c{c:g}.json", sol)
    print(f"wrote solution files to {outdir}/ "
          f"(summarize with: nlgp report --dir {outdir})")


if __name__ == "__main__":
    main()
