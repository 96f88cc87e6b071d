"""The benchmark's workloads: seeded inputs, the timed op, and its oracle.

An *op* is one public call a user makes.  Each workload draws its inputs
from the seed only (the speeds and the order of the kernels); the program
receives the generated values and nothing else.  Every op is checked
against the paper's oracles after its timed interval ends.

Speeds are spread with a seeded golden-ratio sequence per kernel, and every
cycle visits each kernel once in a seeded order, so two seeds give the same
mix of inputs at different points.  That keeps medians steady across seeds
while the inputs still change with the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

import nlgp
from nlgp import cli, functionals, solver
from nlgp.io import read_solution
from nlgp.potentials import kink_aligned_half_length
from nlgp.spectral import Grid, convolve

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Which end-to-end metric each layer metric should move, on which workload.
# A later change that claims a gain is held to these predictions.
LAYER_EXPECTATIONS = (
    "potentials.decay_prediction.self_s -> op_p50_s on catalog (about a third "
    "of the op); about 1% of wide; absent from branch and mpass",
    "potentials.symbol.calls/points and spectral.fft.* -> op_p50_s and ops_per_s "
    "on wide most, then catalog and mpass; a symbol cache or rfft that raises "
    "peak_rss_mb shows it on wide",
    "solver.newton_iters, solver.gmres.iters, solver.matvec.calls, "
    "solver.newton_solve.converged_ratio -> ops_per_s on branch (predictor, fewer "
    "halvings) and on wide; no change on mpass, whose only solve is in the check",
    "hydro.finalize_s, hydro.identity_suite.self_s -> branch (every member "
    "finalizes) and catalog (identity suite in both solve and verify); no change "
    "on mpass",
    "functionals.* -> op_p50_s on mpass only; batching the 33 string nodes "
    "should raise peak_rss_mb there",
    "io.*, cli.main.self_s -> catalog and wide only",
)


@dataclass(frozen=True)
class Kernel:
    kind: str
    params: dict

    def spec(self):
        return nlgp.make_potential(self.kind, **self.params)

    def label(self) -> str:
        return self.spec().label()

    def cli_flags(self):
        flags = []
        for k, v in self.params.items():
            flags += [f"--{'lambda' if k == 'lam' else k}", repr(v)]
        return flags


@dataclass(frozen=True)
class Op:
    index: int
    kernel: int
    c: float


DELTA = Kernel("delta", {})
EXP_REPULSIVE = Kernel("exp_repulsive", {"alpha": 1.0, "beta": 3.0})
SHIFTED_DELTAS = Kernel("shifted_deltas", {"lam": 0.5})
GAUSSIAN = Kernel("gaussian", {"lam": 0.3})
SOFT_CORE = Kernel("soft_core", {"lam": 1.0})
BOCHNER_RIESZ = Kernel("bochner_riesz", {"kappa": 0.4})


def delta_energy(c: float) -> float:
    """Closed-form energy (2 - c^2)^{3/2} / 3 of the contact soliton."""
    return (2.0 - c ** 2) ** 1.5 / 3.0


class Workload:
    """One seeded workload.  Subclasses define ``build``, ``run`` and ``check``.

    ``build`` makes the specs, grids and certificates (part of set-up);
    ``run`` is the timed op; ``check`` returns the list of oracle failures.
    """

    name: str
    why: str
    op: str
    kernels: tuple
    speeds: tuple
    stresses: str
    bypasses: str

    def __init__(self, workdir: str):
        self.workdir = workdir        # scratch space for files an op writes

    def ops(self, seed: int):
        """Endless seeded op stream, one cycle over the kernels at a time."""
        rng = np.random.default_rng(seed % 2 ** 63)   # any integer seed
        offsets = rng.random(len(self.kernels))
        counts = [0] * len(self.kernels)
        lo, hi = self.speeds
        index = 0
        while True:
            for k in rng.permutation(len(self.kernels)):
                u = float((offsets[k] + counts[k] * GOLDEN) % 1.0)
                counts[k] += 1
                yield Op(index, int(k), lo + (hi - lo) * u)
                index += 1

    def warmup_op(self) -> Op:
        """Fixed untimed op: first kernel at the middle of the speed range."""
        return Op(-1, 0, 0.5 * sum(self.speeds))

    def record(self) -> dict:
        return {"name": self.name, "why": self.why, "op": self.op,
                "kernels": [k.label() for k in self.kernels],
                "speed_range": list(self.speeds),
                "stresses": self.stresses, "bypasses": self.bypasses}

    def build(self):
        raise NotImplementedError

    def run(self, state, op: Op):
        raise NotImplementedError

    def check(self, state, op: Op, result) -> list:
        raise NotImplementedError


def cli_exit_code(argv) -> int:
    """Exit code of ``nlgp`` in process; argparse rejections exit by raising."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class CliRoundTrip(Workload):
    """``nlgp solve ... --out f.json`` then ``nlgp verify f.json``, in process."""

    grid_size = None        # None: the CLI's default grid
    half_length = None

    @property
    def path(self) -> str:
        return os.path.join(self.workdir, f"{self.name}-solution.json")

    def grid_flags(self, kernel: Kernel):
        if self.grid_size is None:
            return []
        L = kink_aligned_half_length(kernel.spec(), self.half_length)
        return ["--L", repr(L), "--N", str(self.grid_size)]

    def build(self):
        return [["solve", "--potential", k.kind, *k.cli_flags(), *self.grid_flags(k)]
                for k in self.kernels]

    def run(self, state, op):
        argv = state[op.kernel] + ["--c", repr(op.c), "--out", self.path]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            solve_rc = cli_exit_code(argv)
            verify_rc = cli_exit_code(["verify", self.path]) if solve_rc == 0 else None
        return solve_rc, verify_rc, sink.getvalue()

    def check(self, state, op, result):
        solve_rc, verify_rc, output = result
        if solve_rc != 0 or verify_rc != 0:
            tail = output.strip().splitlines()[-1:] or [""]
            return [f"exit codes solve={solve_rc} verify={verify_rc}: {tail[0]}"]
        if self.kernels[op.kernel].kind != "delta":
            return []
        _, grid, c, arrays, doc = read_solution(self.path)
        problems = []
        err = float(np.abs(arrays["rho"] - solver.initial_guess(grid, c)).max())
        if not err <= 1e-8:
            problems.append(f"delta profile off the closed form by {err:.2e}")
        rel = abs(doc["E"] - delta_energy(c)) / delta_energy(c)
        if not rel <= 1e-6:
            problems.append(f"delta energy off the closed form by {rel:.2e}")
        return problems


class Catalog(CliRoundTrip):
    name = "catalog"
    why = ("small transforms: per-call overhead, symbol re-evaluation and "
           "decay_prediction strip sampling weigh as much as the FFTs; the only "
           "workload on the default CLI grid")
    op = ("cli.main solve --c <c> --out f.json, then cli.main verify f.json "
          "(default grid L=128, N=4096, auto-refine on)")
    kernels = (DELTA, EXP_REPULSIVE, SHIFTED_DELTAS, GAUSSIAN, SOFT_CORE)
    speeds = (0.4, 1.25)
    stresses = "cli, io, potentials.decay_prediction, hydro.identity_suite"
    bypasses = "functionals, solver.continue_branch"


class Wide(CliRoundTrip):
    name = "wide"
    why = ("FFTs at N=65536 dominate; Bochner-Riesz is the algebraic-decay "
           "kernel and skips auto-refinement; where rfft and hoisting pay most")
    op = ("cli.main solve --L <L> --N 65536 --c <c> --out f.json, then cli.main "
          "verify f.json (L = kink-aligned 2048 for bochner_riesz, 2048 for gaussian)")
    kernels = (BOCHNER_RIESZ, GAUSSIAN)
    speeds = (0.8, 1.1)
    grid_size = 65536
    half_length = 2048.0
    stresses = "spectral.fft, potentials.symbol, solver.gmres"
    bypasses = "functionals, solver.continue_branch"


class Branch(Workload):
    name = "branch"
    why = ("every solve is warm-started, so Newton/GMRES iteration counts, step "
           "halving and the repeated finalize stage set the time; a continuation "
           "predictor moves this workload and no other")
    op = "continue_branch(spec, Grid(64, 4096), c_from, 1.35), one op per branch"
    kernels = (DELTA, EXP_REPULSIVE, SHIFTED_DELTAS)
    speeds = (0.2, 0.25)         # c_from
    c_to = 1.35
    stresses = "solver.newton_solve, solver.gmres, hydro finalize"
    bypasses = "cli, io, potentials.decay_prediction, functionals"

    def build(self):
        # Spacing h = 1/32.  On Grid(128, 4096) (h = 1/16) members below
        # c ~ 0.3 converge but fail the identity suite (residuals 1e-6 to
        # 2e-4): that grid does not resolve the near-vortex core.
        return Grid(64.0, 4096), [k.spec() for k in self.kernels]

    def run(self, state, op):
        grid, specs = state
        return solver.continue_branch(specs[op.kernel], grid, op.c, self.c_to)

    def check(self, state, op, branch):
        grid, specs = state
        spec = specs[op.kernel]
        problems = []
        if branch.termination != "reached_cmax":
            problems.append(f"branch ended {branch.termination}")
        md = spec.measure_decomposition
        for s in branch.solutions:
            if not (s.converged and s.identity_report.passed):
                problems.append(f"member c={s.c:.4f}: {s.status}, identities "
                                f"{'pass' if s.identity_report.passed else 'FAIL'}")
            if spec.kind == "delta":
                rel = abs(s.E - delta_energy(s.c)) / delta_energy(s.c)
                if not rel <= 1e-6:
                    problems.append(f"member c={s.c:.4f}: energy law off by {rel:.2e}")
            if md is not None:
                problems += [f"member c={s.c:.4f}: {b} bound violated"
                             for b in a_priori_violations(spec, grid, s)]
        return problems


def a_priori_violations(spec, grid, sol) -> list:
    """Amplitude, derivative, nonvanishing and lower bounds for measure kernels."""
    md, f, c = spec.measure_decomposition, sol.fields, sol.c
    cap = 1.0 + c ** 2 / 4.0
    v1 = md.b1 * cap ** 2
    root = math.sqrt(1.0 + 4.0 * c ** 2 / v1)
    out = []
    if float(np.max(f.rho) ** 2) > md.b0 * cap:
        out.append("amplitude")
    if float(np.sqrt(f.K.max())) > v1:
        out.append("derivative")
    if np.abs(convolve(spec, grid, f.eta)).max() < (2.0 - c ** 2) / 4.0:
        out.append("nonvanishing")
    if f.min_rho < (root - 1.0) / (root + 1.0):
        out.append("lower")
    return out


class MountainPass(Workload):
    name = "mpass"
    why = ("the only workload in functionals and without GMRES; the batched "
           "string method moves this workload alone")
    op = ("mountain_pass_bracket(c, delta, certify(delta), Grid(64, 2048), "
          "refine_steps=200)")
    kernels = (DELTA,)
    speeds = (0.9, 1.1)
    refine_steps = 200
    stresses = "functionals (string method), spectral.fft at N=2048"
    bypasses = "cli, io, solver (no GMRES), potentials.decay_prediction"

    def build(self):
        spec = self.kernels[0].spec()
        return spec, nlgp.certify(spec), Grid(64.0, 2048)

    def run(self, state, op):
        spec, cert, grid = state
        return functionals.mountain_pass_bracket(op.c, spec, cert, grid,
                                                 refine_steps=self.refine_steps)

    def check(self, state, op, bracket):
        spec, _, grid = state
        sol = solver.newton_solve(spec, grid, op.c, solver.initial_guess(grid, op.c))
        problems = []
        if not sol.converged:
            problems.append(f"reference solve {sol.status}")
        if not bracket.lower > 0.0:
            problems.append(f"sphere bound {bracket.lower:.3e} not positive")
        if not bracket.endpoint_J < 0.0:
            problems.append(f"endpoint J {bracket.endpoint_J:.3e} not negative")
        if not bracket.lower <= sol.J <= 1.1 * bracket.upper:
            problems.append(f"J(soliton) {sol.J:.6f} outside "
                            f"[{bracket.lower:.4e}, 1.1 * {bracket.upper:.6f}]")
        return problems


WORKLOADS = {w.name: w for w in (Catalog, Wide, Branch, MountainPass)}
