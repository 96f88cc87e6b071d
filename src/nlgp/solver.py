"""Soliton computation: preconditioned Newton-Krylov on the amplitude
equation, speed continuation, and the sonic sweep.

The linearization of the amplitude equation equals the vacuum multiplier
M_c(xi) = xi^2 + 2 W_hat - c^2 in the far field, so 1/M_c is used as the
(exact-at-vacuum) preconditioner for the matrix-free Krylov solves.  It is
applied on the right, and GMRES runs on the half-lattice coordinates of
``spectral.half_spectrum``, whose dot product is that of the samples: its
stopping test is on the unpreconditioned residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import ConfigError, NlgpError, OutOfRegimeError, VortexError
from .hydro import (WaveFields, action, admissible, assemble, energy,
                    identity_suite, momentum, nonvanishing_check,
                    residual_norms, rho_equation, rho_jacobian_preconditioned)
from .potentials import PotentialSpec, inverse_mc, mc_symbol
from .spectral import (Grid, from_half_spectrum, half_spectrum, sech,
                       tail_magnitude)

DAMPING_FACTOR = 0.5     # Newton step shrink per rejected trial
MAX_DAMPINGS = 20        # trials per Newton step before vanishing_amplitude
KRYLOV_MAXITER = 400     # GMRES iterations per Newton step
KRYLOV_RESTART = 20      # GMRES iterations per restart cycle
FORCING_MAX = 0.1        # loosest relative GMRES tolerance of a Newton step
TRIVIAL_ETA_TOL = 1e-8   # max eta below which a converged profile is flat
DC_MIN = 1e-5            # continuation step below which a branch stops
TAIL_TOL = 1e-10         # |1 - rho| at the domain edges that solve_auto accepts
MAX_REFINEMENTS = 3      # domain doublings solve_auto may make


@dataclass(frozen=True)
class SolverOptions:
    tol_newton: float = 1e-10        # on sup |F(rho)|
    max_iter: int = 50
    dc_init: float = 0.05            # first continuation step
    krylov_tol: float = 1e-8         # tightest relative GMRES tolerance of a Newton step

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 0.0 < self.tol_newton < math.inf:
            raise ValueError(f"tol_newton must be finite and positive, "
                             f"got {self.tol_newton!r}")
        if not 0.0 < self.krylov_tol < 1.0:
            raise ValueError(f"krylov_tol must lie in (0, 1), got {self.krylov_tol!r}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")
        if not DC_MIN < self.dc_init < math.inf:
            raise ValueError(f"dc_init must be finite and exceed {DC_MIN:g}, "
                             f"got {self.dc_init!r}")


@dataclass(frozen=True)
class SolitonSolution:
    fields: WaveFields
    converged: bool
    status: str                       # converged | newton_failed | trivialized | vanishing_amplitude
    newton_iters: int
    krylov_iters: int                 # GMRES iterations over all Newton steps
    residual_sup: float
    residual_l2: float
    identity_report: object = None
    E: float = math.nan
    p: float = math.nan
    J: float = math.nan

    @property
    def spec(self) -> PotentialSpec:
        return self.fields.spec

    @property
    def c(self) -> float:
        return self.fields.c

    @property
    def grid(self) -> Grid:
        return self.fields.grid

    @property
    def eta_max(self) -> float:
        return float(self.fields.eta.max())


@dataclass
class SolitonBranch:
    spec: PotentialSpec
    solutions: list
    termination: str                  # reached_cmax | trivialized | newton_failed | sonic_limit
    rejected_steps: list = field(default_factory=list)  # (c, status, newton_iters) per halving

    @property
    def identity_failures(self) -> list:
        """(c, max relative residual) of each member failing the identity suite."""
        return [(s.c, s.identity_report.max_residual) for s in self.solutions
                if not s.identity_report.passed]

    def table(self):
        """Columns: c, E, p, J, eta_max, min_rho, newton_iters."""
        rows = [(s.c, s.E, s.p, s.J, s.eta_max, s.fields.min_rho, s.newton_iters)
                for s in self.solutions]
        return np.array(rows)


def initial_guess(grid: Grid, c: float) -> np.ndarray:
    """Amplitude of the contact-kernel soliton, the universal branch seed."""
    if not (0.0 < abs(c) < math.sqrt(2.0)):
        raise OutOfRegimeError(f"closed-form seed needs 0 < |c| < sqrt(2), got {c:g}")
    nu = math.sqrt(2.0 - c ** 2) / 2.0
    return np.sqrt(1.0 - ((2.0 - c ** 2) / 2.0) * sech(nu * grid.x) ** 2)


def gmres(A, b, *, rtol, maxiter, M=None, callback=None, callback_type=None):
    """Restarted GMRES(KRYLOV_RESTART) for A x = b from x = 0; returns
    (x, info, iterations), info 0 on convergence, else the iterations made.

    The calling convention is scipy's: ``A`` has ``shape``, ``dtype`` and
    ``matvec``, and the stop is ||b - A x|| <= rtol ||b||.  But ``maxiter``
    counts Krylov iterations, ``callback`` receives each iteration's relative
    residual estimate whatever ``callback_type`` says, and a preconditioner
    belongs inside ``A``: ``M`` must be None.  These three keep scipy's names
    because ``bench/tracer.py`` passes them to instrument the solve.

    Arnoldi runs classical Gram-Schmidt twice, two matrix products per
    iteration and as stable as the modified form (Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005).  Givens rotations carry the residual
    estimate, the iteration stops on it, and the true residual is formed
    only to start a new cycle.
    """
    if M is not None:
        raise ValueError("gmres takes no M: apply the preconditioner inside A")
    bnorm = float(np.linalg.norm(b))
    tol = rtol * bnorm
    x, r, beta, its = np.zeros(b.shape), b, bnorm, 0
    V = np.empty((min(KRYLOV_RESTART, maxiter) + 1, b.size))
    while beta > tol and its < maxiter:
        m = min(KRYLOV_RESTART, maxiter - its)
        V[0] = r / beta
        R, g, rotations = np.zeros((m, m)), [beta], []
        for j in range(m):
            w = A.matvec(V[j])
            h = V[:j + 1] @ w
            w = w - h @ V[:j + 1]
            h2 = V[:j + 1] @ w
            w -= h2 @ V[:j + 1]
            col, hw = (h + h2).tolist(), float(np.linalg.norm(w))
            for i, (cs, sn) in enumerate(rotations):
                col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
            d = math.hypot(col[j], hw)
            cs, sn = col[j] / d, hw / d
            rotations.append((cs, sn))
            col[j] = d
            R[:j + 1, j] = col
            g.append(-sn * g[j])
            g[j] *= cs
            beta = abs(g[-1])
            its += 1
            if callback is not None:
                callback(beta / bnorm)
            if beta <= tol:
                break
            V[j + 1] = w / hw
        k = len(rotations)
        x += np.linalg.solve(R[:k, :k], g[:k]) @ V[:k]
        if beta > tol and its < maxiter:
            r = b - A.matvec(x)
            beta = float(np.linalg.norm(r))
    return x, 0 if beta <= tol else its, its


def _symmetrize(grid: Grid, f: np.ndarray) -> np.ndarray:
    return 0.5 * (f + grid.reflect(f))


def newton_solve(spec: PotentialSpec, grid: Grid, c: float, rho0: np.ndarray,
                 opts: SolverOptions = SolverOptions()) -> SolitonSolution:
    """Damped Newton iteration on the amplitude equation, in the even subspace.

    The seed, the residual and each accepted step are symmetrized, so the
    iterate stays even about x = 0, where the trough of a dark soliton sits.
    Linear solves are matrix-free GMRES, right-preconditioned by 1/M_c, on
    the half-lattice coordinates of the correction's spectrum, each to the
    relative tolerance max(krylov_tol, min(FORCING_MAX, sup |F|)): an
    inexact Newton method whose forcing term is O(|F|), so it keeps local
    quadratic convergence (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
    19, 1982).  Steps that would push the amplitude through the positivity
    floor are rejected and shrunk.  Convergence to a flat profile is flagged
    ``trivialized`` rather than treated as a soliton.
    """
    if not admissible(rho0):
        raise VortexError("seed amplitude at or below the positivity floor")
    n, inv_mc = grid.size + 2, inverse_mc(spec, c, grid)
    rho = _symmetrize(grid, np.array(rho0, dtype=float))

    def residual(r):
        return rho_equation(grid, r, c, spec)

    def finalize(rho, status, iters, res):
        sup, l2 = residual_norms(grid, res)
        fields = assemble(grid, rho, c, spec)
        converged = status == "converged"
        if converged and fields.eta.max() < TRIVIAL_ETA_TOL:
            status, converged = "trivialized", False
        return SolitonSolution(
            fields=fields, converged=converged, status=status,
            newton_iters=iters, krylov_iters=krylov, residual_sup=sup,
            residual_l2=l2, identity_report=identity_suite(fields),
            E=energy(fields), p=momentum(fields), J=action(fields))

    res, krylov = residual(rho), 0
    for it in range(opts.max_iter):
        res = _symmetrize(grid, res)
        nrm = float(np.abs(res).max())
        if nrm < opts.tol_newton:
            return finalize(rho, "converged", it, res)
        A = SimpleNamespace(shape=(n, n), dtype=np.dtype(float),
                            matvec=rho_jacobian_preconditioned(grid, rho, c, spec, inv_mc))
        y, info, its = gmres(A, half_spectrum(grid, res),
                             rtol=max(opts.krylov_tol, min(FORCING_MAX, nrm)),
                             maxiter=KRYLOV_MAXITER)
        krylov += its
        if info != 0:
            return finalize(rho, "newton_failed", it, res)
        d = from_half_spectrum(grid, y, inv_mc)
        t = 1.0
        for _ in range(MAX_DAMPINGS):
            trial = rho - t * d
            if admissible(trial):
                trial_res = residual(trial)
                if float(np.abs(trial_res).max()) < nrm:
                    rho, res = _symmetrize(grid, trial), trial_res
                    break
            t *= DAMPING_FACTOR
        else:
            return finalize(rho, "vanishing_amplitude", it, res)
    return finalize(rho, "newton_failed", opts.max_iter, res)


def solve_auto(spec: PotentialSpec, c: float, opts: SolverOptions = SolverOptions(),
               half_length: float = 128.0, size: int = 4096):
    """Solve on the default grid, doubling the domain (at most MAX_REFINEMENTS
    times) until the tail falls below TAIL_TOL.

    Kernels with an algebraic tail (``PotentialSpec.algebraic_tail``) never
    meet an exponential tail tolerance, so refinement is skipped for them and
    the periodization is only monitored.
    """
    grid = Grid(half_length, size)
    refine = not spec.algebraic_tail
    sol = newton_solve(spec, grid, c, initial_guess(grid, c), opts)
    tail = tail_magnitude(grid, 1.0 - sol.fields.rho)
    n = 0
    while refine and sol.converged and tail > TAIL_TOL and n < MAX_REFINEMENTS:
        grid = grid.refined()
        sol = newton_solve(spec, grid, c, initial_guess(grid, c), opts)
        tail = tail_magnitude(grid, 1.0 - sol.fields.rho)
        n += 1
    return sol, tail


def _predict(grid: Grid, sols: list, c: float) -> np.ndarray:
    """Seed for the member at speed c: the secant through the last two
    members, extrapolated in c.  With one member that member, with none the
    contact seed; an extrapolation that reaches the positivity floor falls
    back to the last member."""
    if not sols:
        return initial_guess(grid, c)
    b = sols[-1]
    if len(sols) == 1:
        return b.fields.rho
    a = sols[-2]
    seed = b.fields.rho + (c - b.c) / (b.c - a.c) * (b.fields.rho - a.fields.rho)
    return seed if admissible(seed) else b.fields.rho


def continue_branch(spec: PotentialSpec, grid: Grid, c_from: float, c_to: float,
                    opts: SolverOptions = SolverOptions()) -> SolitonBranch:
    """March the branch in speed with adaptive steps and a secant predictor.

    Members are seeded by ``_predict``.  The step halves on failure (down
    to DC_MIN, then the partial branch is returned), each halving is recorded
    in ``rejected_steps``, a halved step that the sonic cap clamps back onto
    the rejected speed halves again without a solve, and the step grows by 1.3x after a solve of at
    most two Newton iterations.  Marching stops just below the lattice sonic
    speed when c_to lies beyond it: M_c = M_0 - c^2 is positive on the
    lattice iff c^2 < min M_0.
    """
    if c_to < c_from:
        raise ConfigError(f"speed range reversed: c_to = {c_to:g} "
                          f"< c_from = {c_from:g}")
    sols, rejected = [], []
    m0 = float(np.min(mc_symbol(spec, 0.0, grid)))
    sonic_capped = c_to ** 2 >= m0
    # min M_0 <= 0 admits no speed: the first solve raises
    c_stop = math.sqrt(max(m0, 0.0)) * (1.0 - 1e-9) if sonic_capped else c_to
    c = c_from
    dc = opts.dc_init
    while True:
        sol = newton_solve(spec, grid, c, _predict(grid, sols, c), opts)
        if sol.status == "trivialized":
            return SolitonBranch(spec, sols, "trivialized", rejected)
        while not sol.converged and dc > DC_MIN and sols:
            rejected.append((c, sol.status, sol.newton_iters))
            c_rejected = c
            while c == c_rejected and dc > DC_MIN:  # the sonic cap clamps c
                dc *= 0.5
                c = min(sols[-1].c + dc, c_stop)
            if c != c_rejected:
                sol = newton_solve(spec, grid, c, _predict(grid, sols, c), opts)
        if not sol.converged:
            return SolitonBranch(spec, sols, "newton_failed", rejected)
        sols.append(sol)
        if c >= c_stop:
            return SolitonBranch(spec, sols,
                                 "sonic_limit" if sonic_capped else "reached_cmax",
                                 rejected)
        if sol.newton_iters <= 2:
            dc = min(dc * 1.3, opts.dc_init * 4.0)
        c = min(c + dc, c_stop)


@dataclass(frozen=True)
class SonicSweep:
    spec_label: str
    rows: np.ndarray        # columns: c, sqrt2 - c, eta_max, E, p, nonvanishing margin
    gamma: float            # fitted exponent of eta_max ~ (2 - c^2)^gamma
    d2_symbol_at_zero: Optional[float]
    all_nonvanishing_ok: bool
    skipped_gaps: tuple     # gaps whose solve did not converge, left out of rows


def sonic_sweep(spec: PotentialSpec, opts: SolverOptions = SolverOptions(),
                gaps=None, base_half_length: float = 128.0,
                base_size: int = 4096) -> SonicSweep:
    """Amplitude decay toward the sonic speed and the vanishing-exponent fit.

    Samples c = sqrt(2) - gap for a decreasing sequence of gaps, enlarging
    the domain as the predicted tail rate sqrt(2 - c^2) degrades, and fits
    log eta_max against log (2 - c^2).  The lower bound
    ||W * eta||_inf >= (2 - c^2)/4 is evaluated at every sample.  Fewer than
    two converged samples leave the fit underdetermined and raise NlgpError;
    otherwise the unconverged gaps are returned in ``skipped_gaps``.
    """
    if gaps is None:
        gaps = np.array([0.2, 0.12, 0.08, 0.05, 0.03, 0.02, 0.012, 0.008, 0.005])
    c2 = math.sqrt(2.0)
    rows, failed = [], []
    for gap in gaps:
        c = float(c2 - gap)
        rate = math.sqrt(2.0 - c ** 2)
        L, N = base_half_length, base_size
        while rate * L < 30.0 and L < 2048:  # keep e^{-rate L} below roundoff
            L, N = 2.0 * L, 2 * N
        grid = Grid(L, N)
        sol = newton_solve(spec, grid, c, initial_guess(grid, c), opts)
        if not sol.converged:
            failed.append(float(gap))
            continue
        nv = nonvanishing_check(sol.fields)
        rows.append((c, float(gap), sol.eta_max, sol.E, sol.p, nv.weta_sup - nv.bound))
    if len(rows) < 2:
        raise NlgpError(
            f"sonic sweep fit needs two converged samples, {len(rows)} of {len(gaps)} "
            f"converged; no convergence at gaps "
            f"{', '.join(f'{gap:g}' for gap in failed) or 'none'}")
    rows = np.array(rows)
    x = np.log(2.0 - rows[:, 0] ** 2)
    gamma = float(np.polyfit(x, np.log(rows[:, 2]), 1)[0])
    return SonicSweep(spec_label=spec.label(), rows=rows, gamma=gamma,
                      d2_symbol_at_zero=spec.d2_at_zero,
                      all_nonvanishing_ok=bool(np.all(rows[:, 5] >= 0.0)),
                      skipped_gaps=tuple(failed))
