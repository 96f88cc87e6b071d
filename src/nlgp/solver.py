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
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import ConfigError, NlgpError, OutOfRegimeError, VortexError
from .hydro import (WaveFields, action, admissible, assemble, energy,
                    identity_suite, momentum, nonvanishing_check,
                    residual_norms, rho_equation, rho_jacobian_preconditioned)
from .potentials import PotentialSpec, inverse_mc, mc_symbol
from .spectral import (Grid, from_half_spectrum, half_spectrum, integrate,
                       sech, tail_magnitude, zero_extend, zero_pad)

DAMPING_FACTOR = 0.5     # Newton step shrink per rejected trial
MAX_DAMPINGS = 20        # trials per Newton step before vanishing_amplitude
KRYLOV_MAXITER = 400     # GMRES iterations per Newton step
KRYLOV_RESTART = 20      # GMRES iterations per restart cycle
FORCING_MAX = 0.1        # loosest relative GMRES tolerance of a Newton step
STOP_MARGIN = 0.01       # share of tol_newton the last Newton step aims its sup |F| at
TRIVIAL_ETA_TOL = 1e-8   # max eta below which a converged profile is flat
TANGENT_TOL = 1e-8       # relative GMRES tolerance of branch_tangent
DC_MIN = 1e-5            # continuation step below which a branch stops
PREDICTOR_TOL = 1e-2     # sup |seed - rho| the continuation step aims each prediction at
TAIL_TOL = 1e-10         # |1 - rho| at the domain edges that solve_auto accepts
MAX_REFINEMENTS = 3      # domain doublings solve_auto may make
COARSE_FACTOR = 4        # solve_auto seeds Grid(L, N) from levels of N / COARSE_FACTOR^k nodes
COARSE_MIN_SIZE = 1024   # smallest level solve_auto runs


@dataclass(frozen=True)
class SolverOptions:
    tol_newton: float = 1e-10        # on sup |F(rho)|
    max_iter: int = 50
    dc_init: float = 0.05            # first continuation step; no step exceeds 4 dc_init

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 0.0 < self.tol_newton < math.inf:
            raise ValueError(f"tol_newton must be finite and positive, "
                             f"got {self.tol_newton!r}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")
        if not DC_MIN < self.dc_init < math.inf:
            raise ValueError(f"dc_init must be finite and exceed {DC_MIN:g}, "
                             f"got {self.dc_init!r}")


@dataclass(frozen=True)
class CoarseLevel:
    """The unfinalized Newton solve on Grid(half_length, size) that seeded
    a ``solve_auto`` solution: any of its seeding levels, a narrower domain
    or the same domain on fewer nodes; a seed only, never a solution."""
    size: int
    half_length: float
    newton_iters: int
    krylov_iters: int


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
    coarse: Optional[CoarseLevel] = None  # the seeding level, narrow or coarse, if any

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
    tangents: list = field(default_factory=list)        # d rho / dc per member

    @property
    def identity_failures(self) -> list:
        """(c, max relative residual) of each member failing the identity suite."""
        return [(s.c, s.identity_report.max_residual) for s in self.solutions
                if not s.identity_report.passed]

    @property
    def dp_dc(self) -> list:
        """dp/dc of each member, p/c - int g rho_c with g = dF/dc (p is
        (c/4) int eta^2 / rho^2, whose rho-derivative is -g).  A dark soliton
        is stable iff dp/dc < 0 (Barashenkov, Phys. Rev. Lett. 77, 1193, 1996)."""
        return [s.p / s.c - integrate(s.grid, _speed_derivative(s.fields.rho, s.c) * t)
                for s, t in zip(self.solutions, self.tangents, strict=True)]

    def table(self):
        """Columns: c, E, p, J, eta_max, min_rho, newton_iters, dp_dc."""
        rows = [(s.c, s.E, s.p, s.J, s.eta_max, s.fields.min_rho, s.newton_iters, d)
                for s, d in zip(self.solutions, self.dp_dc)]
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


def _solve_linearized(grid: Grid, rho: np.ndarray, c: float, spec: PotentialSpec,
                      inv_mc: np.ndarray, rhs: np.ndarray, rtol: float):
    """F'(rho) d = rhs by GMRES to the relative tolerance rtol, on the half
    lattice and right-preconditioned by ``inv_mc``: every Krylov solve.
    Returns (d, Krylov iterations), d None when GMRES does not converge."""
    n = grid.size + 2
    A = SimpleNamespace(shape=(n, n), dtype=np.dtype(float),
                        matvec=rho_jacobian_preconditioned(grid, rho, c, spec, inv_mc))
    y, info, its = gmres(A, half_spectrum(grid, rhs), rtol=rtol, maxiter=KRYLOV_MAXITER)
    return (from_half_spectrum(grid, y, inv_mc) if info == 0 else None), its


def _speed_derivative(rho: np.ndarray, c: float) -> np.ndarray:
    """g = dF/dc = (c/2)(1 - rho^4)/rho^3 at fixed rho."""
    return 0.5 * c * (1.0 - rho ** 4) / rho ** 3


def _newton(spec: PotentialSpec, grid: Grid, c: float, rho0: np.ndarray,
            opts: SolverOptions):
    """The iteration of ``newton_solve`` without its finalize stage:
    (rho, status, Newton iterations, Krylov iterations, last residual).
    A converged rho with 1 - min rho^2 < TRIVIAL_ETA_TOL is ``trivialized``."""
    if not admissible(rho0):
        raise VortexError("seed amplitude at or below the positivity floor")
    inv_mc = inverse_mc(spec, c, grid)
    rho = _symmetrize(grid, np.array(rho0, dtype=float))

    def residual(r):
        return rho_equation(grid, r, c, spec)

    res, krylov = residual(rho), 0
    for it in range(opts.max_iter):
        res = _symmetrize(grid, res)
        nrm = float(np.abs(res).max())
        if nrm < opts.tol_newton:
            flat = 1.0 - rho.min() ** 2 < TRIVIAL_ETA_TOL
            return rho, "trivialized" if flat else "converged", it, krylov, res
        forcing = min(FORCING_MAX, max(nrm, STOP_MARGIN * opts.tol_newton / nrm))
        d, its = _solve_linearized(grid, rho, c, spec, inv_mc, res, forcing)
        krylov += its
        if d is None:
            return rho, "newton_failed", it, krylov, res
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
            return rho, "vanishing_amplitude", it, krylov, res
    return rho, "newton_failed", opts.max_iter, krylov, res


def newton_solve(spec: PotentialSpec, grid: Grid, c: float, rho0: np.ndarray,
                 opts: SolverOptions = SolverOptions()) -> SolitonSolution:
    """Damped Newton iteration on the amplitude equation, in the even subspace.

    The seed, the residual and each accepted step are symmetrized, so the
    iterate stays even about x = 0, where the trough of a dark soliton sits.
    Linear solves are matrix-free GMRES, right-preconditioned by 1/M_c, on
    the half-lattice coordinates of the correction's spectrum, each to the
    relative tolerance min(FORCING_MAX, max(sup |F|, STOP_MARGIN tol_newton
    / sup |F|)): an inexact Newton method whose forcing term is O(|F|), so
    it keeps local quadratic convergence (Dembo, Eisenstat & Steihaug, SIAM
    J. Numer. Anal. 19, 1982), bounded below so that a step aims sup |F| at
    STOP_MARGIN tol_newton and no lower, past which the stop test has
    nothing left to gain (Kelley, Solving Nonlinear Equations with Newton's
    Method, SIAM, 2003, sec. 3.2).  The bound is never below
    sqrt(STOP_MARGIN tol_newton) = 0.1 sqrt(tol_newton).  Steps that
    would push the amplitude through the positivity floor are rejected and
    shrunk.  Convergence to a flat profile is flagged
    ``trivialized`` rather than treated as a soliton.
    """
    rho, status, iters, krylov, res = _newton(spec, grid, c, rho0, opts)
    sup, l2 = residual_norms(grid, res)
    fields = assemble(grid, rho, c, spec)
    return SolitonSolution(
        fields=fields, converged=status == "converged", status=status,
        newton_iters=iters, krylov_iters=krylov, residual_sup=sup,
        residual_l2=l2, identity_report=identity_suite(fields),
        E=energy(fields), p=momentum(fields), J=action(fields))


def _seed(spec: PotentialSpec, grid: Grid, c: float, opts: SolverOptions, first: bool):
    """(seed, CoarseLevel or None) for ``solve_auto`` on grid Grid(L, N):
    the first of its levels, unfinalized ``_newton`` solves on fewer nodes,
    that gives a seed, else the contact seed on grid itself.  In order:

    1. on the first grid only, the narrower domains of half-length
       L / COARSE_FACTOR^k at the spacing of the level above them, smallest
       first, the first from the contact seed and each later one from the
       level below.  1 - rho is carried up by ``zero_extend``: the soliton
       decays, so past its tail the wider domain holds the vacuum rho = 1.
       For an exponential tail they are at grid's spacing.  A level whose
       tail exceeds TAIL_TOL seeds only the next level, never grid: near
       the sonic speed such a seed leaves grid's Newton steps ending just
       under ``tol_newton``, short of what the identity suite needs.  An
       algebraic tail exceeds it on every narrower domain, so its levels are
       at the spacing of level 2, which the last one seeds.  A doubled
       domain runs none, as each would be no wider than a domain already
       measured not to hold the tail;
    2. Grid(L, N / COARSE_FACTOR), from the narrow level below it at its
       spacing or else from the contact seed, its rho padded up by
       ``zero_pad``: the soliton is analytic, so the coarse grid already
       carries nearly all of its spectrum;
    3. the contact seed on grid itself.

    Only levels of at least COARSE_MIN_SIZE nodes run.  A level that fails,
    converges to a flat profile or carries an inadmissible seed gives none,
    and a narrow level that gives none ends the narrow levels.  The levels
    are never finalized or returned.
    """
    coarse = Grid(grid.half_length, grid.size // COARSE_FACTOR)
    if coarse.size < COARSE_MIN_SIZE:
        return initial_guess(grid, c), None
    narrow, level = [], coarse if spec.algebraic_tail else grid
    while first and level.size // COARSE_FACTOR >= COARSE_MIN_SIZE:
        level = Grid(level.half_length / COARSE_FACTOR, level.size // COARSE_FACTOR)
        narrow.insert(0, level)
    start = initial_guess(coarse, c)
    for k, level in enumerate(narrow):
        rho0 = 1.0 - zero_extend(narrow[k - 1], v, level) if k else initial_guess(level, c)
        rho, status, iters, krylov, _ = _newton(spec, level, c, rho0, opts)
        if status != "converged":
            break
        v = 1.0 - rho
        if level.spacing == grid.spacing and tail_magnitude(level, v) <= TAIL_TOL:
            seed = 1.0 - zero_extend(level, v, grid)
            if not admissible(seed):
                break
            return seed, CoarseLevel(level.size, level.half_length, iters, krylov)
    else:
        if narrow and level.spacing == coarse.spacing:
            start = 1.0 - zero_extend(level, v, coarse)
    rho, status, iters, krylov, _ = _newton(spec, coarse, c, start, opts)
    if status == "converged":
        seed = zero_pad(coarse, rho, grid)
        if admissible(seed):
            return seed, CoarseLevel(coarse.size, coarse.half_length, iters, krylov)
    return initial_guess(grid, c), None


def solve_auto(spec: PotentialSpec, c: float, opts: SolverOptions = SolverOptions(),
               half_length: float = 128.0, size: int = 4096):
    """``newton_solve`` on Grid(half_length, size), doubling the domain (at
    most MAX_REFINEMENTS times) until the tail falls below TAIL_TOL.  Kernels
    with an algebraic tail (``PotentialSpec.algebraic_tail``) never meet an
    exponential tail tolerance, so refinement is skipped for them and the
    periodization is only monitored.  Each grid is seeded by ``_seed``, and
    the result records the level that seeded it in ``coarse``.
    """
    grid = Grid(half_length, size)
    for n in range(MAX_REFINEMENTS + 1):
        if n:
            grid = grid.refined()
        seed, record = _seed(spec, grid, c, opts, n == 0)
        sol = replace(newton_solve(spec, grid, c, seed, opts), coarse=record)
        tail = tail_magnitude(grid, 1.0 - sol.fields.rho)
        if spec.algebraic_tail or not sol.converged or tail <= TAIL_TOL:
            break
    return sol, tail


def branch_tangent(sol: SolitonSolution) -> np.ndarray:
    """rho_c = d rho / dc along the branch through the converged member sol.

    Differentiating F(rho(c), c) = 0 gives F'(rho) rho_c = -g with
    g = ``_speed_derivative``: one GMRES solve, to TANGENT_TOL, with the
    operator of ``newton_solve``.  The right side is even, so the odd
    translation mode rho' of F'(rho) is excluded.  A solve that does not
    converge gives a nan tangent, which ``_predict`` refuses.
    """
    grid, rho, c, spec = sol.grid, sol.fields.rho, sol.c, sol.spec
    d, _ = _solve_linearized(grid, rho, c, spec, inverse_mc(spec, c, grid),
                             -_speed_derivative(rho, c), TANGENT_TOL)
    if d is None:
        return np.full(grid.size, math.nan)
    return _symmetrize(grid, d)


def _predict(grid: Grid, sols: list, tangents: list, c: float) -> np.ndarray:
    """Seed for the member at speed c: the cubic Hermite interpolant of the
    last two members and their tangents, evaluated at c (Allgower & Georg,
    Introduction to Numerical Continuation Methods, 2003, ch. 2).  With one
    member its Euler step, with none the contact seed; a seed that reaches
    the positivity floor falls back to the last member."""
    if not sols:
        return initial_guess(grid, c)
    b, tb = sols[-1], tangents[-1]
    t = c - b.c
    seed = b.fields.rho + t * tb
    if len(sols) > 1:
        # Newton form on the nodes c_b, c_b, c_a, c_a: the Euler step plus
        # t^2 f[b, b, a] + t^2 (t + h) f[b, b, a, a]
        a, ta = sols[-2], tangents[-2]
        h = b.c - a.c
        slope = (b.fields.rho - a.fields.rho) / h
        seed += (t / h) ** 2 * (h * (tb - slope) + (t + h) * (ta + tb - 2.0 * slope))
    return seed if admissible(seed) else b.fields.rho


def _next_speed(c: float, dc: float, c_stop: float) -> float:
    """c + dc, or c_stop when that step would leave less than DC_MIN before it."""
    return c_stop if c + dc > c_stop - DC_MIN else c + dc


def continue_branch(spec: PotentialSpec, grid: Grid, c_from: float, c_to: float,
                    opts: SolverOptions = SolverOptions()) -> SolitonBranch:
    """March the branch in speed with a Hermite predictor and steps sized
    from its measured error.

    Each member's tangent (``branch_tangent``) is kept on the branch, and
    members are seeded by ``_predict``.  The first step is ``dc_init``.
    After a member whose seed was a prediction, the step is scaled by
    (PREDICTOR_TOL / e)^(1/q) clipped to [1/2, 2], with e = sup |seed - rho|
    and q the predictor's order in dc (2 for the Euler step, 4 for the
    Hermite cubic), and capped at 4 dc_init (Allgower & Georg, Introduction
    to Numerical Continuation Methods, 2003, sec. 6.1).  A step that would
    leave less than DC_MIN before the last speed goes to it.  The step halves
    on failure (down to DC_MIN, then the partial branch is returned), each
    halving is recorded in ``rejected_steps``, and a halved step that lands
    back on a rejected last speed halves again without a solve.  Marching
    stops just below the lattice sonic speed when c_to lies beyond it:
    M_c = M_0 - c^2 is positive on the lattice iff c^2 < min M_0.
    """
    if c_to < c_from:
        raise ConfigError(f"speed range reversed: c_to = {c_to:g} "
                          f"< c_from = {c_from:g}")
    sols, tangents, rejected = [], [], []
    m0 = float(np.min(mc_symbol(spec, 0.0, grid)))
    sonic_capped = c_to ** 2 >= m0
    # min M_0 <= 0 admits no speed: the first solve raises
    c_stop = math.sqrt(max(m0, 0.0)) * (1.0 - 1e-9) if sonic_capped else c_to
    c = c_from
    dc = opts.dc_init
    while True:
        seed = _predict(grid, sols, tangents, c)
        sol = newton_solve(spec, grid, c, seed, opts)
        if sol.status == "trivialized":
            return SolitonBranch(spec, sols, "trivialized", rejected, tangents)
        while not sol.converged and dc > DC_MIN and sols:
            rejected.append((c, sol.status, sol.newton_iters))
            c_rejected = c
            while c == c_rejected and dc > DC_MIN:  # _next_speed clamps c to c_stop
                dc *= 0.5
                c = _next_speed(sols[-1].c, dc, c_stop)
            if c != c_rejected:
                seed = _predict(grid, sols, tangents, c)
                sol = newton_solve(spec, grid, c, seed, opts)
        if not sol.converged:
            return SolitonBranch(spec, sols, "newton_failed", rejected, tangents)
        if sols:
            order = 2.0 if len(sols) == 1 else 4.0
            err = float(np.max(np.abs(seed - sol.fields.rho)))
            ratio = PREDICTOR_TOL / err if err > 0.0 else math.inf
            dc = min(dc * min(2.0, max(0.5, ratio ** (1.0 / order))), opts.dc_init * 4.0)
        sols.append(sol)
        tangents.append(branch_tangent(sol))
        if c >= c_stop:
            return SolitonBranch(spec, sols,
                                 "sonic_limit" if sonic_capped else "reached_cmax",
                                 rejected, tangents)
        c = _next_speed(c, dc, c_stop)


@dataclass(frozen=True)
class SonicSweep:
    spec_label: str
    rows: np.ndarray        # columns: c, sqrt2 - c, eta_max, E, p, nonvanishing margin
    gamma: float            # fitted exponent of eta_max ~ (2 - c^2)^gamma
    d2_symbol_at_zero: Optional[float]
    all_nonvanishing_ok: bool
    skipped_gaps: tuple     # gaps unconverged or failing the identity suite, left out of rows


def sonic_sweep(spec: PotentialSpec, opts: SolverOptions = SolverOptions(),
                gaps=None, base_half_length: float = 128.0,
                base_size: int = 4096) -> SonicSweep:
    """Amplitude decay toward the sonic speed and the vanishing-exponent fit.

    Solves c = sqrt(2) - gap for a decreasing sequence of gaps by
    ``solve_auto`` from Grid(base_half_length, base_size), and fits
    log eta_max against log (2 - c^2).  The lower bound
    ||W * eta||_inf >= (2 - c^2)/4 is evaluated at every sample.  A gap
    counts only when its solve converges and passes the identity suite; the
    others are returned in ``skipped_gaps``, and fewer than two that count
    leave the fit underdetermined and raise NlgpError.
    """
    if gaps is None:
        gaps = np.array([0.2, 0.12, 0.08, 0.05, 0.03, 0.02, 0.012, 0.008, 0.005])
    rows, skipped = [], []
    for gap in gaps:
        c = float(math.sqrt(2.0) - gap)
        sol, _ = solve_auto(spec, c, opts, base_half_length, base_size)
        if not (sol.converged and sol.identity_report.passed):
            skipped.append(float(gap))
            continue
        nv = nonvanishing_check(sol.fields)
        rows.append((c, float(gap), sol.eta_max, sol.E, sol.p, nv.weta_sup - nv.bound))
    if len(rows) < 2:
        raise NlgpError(
            f"sonic sweep fit needs two samples that converge and pass the "
            f"identity suite, {len(rows)} of {len(gaps)} do; skipped gaps "
            f"{', '.join(f'{gap:g}' for gap in skipped) or 'none'}")
    rows = np.array(rows)
    x = np.log(2.0 - rows[:, 0] ** 2)
    gamma = float(np.polyfit(x, np.log(rows[:, 2]), 1)[0])
    return SonicSweep(spec_label=spec.label(), rows=rows, gamma=gamma,
                      d2_symbol_at_zero=spec.d2_at_zero,
                      all_nonvanishing_ok=bool(np.all(rows[:, 5] >= 0.0)),
                      skipped_gaps=tuple(skipped))
