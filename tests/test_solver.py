"""Newton solves, branch continuation, sonic sweep."""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg

from nlgp import (ConfigError, Grid, NlgpError, OutOfRegimeError, SolverOptions,
                  SupersonicMultiplierError, VortexError, bochner_riesz,
                  continue_branch, delta, exp_repulsive, gaussian,
                  initial_guess, newton_solve, potentials, residual_rho,
                  shifted_deltas, soft_core, solve_auto, sonic_sweep)
from nlgp import solver
from nlgp.hydro import POSITIVITY_FLOOR, rho_equation, rho_jacobian_preconditioned
from nlgp.potentials import inverse_mc
from nlgp.solver import DC_MIN, KRYLOV_RESTART, CoarseLevel, gmres
from nlgp.spectral import from_half_spectrum, half_spectrum, sech


@pytest.fixture(scope="module")
def grid():
    return Grid(128.0, 4096)


# ---------------------------------------------------------------------------
# seed profile


def test_initial_guess_values(grid):
    rho = initial_guess(grid, 1.0)
    assert rho[grid.size // 2] == pytest.approx(math.sqrt(0.5), abs=1e-14)
    rho_fast = initial_guess(grid, math.sqrt(2.0) - 1e-6)
    assert np.abs(1.0 - rho_fast).max() < 1e-5
    sup, _ = residual_rho(grid, rho, 1.0, delta())
    assert sup < 1e-8


def test_initial_guess_out_of_regime(grid):
    with pytest.raises(OutOfRegimeError):
        initial_guess(grid, 1.5)


# ---------------------------------------------------------------------------
# GMRES


class CountingOperator:
    """A matrix as the operator gmres takes, counting its products."""

    def __init__(self, matrix):
        self.matrix, self.shape, self.dtype, self.products = matrix, matrix.shape, float, 0

    def matvec(self, v):
        self.products += 1
        return self.matrix @ v


def test_gmres_nonsymmetric_system_meets_rtol():
    rng = np.random.default_rng(3)
    a = 4.0 * np.eye(300) + rng.standard_normal((300, 300)) / math.sqrt(300)
    b = rng.standard_normal(300)
    for rtol in (1e-6, 1e-12):
        x, info, _ = gmres(CountingOperator(a), b, rtol=rtol, maxiter=400)
        assert info == 0
        assert np.linalg.norm(b - a @ x) <= rtol * np.linalg.norm(b)
    with pytest.raises(ValueError, match="M"):
        gmres(CountingOperator(a), b, rtol=1e-8, maxiter=400, M=np.eye(300))


def test_gmres_matches_scipy_on_newton_operator(grid):
    spec, c = gaussian(0.3), 1.0
    rho = initial_guess(grid, c)
    op = scipy.sparse.linalg.LinearOperator(
        (grid.size + 2,) * 2, dtype=float,
        matvec=rho_jacobian_preconditioned(grid, rho, c, spec, inverse_mc(spec, c, grid)))
    b = half_spectrum(grid, rho_equation(grid, rho, c, spec))
    x, info, _ = gmres(op, b, rtol=1e-8, maxiter=400)
    ref, ref_info = scipy.sparse.linalg.gmres(op, b, rtol=1e-8, atol=0.0)
    assert info == ref_info == 0
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_gmres_converges_across_restarts_one_callback_per_iteration():
    # eigenvalues 1..100 need more Krylov iterations than one cycle holds
    d = np.arange(1.0, 101.0)
    op, ticks = CountingOperator(np.diag(d)), []
    x, info, iterations = gmres(op, np.ones(100), rtol=1e-10, maxiter=400,
                                callback=ticks.append, callback_type="pr_norm")
    assert info == 0 and iterations == len(ticks) > KRYLOV_RESTART
    assert np.abs(x - 1.0 / d).max() < 1e-8
    # one product per iteration, plus one true residual per restart
    assert op.products == len(ticks) + (len(ticks) - 1) // KRYLOV_RESTART
    assert ticks[-1] <= 1e-10 < ticks[-2]


def test_gmres_zero_rhs_makes_no_product():
    op = CountingOperator(np.eye(5))
    x, info, iterations = gmres(op, np.zeros(5), rtol=1e-8, maxiter=400)
    assert info == iterations == op.products == 0
    assert np.array_equal(x, np.zeros(5))


def test_import_nlgp_loads_no_scipy():
    # only tabulated kernels need scipy, and they import it when built
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    code = ("import sys, nlgp; "
            "sys.exit(int(any(m.split('.')[0] == 'scipy' for m in sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0


def test_newton_fails_when_gmres_runs_out_of_iterations(grid, monkeypatch):
    # from the contact seed the first Newton step of gaussian(0.3) at c = 1
    # solves to FORCING_MAX in four Krylov iterations
    monkeypatch.setattr(solver, "KRYLOV_MAXITER", 3)
    sol = newton_solve(gaussian(0.3), grid, 1.0, initial_guess(grid, 1.0))
    assert sol.status == "newton_failed" and sol.newton_iters == 0


def _forcing(opts, sup):
    """The relative GMRES tolerance of a Newton step from sup |F| = sup."""
    return min(solver.FORCING_MAX, max(sup, solver.STOP_MARGIN * opts.tol_newton / sup))


def _spy_rtols(grid, monkeypatch):
    """Record (rtol, sup |F|, Krylov iterations) of every GMRES call."""
    calls = []

    def spy(A, b, _gmres=solver.gmres, **kw):
        res = from_half_spectrum(grid, b, np.ones(grid.xi_half.size))
        out = _gmres(A, b, **kw)
        calls.append((kw["rtol"], float(np.abs(res).max()), out[2]))
        return out
    monkeypatch.setattr(solver, "gmres", spy)
    return calls


def test_gmres_rtol_follows_the_newton_residual(grid, monkeypatch):
    # inexact Newton: each step solves to min(FORCING_MAX, max(sup |F|,
    # STOP_MARGIN tol_newton / sup |F|)), so the tolerance
    # tightens as the residual falls while sup |F| >= 1e-6, where the two
    # terms meet; the last step starts at 3.3e-7 and solves to 3.0e-6
    opts = SolverOptions()
    calls = _spy_rtols(grid, monkeypatch)
    sol = newton_solve(gaussian(0.3), grid, 1.0, initial_guess(grid, 1.0), opts)
    assert sol.converged and len(calls) == sol.newton_iters >= 3
    for rtol, sup, _ in calls:
        assert rtol == pytest.approx(_forcing(opts, sup), rel=1e-9)
    rtols = [rtol for rtol, sup, _ in calls if sup >= 1e-6]
    assert len(rtols) == sol.newton_iters - 1
    assert all(b <= a for a, b in zip(rtols, rtols[1:]))
    assert calls[0][0] > 100 * calls[-1][0]
    assert calls[-1][0] > calls[-1][1]


def test_the_last_newton_step_solves_only_to_the_stop_margin(grid, monkeypatch):
    # the last step starts at sup |F| = 3.2e-9: to 1e-8 it took 8 Krylov
    # iterations, to STOP_MARGIN tol_newton / sup |F| = 3.1e-4 it takes 5
    opts = SolverOptions()
    calls = _spy_rtols(grid, monkeypatch)
    sol = newton_solve(gaussian(0.3), grid, 0.6, initial_guess(grid, 0.6), opts)
    assert sol.converged and sol.residual_sup < opts.tol_newton
    assert sol.identity_report.passed
    for rtol, sup, _ in calls:
        assert rtol == pytest.approx(_forcing(opts, sup), rel=1e-9)
    assert calls[-1][2] <= 5


def test_branch_solves_tangents_to_tangent_tol_and_newton_steps_to_the_forcing_term(
        monkeypatch):
    # each member's Newton steps, then its tangent: no other Krylov solve
    opts = SolverOptions()
    grid = Grid(64.0, 2048)
    calls = _spy_rtols(grid, monkeypatch)
    branch = continue_branch(gaussian(0.3), grid, 0.8, 1.0, opts)
    assert branch.termination == "reached_cmax" and len(branch.solutions) >= 3
    for sol in branch.solutions:
        steps, calls = calls[:sol.newton_iters], calls[sol.newton_iters:]
        for rtol, sup, _ in steps:
            assert rtol == pytest.approx(_forcing(opts, sup), rel=1e-9)
        assert calls.pop(0)[0] == solver.TANGENT_TOL
    assert calls == []


@pytest.mark.parametrize("spec,c,newton", [
    (bochner_riesz(0.4), 0.8, 4), (bochner_riesz(0.4), 1.1, 5),
    (gaussian(0.3), 0.8, 4), (gaussian(0.3), 1.1, 4)],
    ids=["bochner_riesz-0.8", "bochner_riesz-1.1", "gaussian-0.8", "gaussian-1.1"])
def test_wide_grid_solves_keep_their_newton_counts(spec, c, newton):
    # the bench's wide grids; the Newton counts are those of a fixed 1e-8
    # Krylov tolerance, which the forcing term must not raise
    L = potentials.kink_aligned_half_length(spec, 2048.0)
    sol, _ = solve_auto(spec, c, half_length=L, size=65536)
    assert sol.converged and sol.identity_report.passed
    assert sol.newton_iters <= newton


@pytest.fixture(scope="module")
def wide_direct():
    """newton_solve from the contact seed on the bench's wide grid, once per
    kernel and speed."""
    solved = {}

    def solve(spec, c):
        key = (spec.label(), c)
        if key not in solved:
            grid = Grid(potentials.kink_aligned_half_length(spec, 2048.0), 65536)
            solved[key] = newton_solve(spec, grid, c, initial_guess(grid, c))
        return solved[key]
    return solve


@pytest.mark.parametrize("spec,c,newton", [
    (bochner_riesz(0.4), 0.8, 4), (bochner_riesz(0.4), 1.1, 5),
    (gaussian(0.3), 0.8, 4), (gaussian(0.3), 1.1, 4)],
    ids=["bochner_riesz-0.8", "bochner_riesz-1.1", "gaussian-0.8", "gaussian-1.1"])
def test_wide_grid_contact_seed_solves_keep_their_newton_counts(wide_direct, spec, c,
                                                                newton):
    # the sibling above reads solve_auto, whose requested-grid level starts
    # from the coarse level; from the contact seed the forcing term is still
    # held to the Newton counts of a fixed 1e-8 Krylov tolerance
    sol = wide_direct(spec, c)
    assert sol.converged and sol.identity_report.passed
    assert sol.newton_iters <= newton


@pytest.mark.parametrize("spec,c", [
    (bochner_riesz(0.4), 0.8), (bochner_riesz(0.4), 0.95), (bochner_riesz(0.4), 1.1),
    (gaussian(0.3), 0.8), (gaussian(0.3), 0.95), (gaussian(0.3), 1.1)],
    ids=["bochner_riesz-0.8", "bochner_riesz-0.95", "bochner_riesz-1.1",
         "gaussian-0.8", "gaussian-0.95", "gaussian-1.1"])
def test_solve_auto_seeds_wide_grids_from_a_coarse_level(wide_direct, spec, c):
    # measured: rho within 3.2e-11 and J within 5.6e-17 of the direct solve,
    # at most one Newton iteration on the requested grid against four or five.
    # The gaussian soliton's tail fits on L / 64 (rho within 8e-16, no Newton
    # step); bochner_riesz's algebraic tail fits on no narrower domain, so
    # its seed is the N / 4 level on L, itself seeded from narrower domains
    # at its spacing and solved in one Newton step (four or five from the
    # contact seed)
    direct = wide_direct(spec, c)
    L = direct.grid.half_length
    sol, _ = solve_auto(spec, c, half_length=L, size=65536)
    assert sol.grid == direct.grid
    assert sol.converged and sol.identity_report.passed
    assert np.abs(sol.fields.rho - direct.fields.rho).max() < 1e-10
    assert abs(sol.J - direct.J) < 1e-14
    assert sol.newton_iters <= 1
    level = (16384, L) if spec.algebraic_tail else (1024, L / 64)
    assert (sol.coarse.size, sol.coarse.half_length) == level
    if spec.algebraic_tail:
        assert sol.coarse.newton_iters <= 2
    else:
        assert sol.coarse.newton_iters >= 4
    assert direct.coarse is None


def _spy_newton(monkeypatch, fail=()):
    """Record the grid of every Newton iteration; a level on a grid in fail
    reports newton_failed."""
    core, grids = solver._newton, []

    def spy(spec, grid, *args):
        grids.append(grid)
        rho, status, *counts = core(spec, grid, *args)
        return (rho, "newton_failed" if grid in fail else status, *counts)
    monkeypatch.setattr(solver, "_newton", spy)
    return grids


NARROW, COARSE = Grid(32.0, 1024), Grid(128.0, 1024)   # the default grid's levels


@pytest.mark.parametrize("spec", [gaussian(0.3), bochner_riesz(0.4)],
                         ids=["gaussian", "bochner_riesz"])
def test_solve_auto_seeds_the_wide_grid_from_the_narrowest_level_holding_the_tail(
        monkeypatch, spec):
    # gaussian: the L / 64 level holds the tail, and its vacuum-padded
    # solution solves the requested grid as it is.  bochner_riesz's tail
    # fits on no narrower domain: it is seeded from the N / 4 level of its
    # own L, which the narrower domains at that level's spacing seed in turn
    # (one Newton step there, five from the contact seed)
    grids = _spy_newton(monkeypatch)
    grid = Grid(potentials.kink_aligned_half_length(spec, 2048.0), 65536)
    L = grid.half_length
    sol, _ = solve_auto(spec, 0.95, half_length=L, size=grid.size)
    assert sol.converged and sol.identity_report.passed
    if spec.algebraic_tail:
        level = Grid(L, 16384)
        assert sol.newton_iters <= 1 and sol.coarse.newton_iters <= 2
        assert grids == [Grid(L / 16, 1024), Grid(L / 4, 4096), level, grid]
    else:
        level = Grid(L / 64, 1024)
        assert sol.newton_iters == 0
        assert grids == [level, grid]
    assert (sol.coarse.size, sol.coarse.half_length) == (level.size, level.half_length)


@pytest.mark.parametrize("fail", [False, True], ids=["seeded", "fallback"])
def test_solve_auto_seeds_an_algebraic_tail_coarse_level_from_a_narrow_one(
        monkeypatch, fail):
    # on N = 16384, bochner_riesz's N / 4 level Grid(L, 4096) is seeded from
    # Grid(L / 4, 1024) at its spacing, or from the contact seed when that
    # level fails; either way the N / 4 level seeds the requested grid
    L = potentials.kink_aligned_half_length(bochner_riesz(0.4), 2048.0)
    narrow, coarse, grid = Grid(L / 4, 1024), Grid(L, 4096), Grid(L, 16384)
    grids = _spy_newton(monkeypatch, fail=(narrow,) if fail else ())
    sol, _ = solve_auto(bochner_riesz(0.4), 0.95, half_length=L, size=grid.size)
    assert sol.converged and sol.identity_report.passed
    assert grids == [narrow, coarse, grid]
    assert (sol.coarse.size, sol.coarse.half_length) == (coarse.size, L)
    assert (sol.coarse.newton_iters <= 2) == (not fail)


def test_solve_auto_falls_back_to_the_coarse_level(grid, monkeypatch):
    grids = _spy_newton(monkeypatch, fail=(NARROW,))
    sol, _ = solve_auto(gaussian(0.3), 1.0)
    assert grids == [NARROW, COARSE, grid] and sol.converged
    assert (sol.coarse.size, sol.coarse.half_length) == (1024, 128.0)


def test_solve_auto_falls_back_to_the_contact_seed(grid, monkeypatch):
    grids = _spy_newton(monkeypatch, fail=(NARROW, COARSE))
    sol, _ = solve_auto(gaussian(0.3), 1.0)
    assert grids == [NARROW, COARSE, grid] and sol.coarse is None
    direct = newton_solve(gaussian(0.3), grid, 1.0, initial_guess(grid, 1.0))
    assert np.array_equal(sol.fields.rho, direct.fields.rho)
    assert sol.newton_iters == direct.newton_iters


def test_solve_auto_refuses_an_inadmissible_padded_seed(grid, monkeypatch):
    # an inadmissible vacuum pad falls back to the coarse level ...
    grids = _spy_newton(monkeypatch)
    monkeypatch.setattr(solver, "zero_extend", lambda narrow, v, wide: np.ones(wide.size))
    sol, _ = solve_auto(gaussian(0.3), 1.0)
    assert grids == [NARROW, COARSE, grid] and sol.converged
    assert (sol.coarse.size, sol.coarse.half_length) == (1024, 128.0)
    # ... and an inadmissible spectral pad as well to the contact seed
    grids.clear()
    monkeypatch.setattr(solver, "zero_pad", lambda coarse, f, fine: np.zeros(fine.size))
    sol, _ = solve_auto(gaussian(0.3), 1.0)
    assert grids == [NARROW, COARSE, grid] and sol.coarse is None
    direct = newton_solve(gaussian(0.3), grid, 1.0, initial_guess(grid, 1.0))
    assert np.array_equal(sol.fields.rho, direct.fields.rho)


def test_solve_auto_runs_no_coarse_level_below_its_floor(monkeypatch):
    # N / 4 = 512 lies below COARSE_MIN_SIZE
    grids = _spy_newton(monkeypatch)
    sol, _ = solve_auto(gaussian(0.3), 1.0, half_length=64.0, size=2048)
    assert sol.converged and grids == [Grid(64.0, 2048)] and sol.coarse is None


def test_solve_auto_seeds_each_domain_doubling(monkeypatch):
    # near the sonic speed L / 4 does not hold the tail, so the first grid is
    # seeded from N / 4; the doubled domain runs no narrow level (L / 2 lies
    # inside the L already measured too narrow) and is seeded from its N / 4
    grids = _spy_newton(monkeypatch)
    sol, tail = solve_auto(exp_repulsive(1.0, 3.0), 1.3, half_length=32.0, size=4096)
    assert sol.converged and tail < 1e-10
    assert grids == [Grid(8.0, 1024), Grid(32.0, 1024), Grid(32.0, 4096),
                     Grid(64.0, 2048), Grid(64.0, 8192)]
    assert sol.grid == Grid(64.0, 8192)
    assert (sol.coarse.size, sol.coarse.half_length) == (2048, 64.0)


def test_sonic_sweeps_of_the_default_grid_kernels_skip_no_gap(monkeypatch):
    # a vacuum pad of a level whose tail exceeds TAIL_TOL left soft_core(1)
    # at gap 0.008 with a 1.2e-6 identity residual: the tail rule keeps it out.
    # Each sweep of nine gaps makes these level solves (unfinalized _newton
    # seeds) and grid solves (newton_solve, one per grid, two where the
    # domain doubles); a seed that solves more gaps sooner lowers them
    solves = {"delta": (20, 11), "exp_repulsive_1_3": (21, 12),
              "shifted_deltas_0.5": (21, 12), "gaussian_0.3": (15, 9),
              "soft_core_1.0": (18, 10)}
    cases = [(name, spec) for name, spec, L, N in potentials.reference_cases()
             if (L, N) == (128.0, 4096)]
    assert [name for name, _ in cases] == list(solves)
    calls = Counter()

    def counted(name, f):
        def spy(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return spy
    # newton_solve runs _newton, so a grid solve is counted by both spies
    monkeypatch.setattr(solver, "_newton", counted("_newton", solver._newton))
    monkeypatch.setattr(solver, "newton_solve", counted("newton_solve", solver.newton_solve))
    for name, spec in cases:
        calls.clear()
        assert sonic_sweep(spec).skipped_gaps == (), name
        grid_solves = calls["newton_solve"]
        assert (calls["_newton"] - grid_solves, grid_solves) == solves[name], name


@pytest.mark.parametrize("c", [0.8, 1.0])
def test_solve_auto_runs_no_coarse_level_when_the_contact_seed_solves(monkeypatch, c):
    # the contact kernel's closed form leaves a residual below tol_newton on
    # the L / 4 level as on the default grid: Newton takes it as it is on
    # both, and the level's vacuum pad seeds the default grid
    grids = _spy_newton(monkeypatch)
    sol, _ = solve_auto(delta(), c)
    assert sol.converged and sol.identity_report.passed
    assert grids == [NARROW, sol.grid] and sol.newton_iters == 0
    assert sol.coarse == CoarseLevel(1024, 32.0, 0, 0)
    assert np.abs(sol.fields.rho - initial_guess(sol.grid, c)).max() <= 1e-12


def test_solve_auto_evaluates_the_contact_residual_once_per_grid(grid, monkeypatch):
    core, grids = solver.rho_equation, []

    def spy(g, *args):
        grids.append(g)
        return core(g, *args)
    monkeypatch.setattr(solver, "rho_equation", spy)
    sol, _ = solve_auto(delta(), 0.8)
    assert sol.converged and sol.grid == grid
    assert grids.count(grid) == 1


@pytest.mark.xfail(strict=True, reason="vanishing_amplitude from the contact "
                   "seed on both levels; ROADMAP items 1 and 9")
def test_wide_bochner_riesz_reaches_c_1_30():
    spec = bochner_riesz(0.4)
    L = potentials.kink_aligned_half_length(spec, 2048.0)
    sol, _ = solve_auto(spec, 1.30, half_length=L, size=65536)
    assert sol.converged


# ---------------------------------------------------------------------------
# Newton iteration


def test_newton_contact_exact(grid):
    sol = newton_solve(delta(), grid, 1.0, initial_guess(grid, 1.0))
    assert sol.converged and sol.newton_iters <= 3
    assert np.abs(sol.fields.rho - initial_guess(grid, 1.0)).max() < 1e-9


def test_newton_trivializes_from_vacuum(grid):
    sol = newton_solve(delta(), grid, 1.0, np.ones(grid.size))
    assert not sol.converged and sol.status == "trivialized"


def test_newton_exp_repulsive(grid):
    sol = newton_solve(exp_repulsive(1.0, 3.0), grid, 1.0, initial_guess(grid, 1.0))
    assert sol.converged
    assert sol.identity_report.passed
    assert sol.residual_sup < 1e-10


def test_newton_supersonic_rejected(grid):
    with pytest.raises(SupersonicMultiplierError):
        newton_solve(delta(), grid, 1.5, 1.0 - 0.1 * sech(grid.x))


def test_newton_vortex_seed_rejected(grid):
    with pytest.raises(VortexError):
        newton_solve(delta(), grid, 1.0, 1e-4 * np.ones(grid.size))


def test_newton_quadratic_convergence(grid):
    # perturb the seed so several genuine iterations happen, then check
    # e_{k+1}/e_k^2 stays bounded over the final contractions
    spec = delta()
    exact = initial_guess(grid, 1.0)
    rho = exact + 0.05 * sech(0.5 * grid.x)
    errors = []
    opts = SolverOptions(max_iter=1)
    for _ in range(6):
        errors.append(np.abs(rho - exact).max())
        sol = newton_solve(spec, grid, 1.0, rho, opts)
        rho = sol.fields.rho
        if sol.converged:
            errors.append(np.abs(rho - exact).max())
            break
    errors = [e for e in errors if e > 1e-13]
    ratios = [errors[i + 1] / errors[i] ** 2 for i in range(len(errors) - 1)]
    assert len(ratios) >= 2
    assert all(r < 50.0 for r in ratios[-3:])


def test_solve_never_leaves_even_subspace():
    # near the sonic speed the profile is flat and its minimum sits off
    # x = 0; the returned amplitude is still exactly even, not rolled
    grid = Grid(2048.0, 65536)
    c = math.sqrt(2.0) - 1e-9
    rho = newton_solve(delta(), grid, c, initial_guess(grid, c)).fields.rho
    assert np.array_equal(rho, grid.reflect(rho))


def test_solver_options_keep_dc_init_above_dc_min():
    with pytest.raises(ValueError, match="dc_init"):
        SolverOptions(dc_init=DC_MIN)


def test_solve_auto_refines_for_slow_decay():
    # at c close to sonic the seed tail is fat on L = 32; the domain doubles
    spec = delta()
    sol, tail = solve_auto(spec, 1.3, half_length=32.0, size=1024)
    assert sol.converged
    assert sol.grid.half_length > 32.0
    assert tail < 1e-10


def test_solve_auto_runs_no_strip_search(monkeypatch):
    # whether to refine is a property of the kernel, not of located zeros
    def refuse(*args, **kwargs):
        raise AssertionError("solve_auto searched the strip for zeros")

    monkeypatch.setattr(potentials, "_strip_zeros", refuse)
    sol, tail = solve_auto(gaussian(0.3), 1.0)
    assert sol.converged and tail < 1e-10


def test_solve_auto_keeps_first_grid_for_algebraic_tail():
    # the truncated parabola's tail is algebraic: it would fail the
    # exponential tail tolerance on every grid, so none is refined
    sol, tail = solve_auto(bochner_riesz(0.4), 1.0, half_length=64.0, size=2048)
    assert sol.converged
    assert sol.grid == Grid(64.0, 2048)
    assert tail > 1e-10


# ---------------------------------------------------------------------------
# continuation


def test_branch_contact_energy_law(grid):
    # steps of at most 4 dc_init = 0.08 keep ten members or more on [0.3, 1.2]
    branch = continue_branch(delta(), grid, 0.3, 1.2, SolverOptions(dc_init=0.02))
    assert branch.termination == "reached_cmax"
    assert len(branch.solutions) >= 10
    cs = [s.c for s in branch.solutions]
    assert all(b > a for a, b in zip(cs, cs[1:]))  # strictly increasing speeds
    for s in branch.solutions:
        assert s.converged
        assert s.E == pytest.approx((2.0 - s.c ** 2) ** 1.5 / 3.0, rel=1e-6)


def test_branch_stops_at_sonic(grid):
    branch = continue_branch(delta(), grid, 1.30, 1.6,
                             SolverOptions(dc_init=0.02))
    assert branch.termination == "sonic_limit"
    assert branch.solutions[-1].c < math.sqrt(2.0)


def test_branch_leaves_the_sonic_cap_after_a_rejection(fail_nth_solve):
    # a clean run's last solve is the one at the sonic cap; after it fails,
    # the halved step still reaches the cap, so it halves again rather than
    # re-solve the same speed
    grid, opts = Grid(64.0, 4096), SolverOptions(dc_init=0.02)
    clean = fail_nth_solve(0)
    assert continue_branch(delta(), grid, 1.30, 1.6, opts).rejected_steps == []
    n_cap = len(clean)
    calls = fail_nth_solve(n_cap)
    branch = continue_branch(delta(), grid, 1.30, 1.6, opts)
    assert branch.termination == "sonic_limit"
    c_cap = branch.solutions[-1].c
    assert calls[n_cap - 1][0] == c_cap == clean[-1][0]
    assert branch.rejected_steps == [(c_cap, "newton_failed", calls[n_cap - 1][2])]
    speeds = [c for c, _, _ in calls]
    assert all(a != b for a, b in zip(speeds, speeds[1:])), speeds


def test_branch_solves_the_sonic_cap():
    # the solve at the cap converges, so the march reaches it without a
    # rejected step
    branch = continue_branch(delta(), Grid(64.0, 4096), 1.30, 1.6,
                             SolverOptions(dc_init=0.02))
    assert branch.termination == "sonic_limit"
    assert branch.rejected_steps == []
    assert branch.solutions[-1].c > 1.4142


def test_branch_reversed_range_refused(grid):
    with pytest.raises(ConfigError, match="reversed"):
        continue_branch(delta(), grid, 0.5, 0.3)
    branch = continue_branch(delta(), grid, 0.5, 0.5)
    assert [s.c for s in branch.solutions] == [0.5]
    assert branch.termination == "reached_cmax"


def test_branch_records_rejected_steps(fail_nth_solve, grid):
    calls = fail_nth_solve(3)
    branch = continue_branch(delta(), grid, 0.6, 0.9)
    assert branch.termination == "reached_cmax"
    c_failed = calls[2][0]
    assert branch.rejected_steps == [(c_failed, "newton_failed", calls[2][2])]
    # the retry lies halfway from the last member to the failed speed
    c_prev = branch.solutions[1].c
    assert calls[3][0] == pytest.approx(c_prev + 0.5 * (c_failed - c_prev), abs=1e-14)
    assert c_failed not in [s.c for s in branch.solutions]


def test_branch_hermite_predictor_work(monkeypatch):
    # the Hermite predictor with steps sized from its error takes 8 solves
    # and 24 Newton iterations here; 12 and 31 while the step grew by 1.3x
    # after a solve of at most two iterations.  The secant through the last
    # two members took 19 and 58 with that rule, and seeding with the last
    # member alone 121, with a 50-iteration failed corrector
    solve, calls = solver.newton_solve, []

    def spy(spec, grid, c, rho0, opts):
        sol = solve(spec, grid, c, rho0, opts)
        calls.append((np.array(rho0), sol))
        return sol

    monkeypatch.setattr(solver, "newton_solve", spy)
    branch = continue_branch(delta(), Grid(64.0, 4096), 0.22, 1.35)
    assert branch.termination == "reached_cmax"
    assert all(sol.converged for _, sol in calls)
    assert sum(sol.newton_iters for _, sol in calls) <= 40
    assert branch.rejected_steps == []
    assert len(branch.tangents) == len(branch.solutions)
    (_, a), (seed_b, b), (seed_3, third) = calls[:3]
    ta, tb = branch.tangents[:2]
    # one member: its Euler step
    assert np.array_equal(seed_b, a.fields.rho + (b.c - a.c) * ta)
    # two members: the cubic with their values and slopes, in the Hermite basis
    h = b.c - a.c
    s = (third.c - a.c) / h
    cubic = ((2 * s ** 3 - 3 * s ** 2 + 1) * a.fields.rho + (s ** 3 - 2 * s ** 2 + s) * h * ta
             + (3 * s ** 2 - 2 * s ** 3) * b.fields.rho + (s ** 3 - s ** 2) * h * tb)
    np.testing.assert_allclose(seed_3, cubic, rtol=0.0, atol=1e-13)


def test_branch_steps_follow_the_predictor_error(monkeypatch):
    # each step after a predicted member is the last one scaled by
    # (PREDICTOR_TOL / e)^(1/q), e = sup |seed - rho|, clipped to [1/2, 2]
    # and capped at 4 dc_init
    solve, errors = solver.newton_solve, []

    def spy(spec, grid, c, rho0, opts):
        sol = solve(spec, grid, c, rho0, opts)
        errors.append(float(np.max(np.abs(rho0 - sol.fields.rho))))
        return sol

    monkeypatch.setattr(solver, "newton_solve", spy)
    branch = continue_branch(delta(), Grid(64.0, 4096), 0.2, 1.35)
    assert branch.termination == "reached_cmax"
    assert len(branch.solutions) <= 8
    assert sum(s.newton_iters for s in branch.solutions) <= 26
    assert branch.rejected_steps == []
    assert all(s.converged and s.identity_report.passed for s in branch.solutions)
    cs = [s.c for s in branch.solutions]
    dc = dc_init = SolverOptions().dc_init
    for k in range(1, len(cs) - 1):
        assert cs[k] - cs[k - 1] == pytest.approx(dc, abs=1e-12)
        q = 2.0 if k == 1 else 4.0
        dc = min(dc * min(2.0, max(0.5, (solver.PREDICTOR_TOL / errors[k]) ** (1 / q))),
                 4 * dc_init)
    assert 0 < cs[-1] - cs[-2] <= dc + 1e-12


def test_branch_perturbed_prediction_halves_the_next_step(monkeypatch):
    # a seed 0.2 off its member (16 PREDICTOR_TOL) halves the next step;
    # unperturbed, the step doubles after the third member
    grid = Grid(64.0, 4096)
    clean = [s.c for s in continue_branch(delta(), grid, 0.2, 0.8).solutions]
    predict, calls = solver._predict, []

    def perturbed(grid, sols, tangents, c):
        calls.append(c)
        seed = predict(grid, sols, tangents, c)
        return seed + 0.2 * sech(grid.x) ** 2 if len(calls) == 3 else seed

    monkeypatch.setattr(solver, "_predict", perturbed)
    branch = continue_branch(delta(), grid, 0.2, 0.8)
    assert branch.termination == "reached_cmax" and branch.rejected_steps == []
    cs = [s.c for s in branch.solutions]
    assert cs[:3] == clean[:3]
    step = cs[2] - cs[1]
    assert clean[3] - clean[2] == pytest.approx(2 * step, abs=1e-12)
    assert cs[3] - cs[2] == pytest.approx(0.5 * step, abs=1e-12)


@pytest.mark.parametrize("dc_init", [0.02, 0.05])
def test_branch_steps_never_exceed_four_dc_init(dc_init):
    branch = continue_branch(delta(), Grid(64.0, 4096), 0.2, 1.35,
                             SolverOptions(dc_init=dc_init))
    cs = [s.c for s in branch.solutions]
    assert branch.termination == "reached_cmax"
    assert all(b <= a + 4 * dc_init for a, b in zip(cs[:-1], cs[1:-1])), cs
    assert max(np.diff(cs)) == pytest.approx(4 * dc_init, abs=1e-12)  # the cap binds
    # the last step may stretch by less than DC_MIN to land on c_to
    assert cs[-1] <= cs[-2] + 4 * dc_init + DC_MIN


@pytest.mark.parametrize("spec, c_from, dc_init", [(delta(), 0.2, 0.05),
                                                   (gaussian(0.3), 1.15, 0.2)],
                         ids=["delta", "gaussian"])
def test_branch_members_lie_dc_min_apart(spec, c_from, dc_init):
    # 1.15 + 0.2 = 1.3499999999999999 lies one ulp short of c_to = 1.35; a
    # step that would leave less than DC_MIN before c_to goes to c_to
    branch = continue_branch(spec, Grid(64.0, 4096), c_from, 1.35,
                             SolverOptions(dc_init=dc_init))
    cs = [s.c for s in branch.solutions]
    assert branch.termination == "reached_cmax"
    assert cs[-1] == 1.35
    assert np.min(np.diff(cs)) >= DC_MIN, cs


def test_branch_soft_core_past_the_sonic_cap():
    # the march from 0.5 toward 1.6 stops at the lattice sonic speed; only
    # that member, on the vanishing amplitude, fails the identity suite
    # (38 Newton iterations, 22 of them at the cap)
    branch = continue_branch(soft_core(1.0), Grid(64.0, 4096), 0.5, 1.6)
    assert branch.termination == "sonic_limit"
    assert sum(s.newton_iters for s in branch.solutions) <= 40
    assert [s.c for s in branch.solutions if not s.identity_report.passed] == \
        [branch.solutions[-1].c]


@pytest.mark.parametrize("c", [0.5, 1.0, 1.3])
def test_branch_dp_dc_contact_closed_form(grid, c):
    # E = (2 - c^2)^(3/2) / 3 and dE/dc = c dp/dc give dp/dc = -sqrt(2 - c^2)
    branch = continue_branch(delta(), grid, c, c)
    assert branch.dp_dc[0] == pytest.approx(-math.sqrt(2.0 - c ** 2), abs=1e-7)


@pytest.mark.parametrize("c", [0.5, 1.0, 1.3])
def test_branch_tangent_central_differences(c):
    # measured: rho_c within 2e-9 to 4e-8 (sup), dp/dc within 1.2e-8
    spec, grid, dc = gaussian(0.3), Grid(64.0, 4096), 1e-4
    branch = continue_branch(spec, grid, c, c)
    sol, rho_c = branch.solutions[0], branch.tangents[0]
    assert np.array_equal(rho_c, grid.reflect(rho_c))
    plus = newton_solve(spec, grid, c + dc, sol.fields.rho + dc * rho_c)
    minus = newton_solve(spec, grid, c - dc, sol.fields.rho - dc * rho_c)
    assert plus.converged and minus.converged
    assert np.abs((plus.fields.rho - minus.fields.rho) / (2 * dc) - rho_c).max() < 5e-7
    assert (plus.p - minus.p) / (2 * dc) == pytest.approx(branch.dp_dc[0], abs=2e-7)


def test_predictor_falls_back_at_the_floor(grid):
    a = SimpleNamespace(c=1.0, fields=SimpleNamespace(rho=np.full(grid.size, 0.9)))
    b = SimpleNamespace(c=1.1, fields=SimpleNamespace(rho=np.full(grid.size, 0.5)))
    # tangents on the chord: the cubic is the line 0.5 - 4 (c - 1.1), which
    # lies below the floor at c = 1.4
    tangents = [np.full(grid.size, -4.0)] * 2
    assert np.min(b.fields.rho + 0.3 * tangents[1]) <= POSITIVITY_FLOOR
    assert solver._predict(grid, [a, b], tangents, 1.4) is b.fields.rho
    assert np.allclose(solver._predict(grid, [a, b], tangents, 1.2), 0.1)
    assert solver._predict(grid, [b], tangents[1:], 1.4) is b.fields.rho
    assert np.allclose(solver._predict(grid, [b], tangents[1:], 1.2), 0.1)
    nan = [np.full(grid.size, math.nan)]    # a tangent whose solve failed
    assert solver._predict(grid, [b], nan, 1.2) is b.fields.rho
    assert np.array_equal(solver._predict(grid, [], [], 1.2), initial_guess(grid, 1.2))


# ---------------------------------------------------------------------------
# sonic sweep


def test_sonic_sweep_contact():
    sweep = sonic_sweep(delta())
    assert sweep.gamma == pytest.approx(1.0, abs=0.02)
    assert sweep.all_nonvanishing_ok
    eta = sweep.rows[:, 2]
    assert np.all(np.diff(eta) < 0)  # amplitude vanishes toward the sonic speed
    # closed form: eta_max = (2 - c^2)/2 exactly
    np.testing.assert_allclose(eta, (2.0 - sweep.rows[:, 0] ** 2) / 2.0, rtol=1e-8)


def test_sonic_sweep_refuses_one_sample():
    with pytest.raises(NlgpError, match="1 of 1"):
        sonic_sweep(delta(), gaps=np.array([0.2]), base_half_length=32.0,
                    base_size=512)


def test_sonic_sweep_refuses_zero_samples_and_names_them():
    with pytest.raises(NlgpError, match=r"0 of 2.*0\.2, 0\.1"):
        # one Newton step from the contact seed does not converge for gaussian
        sonic_sweep(gaussian(0.3), SolverOptions(max_iter=1), gaps=np.array([0.2, 0.1]),
                    base_half_length=32.0, base_size=512)


def test_sonic_sweep_reports_skipped_gaps():
    # two converged samples carry the fit; the unconverged gap is listed
    sweep = sonic_sweep(delta(), gaps=[0.2, 0.1, 1e-9])
    assert sweep.rows.shape[0] == 2
    assert sweep.skipped_gaps == (1e-9,)


def test_sonic_sweep_refuses_rows_failing_the_identity_suite():
    # bochner_riesz(0.4) converges at both gaps on the default grid but fails
    # the identity suite there (max residuals 1.0e-3 and 4.2e-4): no row may
    # carry the fit
    with pytest.raises(NlgpError, match=r"identity suite, 0 of 2 do.*0\.2, 0\.08"):
        sonic_sweep(bochner_riesz(0.4), gaps=[0.2, 0.08])


def test_sonic_sweep_curvature_bookkeeping():
    # second symbol derivative at 0 decides the nonexistence hypothesis
    assert sonic_sweep(delta(), gaps=np.array([0.2, 0.1])).d2_symbol_at_zero == 0.0
    spec = exp_repulsive(1.0, 3.0)
    expected = 4.0 * 1.0 / (3.0 ** 2 * (3.0 - 2.0))
    assert spec.d2_at_zero == pytest.approx(expected)
    assert shifted_deltas(0.5).d2_at_zero == pytest.approx(0.25)


def test_branch_momentum_decreasing_toward_sonic(grid):
    # reported diagnostic: p(c) decreases to 0 along the contact branch
    branch = continue_branch(delta(), grid, 0.4, 1.3)
    ps = [s.p for s in branch.solutions]
    assert all(b < a for a, b in zip(ps, ps[1:]))
    assert ps[-1] < 0.1
