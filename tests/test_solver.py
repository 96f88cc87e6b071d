"""Newton solves, branch continuation, sonic sweep."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg

from nlgp import (ConfigError, Grid, NlgpError, OutOfRegimeError, SolverOptions,
                  SupersonicMultiplierError, VortexError, bochner_riesz,
                  continue_branch, delta, exp_repulsive, gaussian,
                  initial_guess, newton_solve, potentials, residual_rho,
                  shifted_deltas, solve_auto, sonic_sweep)
from nlgp import solver
from nlgp.hydro import POSITIVITY_FLOOR, rho_equation, rho_jacobian_preconditioned
from nlgp.potentials import inverse_mc
from nlgp.solver import DC_MIN, KRYLOV_RESTART, gmres
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


def test_gmres_rtol_follows_the_newton_residual(grid, monkeypatch):
    # inexact Newton: each step solves to max(krylov_tol, min(FORCING_MAX,
    # sup |F|)), so the tolerance tightens as the residual falls
    opts, calls = SolverOptions(), []

    def spy(A, b, _gmres=solver.gmres, **kw):
        res = from_half_spectrum(grid, b, np.ones(grid.xi_half.size))
        calls.append((kw["rtol"], float(np.abs(res).max())))
        return _gmres(A, b, **kw)
    monkeypatch.setattr(solver, "gmres", spy)
    sol = newton_solve(gaussian(0.3), grid, 1.0, initial_guess(grid, 1.0), opts)
    assert sol.converged and len(calls) == sol.newton_iters >= 3
    for rtol, sup in calls:
        assert rtol == pytest.approx(
            max(opts.krylov_tol, min(solver.FORCING_MAX, sup)), rel=1e-9)
    rtols = [rtol for rtol, _ in calls]
    assert all(b <= a for a, b in zip(rtols, rtols[1:]))
    assert rtols[0] > 100 * rtols[-1]


@pytest.mark.parametrize("c", [0.6, 1.0, 1.2])
def test_krylov_tol_sets_the_tightest_step(grid, c):
    # krylov_tol floors each step's tolerance, so 1e-3 makes fewer Krylov
    # iterations than the default.  1e-12 makes more at c = 1.2, whose last
    # step starts at sup |F| = 1.7e-10.  At c = 1.0 the last step starts at
    # 3.3e-7, above both floors; at c = 0.6 at 3.2e-9, which its eight
    # iterations meet under either floor
    sols = {tol: newton_solve(gaussian(0.3), grid, c, initial_guess(grid, c),
                              SolverOptions(krylov_tol=tol))
            for tol in (1e-3, 1e-8, 1e-12)}
    for sol in sols.values():
        assert sol.converged and sol.residual_sup < SolverOptions().tol_newton
        assert sol.identity_report.passed
    loose, default, tight = (sols[tol].krylov_iters for tol in (1e-3, 1e-8, 1e-12))
    assert loose < default <= tight
    assert (default < tight) == (c == 1.2)


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
    opts = SolverOptions(max_iter=1, krylov_tol=1e-12)
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
    branch = continue_branch(delta(), grid, 0.3, 1.2)
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
    # the sixth solve is the one at the sonic cap; after it fails, the halved
    # step still reaches the cap, so it halves again rather than re-solve the
    # same speed
    calls = fail_nth_solve(6)
    branch = continue_branch(delta(), Grid(64.0, 4096), 1.30, 1.6,
                             SolverOptions(dc_init=0.02))
    assert branch.termination == "sonic_limit"
    c_cap = branch.solutions[-1].c
    assert calls[5][0] == c_cap
    assert branch.rejected_steps == [(c_cap, "newton_failed", calls[5][2])]
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


def test_branch_secant_predictor_work(monkeypatch):
    # the secant predictor takes 58 Newton iterations here; seeding with the
    # last member alone took 121, with a 50-iteration failed corrector
    solve, calls = solver.newton_solve, []

    def spy(spec, grid, c, rho0, opts):
        sol = solve(spec, grid, c, rho0, opts)
        calls.append((np.array(rho0), sol))
        return sol

    monkeypatch.setattr(solver, "newton_solve", spy)
    branch = continue_branch(delta(), Grid(64.0, 4096), 0.22, 1.35)
    assert branch.termination == "reached_cmax"
    assert all(sol.converged for _, sol in calls)
    assert sum(sol.newton_iters for _, sol in calls) <= 70
    assert branch.rejected_steps == []
    (_, a), (seed_b, b), (seed_3, third) = calls[:3]
    assert np.array_equal(seed_b, a.fields.rho)  # one member: seeded with it
    s = (third.c - b.c) / (b.c - a.c)
    assert np.array_equal(seed_3, b.fields.rho + s * (b.fields.rho - a.fields.rho))


def test_predictor_falls_back_at_the_floor(grid):
    a = SimpleNamespace(c=1.0, fields=SimpleNamespace(rho=np.full(grid.size, 0.9)))
    b = SimpleNamespace(c=1.1, fields=SimpleNamespace(rho=np.full(grid.size, 0.5)))
    # 0.5 + 3 (0.5 - 0.9) < 0: the secant reaches the floor
    assert np.min(b.fields.rho + 3.0 * (b.fields.rho - a.fields.rho)) <= POSITIVITY_FLOOR
    assert solver._predict(grid, [a, b], 1.4) is b.fields.rho
    assert np.allclose(solver._predict(grid, [a, b], 1.2), 0.1)
    assert solver._predict(grid, [b], 1.2) is b.fields.rho
    assert np.array_equal(solver._predict(grid, [], 1.2), initial_guess(grid, 1.2))


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
