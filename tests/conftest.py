"""Shared fixtures: grids and converged solutions reused across test modules."""

import dataclasses

import numpy as np
import pytest

from nlgp import (Grid, SolverOptions, berloff, initial_guess, newton_solve,
                  solver)
from nlgp.potentials import reference_cases


@pytest.fixture(scope="session")
def grid128():
    return Grid(128.0, 4096)


@pytest.fixture(scope="session")
def opts():
    return SolverOptions()


def _solve(spec, grid, c, seed_rho=None, opts=SolverOptions()):
    rho0 = initial_guess(grid, c) if seed_rho is None else seed_rho
    sol = newton_solve(spec, grid, c, rho0, opts)
    assert sol.converged, f"{spec.label()} at c={c}: {sol.status}"
    return sol


@pytest.fixture(scope="session")
def catalog_solutions():
    """The six reference kernels solved at c = 1 on their grids, keyed by kind."""
    return {spec.kind: _solve(spec, Grid(L, N), 1.0)
            for _, spec, L, N in reference_cases()}


@pytest.fixture(scope="session")
def berloff_solution():
    """Maxon/roton kernel at c = 0.4, continued from c = 0.2 on a wide grid."""
    spec = berloff(-36.0, 2687.0, 30.0)
    grid = Grid(512.0, 16384)
    s1 = _solve(spec, grid, 0.2)
    return _solve(spec, grid, 0.4, seed_rho=s1.fields.rho)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fail_nth_solve(monkeypatch):
    """fail_nth_solve(n) makes the n-th ``solver.newton_solve`` call report
    newton_failed and returns the list of (c, status, newton_iters) of every
    call; the patch is undone at the end of the test."""
    solve = solver.newton_solve

    def install(n):
        calls = []

        def failing(*args, **kwargs):
            sol = solve(*args, **kwargs)
            if len(calls) + 1 == n:
                sol = dataclasses.replace(sol, converged=False, status="newton_failed")
            calls.append((sol.c, sol.status, sol.newton_iters))
            return sol

        monkeypatch.setattr(solver, "newton_solve", failing)
        return calls
    return install
