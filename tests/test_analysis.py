"""Tail fits, the strip of analyticity, phase limits, symmetry metrics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from nlgp import (Grid, SolverOptions, UnderresolvedTailError, analyticity_strip,
                  assemble, continue_branch, delta, decay_prediction, exp_repulsive,
                  fit_algebraic, fit_exponential, gaussian, initial_guess,
                  newton_solve, phase_limits, symmetry_metrics)
from nlgp.analysis import algebraic_envelope_check, select_model
from nlgp.io import write_branch_csv
from nlgp.spectral import integrate, sech


@pytest.fixture(scope="module")
def fit_grid():
    return Grid(32.0, 1024)


@pytest.fixture(scope="module")
def contact_solution(fit_grid):
    return newton_solve(delta(), fit_grid, 1.0, initial_guess(fit_grid, 1.0))


# ---------------------------------------------------------------------------
# exponential fits


def test_fit_exponential_contact(fit_grid, contact_solution):
    # eta = (1/2) sech^2(x/2) decays at rate sqrt(2 - c^2) = 1
    fit = fit_exponential(fit_grid, contact_solution.fields.eta)
    assert fit.rate_or_power == pytest.approx(1.0, rel=0.02)
    assert fit.r_squared > 0.999
    # the band runs from 2 e^{-x} = 1e-2 max|eta| to 2 e^{-x} = 1e-9 max|eta|
    h = fit_grid.spacing
    assert fit.window[0] == pytest.approx(math.log(400.0), abs=h)
    assert fit.window[1] == pytest.approx(math.log(4e9), abs=h)


def test_fit_exponential_underresolved(fit_grid):
    with pytest.raises(UnderresolvedTailError):
        fit_exponential(fit_grid, np.zeros(fit_grid.size))


@pytest.mark.parametrize("spec", [delta(), exp_repulsive(1.0, 3.0)],
                         ids=["delta", "exp_repulsive"])
def test_branch_decay_rate_fit_every_member(spec, grid128, tmp_path):
    # on the default grid the tail reaches roundoff well inside the domain
    # and, at small c, sits on the solver's residual plateau: the amplitude
    # band must skip both for every member of the branch; steps of at most
    # 4 dc_init = 0.1 keep more than ten members on [0.2, 1.35]
    out = tmp_path / "branch.csv"
    write_branch_csv(out, continue_branch(spec, grid128, 0.2, 1.35,
                                          SolverOptions(dc_init=0.025)))
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    pred = [decay_prediction(spec, c).value for c in data[:, 0]]
    assert len(data) > 10 and np.all(np.isfinite(data[:, 6]))
    np.testing.assert_allclose(data[:, 6], pred, rtol=1e-2)


def test_fit_exponential_derivative_same_rate(fit_grid, contact_solution):
    from nlgp.spectral import derivative
    eta = contact_solution.fields.eta
    r1 = fit_exponential(fit_grid, eta).rate_or_power
    r2 = fit_exponential(fit_grid, derivative(fit_grid, eta)).rate_or_power
    assert abs(r1 - r2) / r1 < 0.05


# ---------------------------------------------------------------------------
# algebraic fits


def test_fit_algebraic_synthetic(fit_grid):
    eta = 1.0 / (1.0 + fit_grid.x ** 2)
    fit = fit_algebraic(fit_grid, eta)
    assert fit.rate_or_power == pytest.approx(2.0, rel=0.02)


def test_model_selection(fit_grid, contact_solution):
    _, _, chosen = select_model(fit_grid, contact_solution.fields.eta)
    assert chosen == "exponential"
    # on a narrow far-field window a power law is locally near-exponential,
    # so the margin rule may return the tie verdict; never "exponential"
    fe, fa, chosen = select_model(fit_grid, 1.0 / (1.0 + fit_grid.x ** 2))
    assert fa.r_squared > fe.r_squared
    assert chosen in ("algebraic", "inconclusive")


def test_algebraic_envelope_check(fit_grid):
    eta = np.cos(1.6 * fit_grid.x) / (1.0 + fit_grid.x ** 2)
    ok, maxima = algebraic_envelope_check(fit_grid, eta, 0.9,
                                          oscillation_period=2 * np.pi / 1.6)
    assert ok and len(maxima) >= 2


# ---------------------------------------------------------------------------
# phase limits


def test_phase_limits_trivial(fit_grid):
    f = assemble(fit_grid, np.ones(fit_grid.size), 1.0, delta())
    pl = phase_limits(f)
    assert pl.theta_minus == pl.theta_plus == pl.jump == 0.0
    assert pl.zero_jump


def test_phase_limits_contact(fit_grid, contact_solution):
    pl = phase_limits(contact_solution.fields)
    c = 1.0
    # oracle: jump of the closed-form soliton, 2 arctan(sqrt(2 - c^2)/c)
    assert pl.jump == pytest.approx(2 * math.atan(math.sqrt(2 - c * c) / c), abs=1e-6)
    assert pl.u_plus == pytest.approx(np.exp(1j * pl.theta_plus))
    assert not pl.zero_jump
    assert not pl.tail_warning


def test_phase_limits_tail_warning(fit_grid):
    small = Grid(8.0, 256)
    sol = newton_solve(delta(), small, 0.4, initial_guess(small, 0.4))
    assert phase_limits(sol.fields).tail_warning  # fat tail on a short domain


# ---------------------------------------------------------------------------
# symmetry metrics


def test_symmetry_contact(fit_grid, contact_solution):
    rho_asym, theta_asym = symmetry_metrics(contact_solution.fields)
    assert rho_asym < 1e-9
    assert theta_asym < 1e-9


def test_symmetry_detects_shift(fit_grid, contact_solution):
    shifted = np.roll(contact_solution.fields.rho, 37)
    f = assemble(fit_grid, shifted, 1.0, delta())
    rho_asym, _ = symmetry_metrics(f)
    assert rho_asym > 1e-2


# ---------------------------------------------------------------------------
# strip of analyticity


@pytest.mark.parametrize("c", [0.6, 1.0, 1.3])
def test_analyticity_strip_contact(c, grid128):
    # oracle: eta = 2 nu^2 sech^2(nu x), nu = sqrt(2 - c^2)/2, has its poles at
    # x = +-i pi/(2 nu): the strip half-width is pi/(2 nu) (pi at c = 1)
    sol = newton_solve(delta(), grid128, c, initial_guess(grid128, c))
    nu = math.sqrt(2.0 - c * c) / 2.0
    assert analyticity_strip(sol.fields) == pytest.approx(math.pi / (2.0 * nu), abs=1e-3)


def test_analyticity_strip_noise_refused(fit_grid):
    # a flat spectrum never falls into the band: no strip is fitted
    rng = np.random.default_rng(0)
    rho = 1.0 + 1e-3 * rng.standard_normal(fit_grid.size)
    with pytest.raises(UnderresolvedTailError):
        analyticity_strip(assemble(fit_grid, rho, 1.0, delta()))


# ---------------------------------------------------------------------------
# mass proxy int |eta|


def test_mass_proxy_stable_under_domain_growth():
    vals = []
    for L, N in ((64.0, 2048), (128.0, 4096)):
        g = Grid(L, N)
        sol = newton_solve(delta(), g, 1.0, initial_guess(g, 1.0))
        vals.append(integrate(g, np.abs(sol.fields.eta)))
    assert abs(vals[1] - vals[0]) < 1e-8
    # oracle: int eta = (1/2) int sech^2(x/2) = 2
    assert vals[1] == pytest.approx(2.0, abs=1e-9)


def test_analyticity_strip_berloff_positive(berloff_solution):
    w = analyticity_strip(berloff_solution.fields)
    assert 0.0 < w < math.inf
