"""Hydrodynamic fields, residuals, identities, energy and momentum."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from nlgp import (Grid, VortexError, assemble, delta, energy, exp_repulsive,
                  identity_suite, initial_guess, momentum, nonvanishing_check,
                  residual_rho, residual_tw)
from nlgp.hydro import POSITIVITY_FLOOR, WaveFields, action, admissible
from nlgp.spectral import sech


def contact_amplitude(x, c):
    nu = math.sqrt(2.0 - c ** 2) / 2.0
    return np.sqrt(1.0 - ((2.0 - c ** 2) / 2.0) * sech(nu * x) ** 2)


def contact_eta(x, c):
    nu = math.sqrt(2.0 - c ** 2) / 2.0
    return ((2.0 - c ** 2) / 2.0) * sech(nu * x) ** 2


@pytest.fixture(scope="module")
def grid():
    return Grid(128.0, 4096)


@pytest.fixture(scope="module")
def contact_fields(grid):
    return assemble(grid, contact_amplitude(grid.x, 1.0), 1.0, delta())


# ---------------------------------------------------------------------------
# phase


def test_admissible_per_row(grid):
    # min rho > POSITIVITY_FLOOR: a Python bool for one field, a flag per row
    rows = np.array([np.ones(grid.size), 1.0 - sech(grid.x),
                     np.full(grid.size, POSITIVITY_FLOOR),
                     np.full(grid.size, 2.0 * POSITIVITY_FLOOR)])
    assert admissible(rows).tolist() == [True, False, False, True]
    assert [admissible(r) for r in rows] == [True, False, False, True]
    assert all(type(admissible(r)) is bool for r in rows)


def test_phase_trivial(grid):
    theta = assemble(grid, np.ones(grid.size), 0.7, delta()).theta
    np.testing.assert_allclose(theta, 0.0, atol=1e-12)


def test_phase_odd(grid, contact_fields):
    # boundary node excluded: theta is not periodic, x = -L has no mirror node
    theta = contact_fields.theta
    assert np.abs((theta + grid.reflect(theta))[1:]).max() < 1e-10


def test_phase_jump_quadrature_oracle(grid):
    # oracle: adaptive quadrature of (c/2)(1/rho^2 - 1) on the closed form
    c = 1.0
    jump_oracle = quad(lambda y: 0.5 * c * (1.0 / contact_amplitude(y, c) ** 2 - 1.0),
                       -200.0, 200.0, limit=400)[0]
    theta = assemble(grid, contact_amplitude(grid.x, c), c, delta()).theta
    jump = theta[-1] - theta[0]
    assert jump == pytest.approx(jump_oracle, abs=1e-8)
    # and the arctan closed form of the contact soliton
    assert jump == pytest.approx(2.0 * math.atan(math.sqrt(2.0 - c ** 2) / c), abs=1e-6)


def test_phase_vortex_error(grid):
    rho = np.ones(grid.size)
    rho[5] = -0.1
    with pytest.raises(VortexError):
        assemble(grid, rho, 1.0, delta())


# ---------------------------------------------------------------------------
# assembly


def test_assemble_trivial(grid):
    f = assemble(grid, np.ones(grid.size), 0.9, delta())
    np.testing.assert_allclose(f.u, 1.0, atol=1e-14)
    np.testing.assert_allclose(f.eta, 0.0, atol=1e-14)
    np.testing.assert_allclose(f.K, 0.0, atol=1e-14)


def test_u_formed_on_read_not_stored(grid):
    # a profile stores seven real arrays and eta's spectrum; theta is formed
    # from theta' on first read and kept, and u is built from rho and theta
    f = assemble(grid, contact_amplitude(grid.x, 0.8), 0.8, delta())
    assert "u" not in vars(f) and "theta" not in vars(f)
    assert sum(isinstance(a, np.ndarray) for a in vars(f).values()) == 8
    assert np.array_equal(f.u, f.rho * np.exp(1j * f.theta))
    assert "u" not in vars(f) and vars(f)["theta"] is f.theta


def test_assemble_contact_trough(grid, contact_fields):
    # eta(0) = 1 - c^2/2 = 0.5 at c = 1
    j0 = grid.size // 2
    assert contact_fields.eta[j0] == pytest.approx(0.5, abs=1e-14)


def test_assemble_kinetic_density_analytic(grid, contact_fields):
    # |u'|^2 of the closed form: u' = sqrt(2) nu^2 sech^2(nu x), K = 2 nu^4 sech^4
    nu = 0.5
    exact = 2.0 * nu ** 4 * sech(nu * grid.x) ** 4
    assert np.abs(contact_fields.K - exact).max() < 1e-8


def test_invariants_eta_and_positivity(grid, contact_fields):
    np.testing.assert_allclose(contact_fields.eta, 1.0 - contact_fields.rho ** 2,
                               atol=1e-14)
    assert contact_fields.min_rho > 0


# ---------------------------------------------------------------------------
# residuals


def test_residual_tw_contact(grid, contact_fields):
    sup, l2 = residual_tw(contact_fields)
    assert sup < 1e-8 and l2 < 1e-8


def test_residual_tw_trivial(grid):
    f = assemble(grid, np.ones(grid.size), 1.2, exp_repulsive(1.0, 3.0))
    sup, _ = residual_tw(f)
    assert sup < 1e-14


def test_residual_tw_plane_wave(grid):
    # infinite-energy solution r e^{ikx} with k^2 + ck = 1 - r^2
    c, mode = 1.0, 16
    k = math.pi * mode / grid.half_length
    r = math.sqrt(1.0 - k ** 2 - c * k)
    f = WaveFields(grid=grid, c=c, rho=np.full(grid.size, r),
                   theta_prime=np.full(grid.size, k), spec=delta())
    sup, _ = residual_tw(f)
    assert sup < 1e-12


def test_residual_rho_contact(grid):
    sup, _ = residual_rho(grid, contact_amplitude(grid.x, 1.0), 1.0, delta())
    assert sup < 1e-8


def test_residual_rho_trivial_and_perturbed(grid):
    sup, _ = residual_rho(grid, np.ones(grid.size), 1.0, delta())
    assert sup < 1e-14
    sup, _ = residual_rho(grid, 1.0 + 0.1 * sech(grid.x), 1.0, delta())
    assert sup > 1e-3


# ---------------------------------------------------------------------------
# identity battery


def test_identity_suite_contact(grid, contact_fields):
    report = identity_suite(contact_fields)
    assert report.passed
    assert report.max_residual < 1e-7


def test_identity_suite_trivial(grid):
    f = assemble(grid, np.ones(grid.size), 1.0, delta())
    report = identity_suite(f)
    assert report.max_residual < 1e-13


def test_identity_pohozaev_contact_value(grid, contact_fields):
    # contact kernel: int |u'|^2 = (1/2) int eta^2, both equal (2 - c^2)^{3/2}/3
    lhs = grid.spacing * contact_fields.K.sum()
    rhs = 0.5 * grid.spacing * np.sum(contact_fields.eta ** 2)
    assert lhs == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert rhs == pytest.approx(1.0 / 3.0, abs=1e-8)
    e = identity_suite(contact_fields)["pohozaev"]
    assert e.residual_rel < 1e-10


# ---------------------------------------------------------------------------
# energy / momentum


def test_energy_momentum_trivial(grid):
    f = assemble(grid, np.ones(grid.size), 0.8, delta())
    assert energy(f) == 0.0
    assert momentum(f) == 0.0


def test_energy_contact_closed_form(grid):
    for c in (0.5, 1.0, 1.3):
        f = assemble(grid, contact_amplitude(grid.x, c), c, delta())
        assert energy(f) == pytest.approx((2.0 - c ** 2) ** 1.5 / 3.0, abs=1e-8), c


def test_momentum_contact_quadrature_oracle(grid):
    # oracle: (c/4) int eta^2/(1 - eta) by adaptive quadrature on the closed
    # form, which is pi/2 - arctan(c/sqrt(2 - c^2)) - (c/2) sqrt(2 - c^2)
    for c in (0.5, 1.0, 1.3):
        oracle = 0.25 * c * quad(
            lambda y: contact_eta(y, c) ** 2 / (1 - contact_eta(y, c)),
            -100.0, 100.0, limit=400)[0]
        s = math.sqrt(2.0 - c ** 2)
        assert oracle == pytest.approx(math.pi / 2.0 - math.atan(c / s) - 0.5 * c * s,
                                       abs=1e-10), c
        f = assemble(grid, contact_amplitude(grid.x, c), c, delta())
        assert momentum(f) == pytest.approx(oracle, abs=1e-8), c


# ---------------------------------------------------------------------------
# bounds, symmetries


def test_nonvanishing_contact(grid, contact_fields):
    rep = nonvanishing_check(contact_fields)
    assert rep.bound == pytest.approx(0.25)
    assert rep.weta_sup == pytest.approx(0.5, abs=1e-12)
    assert rep.passed


def test_nonvanishing_trivial_fails(grid):
    f = assemble(grid, np.ones(grid.size), 1.0, delta())
    assert not nonvanishing_check(f).passed


def test_conjugation_speed_sign(grid):
    rho = contact_amplitude(grid.x, 0.8)
    fp = assemble(grid, rho, 0.8, delta())
    fm = assemble(grid, rho, -0.8, delta())
    np.testing.assert_allclose(fm.u, np.conj(fp.u), atol=1e-12)
    sup, _ = residual_tw(fm)
    assert sup < 1e-8  # the conjugate solves the reversed-speed equation


def test_gauge_invariance(grid, contact_fields):
    # theta is formed on first read; a constant shift goes in its cached slot
    shifted = WaveFields(grid=grid, c=contact_fields.c, rho=contact_fields.rho,
                         theta_prime=contact_fields.theta_prime, spec=delta())
    vars(shifted)["theta"] = contact_fields.theta + 1.234
    s0 = residual_tw(contact_fields)
    s1 = residual_tw(shifted)
    assert s0 == pytest.approx(s1, rel=1e-12)
    assert energy(shifted) == pytest.approx(energy(contact_fields))
    assert momentum(shifted) == pytest.approx(momentum(contact_fields))


def test_action_equals_energy_minus_cp(grid, contact_fields):
    assert action(contact_fields) == pytest.approx(
        energy(contact_fields) - 1.0 * momentum(contact_fields), abs=1e-10)


def test_profile_derivatives_taken_once(grid, contact_fields, monkeypatch):
    # rho', eta' and W*eta belong to the profile: the finalize stage and the
    # verify path transform only what no earlier step has (eta'', K', rho'')
    # and convolve only where the profile is built and in the amplitude residual
    from nlgp import hydro, spectral
    calls = []
    real = spectral.derivative

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(spectral, "derivative", counted)
    monkeypatch.setattr(hydro, "derivative", counted)
    convolutions = []
    real_convolve = spectral.convolve

    def counted_convolve(*args, **kwargs):
        convolutions.append(args)
        return real_convolve(*args, **kwargs)
    monkeypatch.setattr(spectral, "convolve", counted_convolve)
    monkeypatch.setattr(hydro, "convolve", counted_convolve)
    spec, rho = exp_repulsive(1.0, 3.0), contact_fields.rho
    f = assemble(grid, rho, 1.0, spec)
    identity_suite(f)
    energy(f)
    momentum(f)
    action(f)
    assert len(calls) <= 4
    assert len(convolutions) <= 1
    calls.clear()
    convolutions.clear()
    f = assemble(grid, rho, 1.0, spec)
    identity_suite(f)
    residual_rho(grid, rho, 1.0, spec)
    nonvanishing_check(f)
    assert len(calls) <= 5
    assert len(convolutions) <= 2


def test_catalog_invariant_battery(catalog_solutions):
    # every converged solution meets the identities at 1e-6
    for name, sol in catalog_solutions.items():
        assert sol.identity_report.max_residual <= 1e-6, name


def test_momentum_conditioning_warning(grid):
    from nlgp.hydro import momentum_conditioning_warning
    from nlgp import initial_guess
    slow = assemble(grid, initial_guess(grid, 0.05), 0.05, delta())  # near-black
    assert momentum_conditioning_warning(slow) is not None
    fast = assemble(grid, initial_guess(grid, 1.0), 1.0, delta())
    assert momentum_conditioning_warning(fast) is None
