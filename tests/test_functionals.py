"""Action functional, derivatives, pairing identity, mountain-pass geometry."""

import math

import numpy as np
import pytest

from nlgp import (Grid, OutOfRegimeError, VortexError, build_phi_c, delta,
                  functional_J, functionals, gaussian, grad_J,
                  initial_guess, mountain_pass_bracket, pairing_identity,
                  newton_solve, residual_rho, sphere_bound)
from nlgp.functionals import (sobolev_norm, _descent, _random_band_limited,
                              _r_sup)
from nlgp.hydro import action_parts, admissible, rho_equation, rho_jacobian
from nlgp.potentials import certify, inverse_mc, reference_cases
from nlgp.spectral import (apply_symbol, convolve, derivative, integrate, sech,
                           spectrum)


@pytest.fixture(scope="module")
def grid():
    return Grid(64.0, 2048)


def random_smooth(grid, rng, amplitude):
    v = _random_band_limited(grid, rng)
    return amplitude * v / np.abs(v).max()


# ---------------------------------------------------------------------------
# functional values


def test_J_zero(grid):
    parts = functional_J(grid, np.zeros(grid.size), 1.0, delta())
    assert parts.J == 0.0 and parts.A == 0.0 and parts.B == 0.0


def test_J_out_of_nv_sentinels(grid):
    parts = functional_J(grid, 1.1 * sech(grid.x), 1.0, delta())
    assert parts.J == -math.inf and parts.B == math.inf


def test_J_equals_energy_minus_cp_on_soliton(grid):
    from nlgp import assemble, energy, momentum
    rho = initial_guess(grid, 1.0)
    parts = functional_J(grid, 1.0 - rho, 1.0, delta())
    f = assemble(grid, rho, 1.0, delta())
    assert parts.J == pytest.approx(energy(f) - momentum(f), abs=1e-8)


# ---------------------------------------------------------------------------
# gradient


def test_grad_zero_at_vacuum(grid):
    g = grad_J(grid, np.zeros(grid.size), 1.0, delta())
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_grad_zero_at_soliton(grid):
    v = 1.0 - initial_guess(grid, 1.0)
    g = grad_J(grid, v, 1.0, delta())
    assert np.abs(g).max() < 1e-7


def test_grad_is_negative_amplitude_residual(grid):
    # critical-point equivalence: grad_J(v) = -F(1 - v) pointwise
    rng = np.random.default_rng(7)
    v = random_smooth(grid, rng, 0.4)
    g = grad_J(grid, v, 1.0, gaussian(0.3))
    F = rho_equation(grid, 1.0 - v, 1.0, gaussian(0.3))
    np.testing.assert_allclose(g, -F, atol=1e-12)


def test_grad_finite_difference_order(grid):
    rng = np.random.default_rng(3)
    spec = gaussian(0.3)
    # strong fields keep the eps = 1e-5 error above cancellation noise
    v = random_smooth(grid, rng, 0.45)
    psi = random_smooth(grid, rng, 0.8)
    exact = integrate(grid, grad_J(grid, v, 1.0, spec) * psi)
    errs = []
    eps_list = (1e-3, 1e-4, 1e-5)
    for eps in eps_list:
        jp = functional_J(grid, v + eps * psi, 1.0, spec).J
        jm = functional_J(grid, v - eps * psi, 1.0, spec).J
        errs.append(abs((jp - jm) / (2 * eps) - exact))
    order = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert order >= 1.9


def test_grad_consistency_many_fields(grid):
    # central differences at eps = 1e-5 match the gradient to 1e-6 relative
    rng = np.random.default_rng(11)
    spec = delta()
    eps = 1e-5
    for _ in range(50):
        v = random_smooth(grid, rng, 0.35)
        psi = random_smooth(grid, rng, 0.5)
        exact = integrate(grid, grad_J(grid, v, 1.0, spec) * psi)
        jp = functional_J(grid, v + eps * psi, 1.0, spec).J
        jm = functional_J(grid, v - eps * psi, 1.0, spec).J
        fd = (jp - jm) / (2 * eps)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# Hessian


def test_hess_vacuum_linearization(grid):
    # at the vacuum with the contact kernel and c = 0: H psi = -psi'' + 2 psi
    psi = sech(grid.x) ** 2
    out = rho_jacobian(grid, np.ones(grid.size), 0.0, delta())(psi)
    from nlgp.spectral import derivative
    np.testing.assert_allclose(out, -derivative(grid, psi, 2) + 2 * psi, atol=1e-10)


def test_hess_symmetry(grid):
    rng = np.random.default_rng(5)
    spec = gaussian(0.3)
    v = random_smooth(grid, rng, 0.3)
    phi = random_smooth(grid, rng, 1.0)
    psi = random_smooth(grid, rng, 1.0)
    hess = rho_jacobian(grid, 1.0 - v, 1.0, spec)
    a = integrate(grid, hess(psi) * phi)
    b = integrate(grid, hess(phi) * psi)
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_hess_matches_gradient_differences(grid):
    rng = np.random.default_rng(9)
    spec = delta()
    v = random_smooth(grid, rng, 0.3)
    psi = random_smooth(grid, rng, 0.5)
    H = rho_jacobian(grid, 1.0 - v, 1.0, spec)(psi)
    eps = 1e-5
    gp = grad_J(grid, v + eps * psi, 1.0, spec)
    gm = grad_J(grid, v - eps * psi, 1.0, spec)
    fd = (gp - gm) / (2 * eps)
    assert np.abs(fd - H).max() <= 1e-4 * np.abs(H).max()


# ---------------------------------------------------------------------------
# pairing identity


def test_pairing_trivial(grid):
    lhs, rhs, resid = pairing_identity(grid, np.zeros(grid.size), 1.0, delta())
    assert lhs == rhs == 0.0


def test_pairing_sech(grid):
    lhs, rhs, resid = pairing_identity(grid, 0.3 * sech(grid.x), 1.0, delta())
    assert resid < 1e-9


def test_pairing_at_critical_point(grid):
    # at a critical point J'(v)(v) = 0, so 2 J = rhs
    v = 1.0 - initial_guess(grid, 1.0)
    lhs, rhs, resid = pairing_identity(grid, v, 1.0, delta())
    J = functional_J(grid, v, 1.0, delta()).J
    assert lhs == pytest.approx(2 * J, abs=1e-7)
    assert resid < 1e-8


def test_pairing_random_fields(grid):
    rng = np.random.default_rng(13)
    for _ in range(10):
        v = random_smooth(grid, rng, 0.5)
        _, _, resid = pairing_identity(grid, v, 1.1, gaussian(0.3))
        assert resid < 1e-8


def test_pairing_vortex_error(grid):
    with pytest.raises(VortexError):
        pairing_identity(grid, 1.2 * sech(grid.x), 1.0, delta())


# ---------------------------------------------------------------------------
# singularity of B


def test_B_diverges_toward_boundary(grid):
    # rows up to 1 - 1e-6 lie beyond the positivity floor, where functional_J
    # reports B = +inf, so B is read from the action itself
    vals = []
    for k in range(1, 7):
        rho = 1.0 - (1.0 - 10.0 ** (-k)) * sech(grid.x)
        eta = 1.0 - rho ** 2
        parts = action_parts(grid, 1.0, rho, eta,
                             integrate(grid, derivative(grid, rho) ** 2),
                             integrate(grid, convolve(delta(), grid, eta) * eta))
        vals.append(parts.B)
    assert all(b2 > b1 for b1, b2 in zip(vals, vals[1:]))
    assert vals[-1] > 100 * vals[0]


# ---------------------------------------------------------------------------
# mountain-pass geometry


def test_build_phi_c_negative_endpoint(grid):
    for spec, c in ((delta(), 1.0), (gaussian(0.3), 1.0), (delta(), 1.4)):
        ep = build_phi_c(c, spec, grid)
        assert ep.J < 0.0
        assert ep.r <= grid.half_length / 2
        assert admissible(1.0 - ep.v)


def test_build_phi_c_grid_too_small():
    from nlgp import GridTooSmallError
    small = Grid(4.0, 128)
    with pytest.raises(GridTooSmallError):
        build_phi_c(0.2, delta(), small)


def test_sphere_bound_formula(grid):
    cert = certify(delta())
    # kappa = 0 makes the first branch 1/2 regardless of the radius
    r_sup = _r_sup(cert, 1.0)
    assert r_sup == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-10)
    sb = sphere_bound(1.0, delta(), cert, r_sup / 2, grid, n_samples=200,
                      rng=np.random.default_rng(1))
    ell_expect = min(0.5, 0.25 * (1.0 - 1.0 / (2.0 * (1.0 - r_sup / 2) ** 2)))
    assert sb.ell == pytest.approx(ell_expect)
    assert sb.lower > 0
    assert sb.min_margin >= 0.0  # all 200 random sphere samples above the bound
    assert sb.samples_checked == 200


def test_sphere_bound_out_of_regime(grid):
    cert = certify(delta())
    from nlgp import OutOfRegimeError
    with pytest.raises(OutOfRegimeError):
        sphere_bound(1.5, delta(), cert, 0.1, grid)


def test_mountain_pass_evaluates_each_array_once(grid, monkeypatch):
    # the string method keeps each node's action beside the path, so no
    # array reaches the action evaluator twice within one bracket
    seen = []
    inner = functionals._action

    def spy(grid, v, vh, c, spec):
        seen.append((v, vh))  # held, so no id is reused
        return inner(grid, v, vh, c, spec)

    monkeypatch.setattr(functionals, "_action", spy)
    cert = certify(delta())
    bracket = mountain_pass_bracket(1.0, delta(), cert, grid, refine_steps=3)
    assert len(seen) > 3 * 2
    assert len({id(v) for v, _ in seen}) == len({id(vh) for _, vh in seen}) == len(seen)
    sb = sphere_bound(1.0, delta(), cert, _r_sup(cert, 1.0) / 2, grid, n_samples=0)
    assert bracket.lower == sb.lower
    assert 0.0 < bracket.lower < bracket.upper


def test_mountain_pass_out_of_regime(grid):
    with pytest.raises(OutOfRegimeError):
        mountain_pass_bracket(1.5, delta(), certify(delta()), grid, refine_steps=0)


def test_mountain_pass_checks_regime_before_building_endpoint(grid, monkeypatch):
    # c = 1.45 lies past sqrt(2 sigma) = sqrt(2) for the contact kernel
    calls = []
    monkeypatch.setattr(functionals, "build_phi_c", lambda *args: calls.append(args))
    with pytest.raises(OutOfRegimeError):
        mountain_pass_bracket(1.45, delta(), certify(delta()), grid, refine_steps=0)
    assert calls == []


def test_mountain_pass_bracket_pinned(grid):
    # exact values of the string method in half-lattice coordinates
    bracket = mountain_pass_bracket(1.0, delta(), certify(delta()), grid, refine_steps=5)
    assert repr(bracket.lower) == "0.0016819959113241322"
    assert repr(bracket.upper) == "0.04968072294686865"
    history = [repr(h) for h in bracket.upper_history]
    assert history == [
        "0.11131831582990781", "0.06833934555558235", "0.057255695724214295",
        "0.05202083364140697", "0.0497104887381149", "0.045484000016593834"]
    assert bracket.path.shape == (33, grid.size)
    # the values of the string method in physical coordinates, with the
    # upper bound read from the fixed samples only: the same path to
    # roundoff, and the golden-section search only raises the maximum
    physical = [0.11131831582990781, 0.06833934555558235, 0.05725569572421421,
                0.052020833641406944, 0.049710488738114816, 0.04548400001659403]
    np.testing.assert_allclose(bracket.upper_history, physical, rtol=1e-14, atol=0.0)
    assert bracket.upper > 0.04960773352832476


def test_reparameterize_equal_arc_length(grid):
    rng = np.random.default_rng(11)
    a, b = random_smooth(grid, rng, 0.3), random_smooth(grid, rng, 0.3)
    t = np.linspace(0.0, 1.0, 9) ** 3           # nodes bunched at the start
    path = t[:, None] * a + np.sin(np.pi * t)[:, None] * b   # a bent polyline
    spectra = spectrum(path)
    moved, moved_spectra = functionals._reparameterize(grid, path, spectra)
    assert np.array_equal(moved[[0, -1]], path[[0, -1]])
    assert np.array_equal(moved_spectra[[0, -1]], spectra[[0, -1]])
    seg = sobolev_norm(grid, np.diff(path, axis=0))
    arc = np.concatenate(([0.0], np.cumsum(seg)))
    for k, node in enumerate(moved[1:-1], start=1):
        # the node lies on segment j of the old polyline, at arc length k/8 of it
        to_start = sobolev_norm(grid, node - path[:-1])
        to_end = sobolev_norm(grid, path[1:] - node)
        j = np.argmin(to_start + to_end - seg)
        assert to_start[j] + to_end[j] - seg[j] <= 1e-12 * arc[-1]
        assert abs(arc[j] + to_start[j] - k / 8 * arc[-1]) <= 1e-12 * arc[-1]
    np.testing.assert_allclose(moved_spectra, spectrum(moved), rtol=0.0,
                               atol=1e-12 * np.abs(moved_spectra).max())


def test_mountain_pass_transforms_per_bracket(grid, monkeypatch):
    # an action costs one transform and a descent direction three; the
    # string method in physical coordinates took 220 for these 5 sweeps
    count = [0]
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _transform=getattr(np.fft, name), **kwargs):
            count[0] += 1
            return _transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    mountain_pass_bracket(1.0, delta(), certify(delta()), grid, refine_steps=5)
    assert count[0] == 99


@pytest.mark.parametrize("c", [0.8, 1.0, 1.2])
def test_mountain_pass_upper_is_above_the_soliton(grid, c):
    # the soliton is the mountain-pass critical point, so the path maximum
    # lies above its action, with no slack
    bracket = mountain_pass_bracket(c, delta(), certify(delta()), grid, refine_steps=200)
    sol = newton_solve(delta(), grid, c, initial_guess(grid, c))
    assert sol.converged
    assert sol.J <= bracket.upper


def _kernels():
    return [spec for _, spec, _, _ in reference_cases()]


def test_parseval_action_matches_quadrature(grid, stack):
    # A by Parseval from the spectra equals A by quadrature of the samples
    inside = stack[[0, 2]]
    for spec in _kernels():
        for c in (0.6, 1.0):
            parts = functional_J(grid, inside, c, spec)
            rho, eta = 1.0 - inside, inside * (2.0 - inside)
            ref = action_parts(grid, c, rho, eta,
                               integrate(grid, derivative(grid, inside) ** 2),
                               integrate(grid, convolve(spec, grid, eta) * eta))
            np.testing.assert_allclose(parts.A, ref.A, rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(parts.B, ref.B)


def test_spectral_descent_matches_preconditioned_gradient(grid, stack):
    # (1/M_c) grad_J formed on the half lattice equals the physical gradient
    # passed through the multiplier
    inside = stack[[0, 2]]
    for spec in _kernels():
        for c in (0.6, 1.0):
            inv = inverse_mc(spec, c, grid)
            ref = apply_symbol(grad_J(grid, inside, c, spec), inv)
            vh = spectrum(inside)
            eh = spectrum(inside * (2.0 - inside))
            d, dh = _descent(grid, inside, vh, eh, c, spec, inv)
            assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()
            np.testing.assert_allclose(spectrum(d), dh, rtol=0.0,
                                       atol=1e-12 * np.abs(dh).max())
    with pytest.raises(VortexError):
        _descent(grid, stack, spectrum(stack), spectrum(stack), 1.0, delta(),
                 inverse_mc(delta(), 1.0, grid))


# ---------------------------------------------------------------------------
# stacks of fields: one value, or one membership flag, per row


@pytest.fixture(scope="module")
def stack(grid):
    rng = np.random.default_rng(17)
    rows = [random_smooth(grid, rng, 0.4), 1.2 * sech(grid.x),
            random_smooth(grid, rng, 0.3)]
    return np.array(rows)


def test_stack_membership_per_row(grid, stack):
    assert admissible(1.0 - stack).tolist() == [True, False, True]
    assert [admissible(1.0 - v) for v in stack] == [True, False, True]


def test_stack_functional_J_matches_rows(grid, stack):
    spec = gaussian(0.3)
    parts = functional_J(grid, stack, 1.0, spec)
    for k, v in enumerate(stack):
        one = functional_J(grid, v, 1.0, spec)
        assert (parts.J[k], parts.A[k], parts.B[k]) == (one.J, one.A, one.B)
    assert parts.J[1] == -math.inf and parts.B[1] == math.inf


def test_stack_action_parts_B_matches_rows(grid, stack):
    rho, eta = 1.0 - stack, stack * (2.0 - stack)
    B = action_parts(grid, 1.0, rho, eta, 0.0, 0.0).B
    assert B.tolist() == [action_parts(grid, 1.0, r, e, 0.0, 0.0).B
                          for r, e in zip(rho, eta)]


def test_stack_grad_J_matches_rows(grid, stack):
    inside = stack[[0, 2]]
    g = grad_J(grid, inside, 1.0, gaussian(0.3))
    for row, v in zip(g, inside):
        assert np.array_equal(row, grad_J(grid, v, 1.0, gaussian(0.3)))
    with pytest.raises(VortexError):
        grad_J(grid, stack, 1.0, gaussian(0.3))


def test_stack_sobolev_norm_and_integrate_match_rows(grid, stack):
    norms = sobolev_norm(grid, stack)
    sums = integrate(grid, stack ** 2)
    assert norms.tolist() == [sobolev_norm(grid, v) for v in stack]
    assert sums.tolist() == [integrate(grid, v ** 2) for v in stack]
    assert isinstance(sobolev_norm(grid, stack[0]), float)


def test_sobolev_norm(grid):
    v = sech(grid.x)
    # int sech^2 = 2, int sech^2 tanh^2 = 2/3
    assert sobolev_norm(grid, v) == pytest.approx(math.sqrt(2.0 + 2.0 / 3.0), abs=1e-10)
