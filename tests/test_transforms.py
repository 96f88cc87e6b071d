"""The real-transform path: half-lattice multipliers against a complex-FFT
reference, and symbols evaluated once per (spec, grid)."""

import numpy as np
import pytest

from nlgp import (Grid, berloff, bochner_riesz, delta, derivative,
                  exp_repulsive, gaussian, initial_guess,
                  measure_combo, newton_solve, shifted_deltas, soft_core,
                  solver, tabulated)
from nlgp.hydro import rho_jacobian, rho_jacobian_preconditioned
from nlgp.potentials import PotentialSpec, inverse_mc, reference_cases
from nlgp.spectral import (convolve, cumulative_integral, from_half_spectrum,
                           half_spectrum, sech, spectral_density_integral,
                           spectrum)


def _reference(symbol_full, f):
    """The full-lattice complex multiplier the half lattice replaces."""
    return np.fft.ifft(symbol_full * np.fft.fft(f)).real


def _rel(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def _test_field(grid, seed=3):
    """A smooth random field plus a Nyquist mode (-1)^j."""
    rng = np.random.default_rng(seed)
    band = np.exp(-(grid.xi / 4.0) ** 2)
    f = np.fft.ifft(band * (rng.standard_normal(grid.size)
                            + 1j * rng.standard_normal(grid.size))).real
    return f / np.abs(f).max() + 1e-3 * (-1.0) ** np.arange(grid.size)


ALL_KINDS = [delta(), exp_repulsive(1.0, 3.0), shifted_deltas(0.5), gaussian(0.3),
             soft_core(1.0), bochner_riesz(0.4), berloff(-36.0, 2687.0, 30.0),
             measure_combo([0.25, -0.25], [0.0, 1.0]),
             tabulated(np.linspace(0.0, 120.0, 2001),
                       np.exp(-0.3 * np.linspace(0.0, 120.0, 2001) ** 2))]


def test_catalog_list_covers_every_kind():
    from nlgp.potentials import CATALOG
    assert {s.kind for s in ALL_KINDS} == set(CATALOG)


def test_derivative_matches_complex_reference():
    g = Grid(16.0, 256)          # one grid for all orders: its cache is keyed by k
    f = _test_field(g)
    nyquist = (-1.0) ** np.arange(g.size)
    for k in (1, 2, 3, 4, 1):
        assert _rel(derivative(g, f, k), _reference((1j * g.xi) ** k, f)) <= 1e-13
        np.testing.assert_allclose(derivative(g, nyquist, k),
                                   _reference((1j * g.xi) ** k, nyquist),
                                   rtol=0.0, atol=1e-13 * g.xi_half[-1] ** k)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
def test_convolve_matches_complex_reference(spec):
    g = Grid(16.0, 512)          # Nyquist frequency ~50, inside the tabulated range
    f = _test_field(g)
    assert _rel(convolve(spec, g, f), _reference(spec.symbol(g.xi), f)) <= 1e-13


def test_cumulative_integral_and_density_match_complex_reference():
    g = Grid(16.0, 256)
    f = _test_field(g) + 0.3
    fh = np.fft.fft(f)
    coef = np.zeros_like(fh)
    coef[1:] = fh[1:] / (1j * g.xi[1:])
    mean = fh[0].real / g.size
    G = np.fft.ifft(coef).real + mean * (g.x + g.half_length)
    G -= G[g.size // 2]                       # G(0) = 0 at the node x = 0
    assert _rel(cumulative_integral(g, f), G) <= 1e-13
    w = np.exp(-g.xi ** 2 / 9.0)
    full = np.sum(w * np.abs(g.spacing * fh) ** 2) / (2.0 * g.half_length)
    half = spectral_density_integral(g, np.exp(-g.xi_half ** 2 / 9.0), spectrum(f))
    assert half == pytest.approx(full, rel=1e-13)


def test_half_spectrum_dot_product_is_the_sample_dot_product():
    g = Grid(24.0, 512)
    f, h = _test_field(g, seed=1), _test_field(g, seed=2)
    yf, yh = half_spectrum(g, f), half_spectrum(g, h)
    assert yf.shape == (g.size + 2,)
    assert np.dot(yf, yh) == pytest.approx(np.dot(f, h), rel=1e-13)
    assert np.dot(yf, yf) == pytest.approx(np.dot(f, f), rel=1e-13)
    # xi = 0 and the Nyquist frequency carry no imaginary part
    assert yf[1] == 0.0 and yf[-1] == 0.0
    ones = np.ones(g.xi_half.size)
    assert _rel(from_half_spectrum(g, yf, ones), f) <= 1e-14


@pytest.mark.parametrize("case", reference_cases(), ids=lambda case: case[0])
def test_preconditioned_jacobian_is_the_physical_one_in_coordinates(case):
    _, spec, L, N = case
    g, c = Grid(L, N), 1.0
    rng = np.random.default_rng(7)

    def even(f):
        return 0.5 * (f + g.reflect(f))

    rho = even(1.0 - 0.5 * sech(g.x / 4.0) ** 2
               + 0.05 * sech(g.x / 8.0) * rng.standard_normal(N))
    inv_mc = inverse_mc(spec, c, g)
    y = half_spectrum(g, even(rng.standard_normal(N)))
    d = from_half_spectrum(g, y, inv_mc)
    got = rho_jacobian_preconditioned(g, rho, c, spec, inv_mc)(y)
    assert got[1] == 0.0 and got[-1] == 0.0      # Im at xi = 0 and at Nyquist
    assert _rel(got, half_spectrum(g, rho_jacobian(g, rho, c, spec)(d))) <= 1e-12


def test_half_lattice_has_the_full_lattice_magnitudes():
    g = Grid(24.0, 512)
    assert g.xi_half.size == g.size // 2 + 1
    np.testing.assert_array_equal(np.sort(np.unique(np.abs(g.xi))), g.xi_half)


def _count_symbol_calls(monkeypatch):
    calls = []
    symbol = PotentialSpec.symbol

    def counted(self, xi):
        calls.append(np.size(xi))
        return symbol(self, xi)
    monkeypatch.setattr(PotentialSpec, "symbol", counted)
    return calls


def test_newton_solve_evaluates_the_symbol_once_per_spec_and_grid(monkeypatch):
    calls = _count_symbol_calls(monkeypatch)
    spec, grid = gaussian(0.3), Grid(64.0, 1024)
    sol = newton_solve(spec, grid, 1.0, initial_guess(grid, 1.0))
    assert sol.converged
    assert calls == [grid.xi_half.size]
    newton_solve(spec, grid, 0.9, sol.fields.rho)          # same spec and grid
    assert calls == [grid.xi_half.size]
    other = Grid(64.0, 2048)
    newton_solve(spec, other, 1.0, initial_guess(other, 1.0))
    assert calls == [grid.xi_half.size, other.xi_half.size]


def test_equal_size_different_length_grids_get_their_own_symbol():
    spec = gaussian(0.3)
    a, b = Grid(16.0, 256), Grid(32.0, 256)
    wa, wb = spec.lattice_symbol(a), spec.lattice_symbol(b)
    np.testing.assert_array_equal(wa, spec.symbol(a.xi_half))
    np.testing.assert_array_equal(wb, spec.symbol(b.xi_half))
    assert not np.array_equal(wa, wb)
    assert spec.lattice_symbol(Grid(16.0, 256)) is wa     # equal grid, same entry
    assert not wa.flags.writeable


def test_newton_and_gmres_iterations_gaussian_n4096(monkeypatch):
    gmres_iters, transforms = [], [0]

    def counting(A, b, _gmres=solver.gmres, **kw):
        it = [0]

        def tick(_):
            it[0] += 1
        out = _gmres(A, b, callback=tick, **kw)
        gmres_iters.append(it[0])
        return out
    monkeypatch.setattr(solver, "gmres", counting)
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _transform=getattr(np.fft, name), **kwargs):
            transforms[0] += 1
            return _transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    grid = Grid(128.0, 4096)
    # a Krylov iteration takes four real transforms, a call that ends within
    # its first cycle forms no true residual b - A x, and the forcing term
    # lets the early steps solve loosely (8 iterations a step at a fixed 1e-8)
    for c, newton, krylov, n_transforms in ((0.6, 4, [4, 5, 6, 8], 141),
                                            (1.0, 4, [4, 4, 5, 7], 129),
                                            (1.2, 5, [5, 5, 5, 6, 8], 173)):
        gmres_iters.clear()
        transforms[0] = 0
        sol = newton_solve(gaussian(0.3), grid, c, initial_guess(grid, c))
        assert sol.converged
        assert (sol.newton_iters, gmres_iters, transforms[0]) == (newton, krylov,
                                                                  n_transforms)
        assert sol.krylov_iters == sum(krylov)
