"""Grid operations: differentiation, quadrature, convolution, transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgp import (Grid, bochner_riesz, convolve, delta, derivative, gaussian,
                  integrate)
from nlgp.errors import ConfigError
from nlgp.spectral import (cumulative_integral, sech,
                           spectral_density_integral, spectrum, tail_magnitude,
                           zero_extend, zero_pad)


def test_grid_basics():
    g = Grid(40.0, 256)
    assert g.spacing == pytest.approx(80.0 / 256)
    assert g.x[0] == -40.0 and g.x[-1] == pytest.approx(40.0 - g.spacing)
    assert np.all(np.diff(g.x) > 0)
    xi = np.sort(g.xi)
    assert set(np.round(xi, 12)) == set(np.round(np.pi * np.arange(-128, 128) / 40.0, 12))


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(-1.0, 256)
    # an infinite half-length gave spacing inf and all-nan nodes
    for L in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite and positive"):
            Grid(L, 64)
    with pytest.raises(ConfigError):
        Grid(10.0, 300)  # not a power of two


@pytest.mark.parametrize("L,N", [(1e308, 4096), (1e-320, 4096), (1e-320, 1024)])
def test_grid_refuses_a_spacing_or_lattice_out_of_range(L, N):
    # a finite L whose spacing 2L/N overflows to inf, or whose spacing is so
    # small that the frequency lattice pi / h overflows, made inf and nan nodes
    with pytest.raises(ConfigError, match="grid spacing"):
        Grid(L, N)


def test_integrate_constant():
    g = Grid(40.0, 256)
    assert integrate(g, np.ones(g.size)) == pytest.approx(80.0)


def test_integrate_sech_powers():
    # int sech^2 = 2 and int sech^4 = 4/3
    g = Grid(40.0, 2048)
    assert integrate(g, sech(g.x) ** 2) == pytest.approx(2.0, abs=1e-10)
    assert integrate(g, sech(g.x) ** 4) == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_derivative_eigenfunction():
    g = Grid(40.0, 256)
    f = np.sin(np.pi * g.x / 40.0)
    np.testing.assert_allclose(derivative(g, f),
                               (np.pi / 40.0) * np.cos(np.pi * g.x / 40.0),
                               atol=1e-12)
    np.testing.assert_allclose(derivative(g, np.ones(g.size), 3), 0.0, atol=1e-12)


def test_derivative_sech_squared():
    # analytic: (sech^2)'' = 4 sech^2 - 6 sech^4
    g = Grid(40.0, 2048)
    f = sech(g.x) ** 2
    exact = 4.0 * f - 6.0 * sech(g.x) ** 4
    assert np.abs(derivative(g, f, 2) - exact).max() < 1e-9


def test_derivative_order_validation():
    g = Grid(10.0, 64)
    with pytest.raises(ValueError):
        derivative(g, np.ones(64), 5)


def test_convolve_identity_kernel():
    g = Grid(40.0, 512)
    f = sech(g.x)
    np.testing.assert_allclose(convolve(delta(), g, f), f, atol=1e-14)


def test_convolve_constant_is_preserved():
    g = Grid(40.0, 512)
    out = convolve(gaussian(0.3), g, np.ones(g.size))
    np.testing.assert_allclose(out, 1.0, atol=1e-14)


def test_convolve_gaussian_closed_form():
    # gaussian kernel of symbol e^{-lam xi^2} against a gaussian density:
    # variances add, 2 s^2 -> 2 (s^2 + lam)
    lam, s2 = 0.7, 1.3
    g = Grid(64.0, 2048)
    f = np.exp(-g.x ** 2 / (4 * s2)) / math.sqrt(4 * math.pi * s2)
    out = convolve(gaussian(lam), g, f)
    v = s2 + lam
    exact = np.exp(-g.x ** 2 / (4 * v)) / math.sqrt(4 * math.pi * v)
    assert np.abs(out - exact).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_parseval_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    g = Grid(32.0, 256)
    band = np.exp(-(g.xi / 3.0) ** 2)
    f = np.fft.ifft(band * (rng.standard_normal(256) + 1j * rng.standard_normal(256))).real
    h = np.fft.ifft(band * (rng.standard_normal(256) + 1j * rng.standard_normal(256))).real
    # discrete Plancherel
    lhs = integrate(g, f ** 2)
    rhs = spectral_density_integral(g, np.ones(g.xi_half.size), spectrum(f))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # convolution symmetry and norm bound
    spec = gaussian(0.4)
    a = integrate(g, convolve(spec, g, f) * h)
    b = integrate(g, convolve(spec, g, h) * f)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-14)
    wf = convolve(spec, g, f)
    assert math.sqrt(integrate(g, wf ** 2)) <= math.sqrt(integrate(g, f ** 2)) * (1 + 1e-12)


def test_spectral_density_integral_rows_and_quadrature():
    g = Grid(32.0, 512)
    rng = np.random.default_rng(5)
    band = np.exp(-(g.xi_half / 3.0) ** 2)
    coef = rng.standard_normal((5, band.size)) + 1j * rng.standard_normal((5, band.size))
    stack = np.fft.irfft(band * coef, n=g.size)
    fh = spectrum(stack)
    for spec in (gaussian(0.4), bochner_riesz(0.25)):
        w = spec.lattice_symbol(g)
        vals = spectral_density_integral(g, w, fh)
        # a stack gives each row's value to the bit, one field a Python float
        assert vals.tolist() == [spectral_density_integral(g, w, row) for row in fh]
        assert isinstance(spectral_density_integral(g, w, fh[0]), float)
        # a strided stack is read row by row like a contiguous one
        assert spectral_density_integral(g, w, fh[::2]).tolist() == vals[::2].tolist()
        # with W_hat it is int (W*f) f
        np.testing.assert_allclose(vals, integrate(g, convolve(spec, g, stack) * stack),
                                   rtol=1e-12, atol=0.0)


def test_cumulative_integral():
    g = Grid(32.0, 1024)
    gp = np.cos(np.pi * g.x / 32.0)
    G = cumulative_integral(g, gp)
    exact = (32.0 / np.pi) * np.sin(np.pi * g.x / 32.0)
    assert np.abs(G - exact).max() < 1e-11
    assert G[g.size // 2] == 0.0 and g.x[g.size // 2] == 0.0


def test_tail_magnitude():
    g = Grid(32.0, 512)
    f = sech(g.x)
    assert tail_magnitude(g, f) == pytest.approx(sech(32.0), rel=0.1)


def _band_limited(g, n):
    """A field with every mode up to the Nyquist frequency of Grid(L, n),
    that mode included, evaluated on the nodes of g."""
    rng = np.random.default_rng(7)
    k = np.arange(n // 2 + 1)
    a, b = rng.standard_normal(k.size), rng.standard_normal(k.size)
    b[-1] = 0.0   # sin vanishes at the coarse nodes at the Nyquist frequency
    # xi_k (x_j + L) = 2 pi k j / N, reduced exactly modulo 2 pi
    phase = 2.0 * np.pi * (np.outer(k, np.arange(g.size)) % g.size) / g.size
    return a @ np.cos(phase) + b @ np.sin(phase)


@pytest.mark.parametrize("factor", [2, 4, 16])
def test_zero_pad_reproduces_band_limited_fields(factor):
    coarse = Grid(20.0, 256)
    fine = Grid(20.0, 256 * factor)
    padded = zero_pad(coarse, _band_limited(coarse, 256), fine)
    assert np.abs(padded - _band_limited(fine, 256)).max() < 1e-13


def test_zero_pad_preserves_the_integral():
    coarse, fine = Grid(30.0, 1024), Grid(30.0, 4096)
    f = sech(coarse.x) ** 2 + 0.1 * np.cos(np.pi * coarse.x / 3.0)
    assert integrate(fine, zero_pad(coarse, f, fine)) == pytest.approx(
        integrate(coarse, f), rel=1e-14)


def test_zero_pad_by_a_factor_of_one_is_the_identity():
    g = Grid(30.0, 1024)
    f = sech(g.x)
    padded = zero_pad(g, f, Grid(30.0, 1024))
    assert np.array_equal(padded, f) and padded is not f


@pytest.mark.parametrize("fine", [Grid(40.0, 2048), Grid(30.0, 512)])
def test_zero_pad_refuses_another_domain_or_fewer_nodes(fine):
    g = Grid(30.0, 1024)
    with pytest.raises(ValueError, match="same domain"):
        zero_pad(g, sech(g.x), fine)


@pytest.mark.parametrize("factor", [1, 4, 16])
def test_zero_extend_aligns_the_nodes_and_fills_with_zero(factor):
    g = Grid(8.0, 256)
    wide = Grid(8.0 * factor, 256 * factor)
    f = sech(g.x)
    extended = zero_extend(g, f, wide)
    off = (wide.size - g.size) // 2
    np.testing.assert_allclose(wide.x[off:off + g.size], g.x, rtol=0, atol=1e-12)
    assert np.array_equal(extended[off:off + g.size], f)
    assert extended[wide.size // 2] == f[g.size // 2] == 1.0   # x = 0 on both
    assert not extended[:off].any() and not extended[off + g.size:].any()
    assert extended is not f
    # a stack of fields is extended row by row
    rows = zero_extend(g, np.stack([f, 2.0 * f]), wide)
    assert np.array_equal(rows, np.stack([extended, 2.0 * extended]))


@pytest.mark.parametrize("wide", [Grid(32.0, 2048), Grid(4.0, 128)])
def test_zero_extend_refuses_another_spacing_or_fewer_nodes(wide):
    g = Grid(8.0, 256)
    with pytest.raises(ValueError, match="same spacing"):
        zero_extend(g, sech(g.x), wide)
