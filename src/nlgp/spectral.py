"""Periodic pseudospectral toolbox: grid, differentiation, convolution, quadrature.

All fields live on a uniform grid over [-L, L) with a power-of-two number of
nodes, so every operation is a couple of FFTs.  Functions are plain numpy
arrays of length ``grid.size``; the grid object carries the nodes and the
frequency lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of [-L, L) with its frequency lattice.

    Nodes are x_j = -L + 2 L j / N and frequencies xi_k = pi k / L for
    k = -N/2 .. N/2-1 (stored in FFT order).
    """

    half_length: float
    size: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L, N = self.half_length, self.size
        if not (L > 0):
            raise ConfigError(f"grid half-length must be positive, got {L}")
        if N < 4 or (N & (N - 1)) != 0:
            raise ConfigError(f"grid size must be a power of two >= 4, got {N}")
        h = 2.0 * L / N
        object.__setattr__(self, "x", -L + h * np.arange(N))
        object.__setattr__(self, "xi", 2.0 * np.pi * np.fft.fftfreq(N, d=h))

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.size

    def refined(self) -> "Grid":
        """Domain doubled at fixed spacing."""
        return Grid(2.0 * self.half_length, 2 * self.size)

    def reflect(self, f: np.ndarray) -> np.ndarray:
        """Samples of x -> f(-x); the node -L is its own periodic mirror."""
        return f[np.r_[0, self.size - 1:0:-1]]


def apply_symbol(f: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Fourier multiplier: inverse transform of symbol(xi_k) * f_hat(xi_k).

    ``symbol`` holds the multiplier's values on the lattice in FFT order
    (``grid.xi``); a real f gives a real result.
    """
    out = np.fft.ifft(symbol * np.fft.fft(f))
    return out.real if np.isrealobj(f) else out


def derivative(grid: Grid, f: np.ndarray, k: int = 1) -> np.ndarray:
    """k-th spectral derivative; exact for band-limited f."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be in 1..4, got {k}")
    return apply_symbol(f, (1j * grid.xi) ** k)


def integrate(grid: Grid, f: np.ndarray) -> float | complex:
    """h * sum(f): the trapezoid rule, spectrally accurate on periodic data."""
    s = grid.spacing * np.sum(f)
    return s.real if np.isrealobj(f) else s


def convolve(spec, grid: Grid, f: np.ndarray) -> np.ndarray:
    """Periodized W * f as the inverse transform of W_hat(xi_k) * f_hat(xi_k).

    ``spec`` is anything with a vectorized ``symbol`` method (a potential).
    """
    return apply_symbol(f, spec.symbol(grid.xi))


def continuous_hat(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Samples of the line Fourier transform int e^{-i x xi} f(x) dx at xi_k.

    Returned in FFT order (matching ``grid.xi``).  The (-1)^k phase accounts
    for the grid starting at -L rather than 0.
    """
    N = grid.size
    signs = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
    return grid.spacing * signs * np.fft.fft(f)


def spectral_density_integral(grid: Grid, weights: np.ndarray, f: np.ndarray) -> float:
    """(1/2pi) * int weights(xi) |f_hat(xi)|^2 d(xi) on the frequency lattice."""
    fh2 = np.abs(continuous_hat(grid, f)) ** 2
    dxi = np.pi / grid.half_length
    return float(np.sum(weights * fh2) * dxi / (2.0 * np.pi))


def cumulative_integral(grid: Grid, g: np.ndarray, anchor: float = 0.0) -> np.ndarray:
    """Antiderivative G of g with G(anchor) = 0, by spectral quadrature.

    The mean of g produces a linear (non-periodic) part; the rest is
    integrated by dividing by i xi.  The value at the anchor is evaluated by
    summing the Fourier series there, so the anchor need not be a node.
    """
    gh = np.fft.fft(g)
    mean = gh[0].real / grid.size
    coef = np.zeros_like(gh, dtype=complex)
    coef[1:] = gh[1:] / (1j * grid.xi[1:])
    periodic = np.fft.ifft(coef).real
    G = periodic + mean * (grid.x + grid.half_length)
    G_anchor = _eval_series(grid, coef, anchor) + mean * (anchor + grid.half_length)
    return G - G_anchor


def _eval_series(grid: Grid, coef: np.ndarray, a: float) -> float:
    """Evaluate (1/N) sum_k coef_k exp(i xi_k (a + L)) at an arbitrary point."""
    phase = np.exp(1j * grid.xi * (a + grid.half_length))
    return float(np.sum(coef * phase).real / grid.size)


def tail_magnitude(grid: Grid, f: np.ndarray, fraction: float = 0.05) -> float:
    """max |f| over the outermost ``fraction`` of nodes on each side."""
    n = max(1, int(fraction * grid.size))
    return float(max(np.abs(f[:n]).max(), np.abs(f[-n:]).max()))


def sech(z):
    """Overflow-safe hyperbolic secant."""
    a = np.abs(z)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)

