"""Periodic pseudospectral toolbox: grid, differentiation, convolution, quadrature.

All fields live on a uniform grid over [-L, L) with a power-of-two number of
nodes.  Functions are plain real numpy arrays of length ``grid.size``, so
every Fourier multiplier is a real transform pair on the N/2 + 1
nonnegative frequencies (the half lattice): the negative frequencies of real
data are the complex conjugates of the positive ones.  The multipliers and
the quadrature act on the last axis, so a stack of fields, one per row, goes
through the same code as a single field.  Symbols are given on
that half lattice and evaluated once per grid: the derivative symbols
(i xi)^k are kept by the grid, the kernel symbol W_hat by the potential.
``half_spectrum`` gives a real field N + 2 real coordinates on the half
lattice with the samples' dot product, the space the Krylov solves run in;
``spectrum`` and ``from_spectrum`` are the plain transform pair, for callers
that keep a field's spectrum beside it, and ``spectral_density_integral`` is
the one Parseval sum over such spectra.  ``zero_pad`` carries a field to
more nodes of the same domain, ``zero_extend`` one that decays to 0 onto a
wider domain at the same spacing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TAIL_FRACTION = 0.05   # share of nodes on each side that tail_magnitude reads
LATTICE_MAX = sys.float_info.max ** 0.25   # largest frequency whose xi^4 is finite


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of [-L, L) with its frequency lattices.

    Nodes are x_j = -L + 2 L j / N.  ``xi`` holds the full lattice
    xi_k = pi k / L, k = -N/2 .. N/2-1, in FFT order; ``xi_half`` holds its
    N/2 + 1 nonnegative values k = 0 .. N/2, the lattice of the real
    transforms, with the same |xi| values.  Two grids are equal when L and N
    are; quantities cached on a grid live as long as it does.
    """

    half_length: float
    size: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)
    xi_half: np.ndarray = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L, N = self.half_length, self.size
        if not 0.0 < L < math.inf:    # written so that NaN fails it
            raise ConfigError(f"grid half-length must be finite and positive, got {L}")
        if N < 4 or (N & (N - 1)) != 0:
            raise ConfigError(f"grid size must be a power of two >= 4, got {N}")
        # N floats outsize any array (sys.maxsize bytes), and 2L / N overflows from N = 2^1024
        if N > sys.maxsize // 8:
            raise ConfigError(f"grid size {N} is too large to allocate")
        h = 2.0 * L / N
        # the nodes are spaced h apart and the lattice reaches pi / h, whose
        # fourth power is the largest derivative symbol
        if not (0.0 < h < math.inf and math.pi / h < LATTICE_MAX):
            raise ConfigError(f"grid spacing 2L/N = {h!r} must be finite and positive, "
                              f"and pi / (2L/N) below {LATTICE_MAX:.3g} (L = {L!r}, N = {N})")
        try:
            object.__setattr__(self, "x", -L + h * np.arange(N))
            object.__setattr__(self, "xi", 2.0 * np.pi * np.fft.fftfreq(N, d=h))
            object.__setattr__(self, "xi_half", 2.0 * np.pi * np.fft.rfftfreq(N, d=h))
        except (MemoryError, ValueError) as exc:   # numpy's "array is too big"
            raise ConfigError(f"grid size {N} is too large to allocate") from exc
        object.__setattr__(self, "_memo", {})

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.size

    def cached(self, key, make):
        """The array make(self), computed on first use and kept read-only for
        the life of the grid.  Concurrent first uses may both compute it;
        they store equal values."""
        memo = self._memo
        if key not in memo:
            value = make(self)
            value.flags.writeable = False
            memo[key] = value
        return memo[key]

    @property
    def hermitian_weights(self) -> np.ndarray:
        """Multiplicity of each half-lattice frequency in the full lattice:
        1 at xi = 0 and at the Nyquist frequency, 2 (for +-xi) in between."""
        def make(g):
            w = np.full(g.xi_half.size, 2.0)
            w[0] = w[-1] = 1.0
            return w
        return self.cached("hermitian_weights", make)

    @property
    def xi_half_squared(self) -> np.ndarray:
        """xi^2 on the half lattice: -d^2/dx^2 as a multiplier."""
        return self.cached("xi_half_squared", lambda g: g.xi_half ** 2)

    @property
    def coordinate_scale(self) -> np.ndarray:
        """sqrt(hermitian_weights / N): the factor on the rfft coefficients
        that turns them into the isometric coordinates of ``half_spectrum``."""
        return self.cached("coordinate_scale",
                           lambda g: np.sqrt(g.hermitian_weights / g.size))

    def refined(self) -> "Grid":
        """Domain doubled at fixed spacing."""
        return Grid(2.0 * self.half_length, 2 * self.size)

    def reflect(self, f: np.ndarray) -> np.ndarray:
        """Samples of x -> f(-x); the node -L is its own periodic mirror."""
        return f[np.r_[0, self.size - 1:0:-1]]


def apply_symbol(f: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Fourier multiplier on real data: irfft(symbol * rfft(f)).

    ``symbol`` holds the multiplier on the half lattice (``grid.xi_half``).
    Its values at -xi are taken to be the complex conjugates of those at xi,
    as for an even real symbol or for (i xi)^k, so the result is real; an
    imaginary part at the Nyquist frequency is dropped by the inverse
    transform.
    """
    fh = np.fft.rfft(f)
    fh *= symbol
    return np.fft.irfft(fh, n=f.shape[-1])


def spectrum(f: np.ndarray) -> np.ndarray:
    """rfft(f): the coefficients of real data on the half lattice, per row
    for a stack."""
    return np.fft.rfft(f)


def from_spectrum(grid: Grid, fh: np.ndarray) -> np.ndarray:
    """The real field, or stack of fields, whose half-lattice coefficients
    are fh: irfft(fh)."""
    return np.fft.irfft(fh, n=grid.size)


def half_spectrum(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Real coordinates of a real field on the half lattice: rfft(f) scaled
    by ``grid.coordinate_scale`` and viewed as N + 2 floats, the real and
    imaginary part of each frequency in turn.

    By Parseval their Euclidean dot product is sum_j f_j g_j, that of the
    samples.  The imaginary parts at xi = 0 and at the Nyquist frequency are
    zero.
    """
    fh = np.fft.rfft(f)
    fh *= grid.coordinate_scale
    return fh.view(float)


def from_half_spectrum(grid: Grid, y: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """The multiplier ``symbol`` applied to the field whose coordinates
    (``half_spectrum``) are y: irfft(symbol * rfft(f)) for y = half_spectrum(f)."""
    return np.fft.irfft(y.view(complex) * (symbol / grid.coordinate_scale),
                        n=grid.size)


def zero_pad(grid: Grid, f: np.ndarray, fine: Grid) -> np.ndarray:
    """f, sampled on ``grid``, carried to ``fine``: the same domain at a
    power-of-two multiple of the nodes.  Its rfft is zero-padded, so f's
    trigonometric interpolant is sampled at the new nodes.

    The coarse Nyquist mode stands for +-xi together; on the finer lattice
    they are two frequencies, so its coefficient is halved.  The rfft is
    rescaled by m/n, which keeps ``integrate``.  Padding to ``grid`` itself
    returns a copy of f.
    """
    n, m = grid.size, fine.size
    if fine.half_length != grid.half_length or m < n:
        raise ValueError(f"zero_pad carries a field to more nodes on the same "
                         f"domain, not from {grid} to {fine}")
    if m == n:
        return np.array(f, dtype=float)
    fh = np.fft.rfft(f)
    fh[..., -1] *= 0.5
    fh *= m / n
    return np.fft.irfft(fh, n=m)


def zero_extend(grid: Grid, f: np.ndarray, wide: Grid) -> np.ndarray:
    """f, sampled on ``grid`` and decaying to 0, carried to ``wide``: a
    domain a power-of-two multiple as long at the same spacing, filled with
    0 outside grid's.  Node N/2 is x = 0 on both grids, so the copy is an
    index offset.  Extending to ``grid`` itself returns a copy of f.
    """
    n, m = grid.size, wide.size
    if wide.spacing != grid.spacing or m < n:
        raise ValueError(f"zero_extend carries a field to a wider domain at the "
                         f"same spacing, not from {grid} to {wide}")
    out = np.zeros(np.shape(f)[:-1] + (m,))
    out[..., (m - n) // 2:(m + n) // 2] = f
    return out


def _derivative_symbol(grid: Grid, k: int) -> np.ndarray:
    s = (1j * grid.xi_half) ** k
    if k % 2 == 0:
        return s.real
    s[-1] = 0.0   # the odd derivative of the Nyquist mode vanishes at the nodes
    return s


def derivative_symbol(grid: Grid, k: int) -> np.ndarray:
    """(i xi)^k on the half lattice, evaluated once per grid: the k-th
    derivative of a field whose spectrum is fh is
    ``from_spectrum(grid, derivative_symbol(grid, k) * fh)``."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be in 1..4, got {k}")
    return grid.cached(("derivative", k), lambda g: _derivative_symbol(g, k))


def derivative(grid: Grid, f: np.ndarray, k: int = 1) -> np.ndarray:
    """k-th spectral derivative; exact for band-limited f."""
    return apply_symbol(f, derivative_symbol(grid, k))


def integrate(grid: Grid, f: np.ndarray) -> float | complex | np.ndarray:
    """h * sum(f): the trapezoid rule, spectrally accurate on periodic data.

    Sums over the last axis, so a stack of fields gives one value per row.
    """
    s = grid.spacing * np.sum(f, axis=-1)
    return s.real if np.isrealobj(f) else s


def per_row(x):
    """A reduction over the last axis: a Python scalar for one field, the
    array of row values for a stack."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def convolve(spec, grid: Grid, f: np.ndarray) -> np.ndarray:
    """Periodized W * f: the multiplier W_hat on the half lattice.

    ``spec`` is anything with a ``lattice_symbol(grid)`` method (a
    potential), which returns W_hat on ``grid.xi_half`` and evaluates it once
    per grid.
    """
    return apply_symbol(f, spec.lattice_symbol(grid))


def spectral_density_integral(grid: Grid, weights: np.ndarray, fh: np.ndarray,
                              gh: np.ndarray | None = None) -> float | np.ndarray:
    """(1/2pi) * int weights(xi) Re(f_hat(xi) conj(g_hat(xi))) d(xi) on the
    frequency lattice, for half-lattice coefficients fh = ``spectrum(f)``
    and gh = ``spectrum(g)``, with g = f when gh is omitted.

    ``weights`` is an even weight given on the half lattice; each interior
    frequency counts for itself and its mirror image, so the sum is
    (h/N) sum hermitian_weights * weights * Re(fh conj(gh)).  With weights = 1
    it is int f g (Parseval), with W_hat it is int (W*f) g.  Sums over the
    last axis: a Python float for one field, one value per row for a stack.

    The density is formed as re re + im im in one temporary (np.square for
    g = f: the same bits, faster on the strided real view), scaled in place
    by the weights and summed by numpy's pairwise sum, which treats each row
    alike: a stack's row values equal those of each row alone to the bit.
    A BLAS product would break that; einsum's single running sum keeps it
    but is about ten times less accurate.
    """
    if gh is None:
        density = np.square(fh.real)
        density += np.square(fh.imag)
    else:
        density = fh.real * gh.real
        density += fh.imag * gh.imag
    density *= weights * grid.hermitian_weights
    return per_row(np.sum(density, axis=-1) * (grid.spacing / grid.size))


def cumulative_integral(grid: Grid, g: np.ndarray) -> np.ndarray:
    """Antiderivative G of g with G(0) = 0, by spectral quadrature.

    The mean of g produces a linear (non-periodic) part; the rest is
    integrated by dividing by i xi.  The origin is node N/2, where
    x = -L + (2L/N)(N/2) is exactly 0.0 for a power-of-two N.
    """
    gh = np.fft.rfft(g)
    mean = gh[0].real / grid.size
    coef = np.zeros_like(gh)
    coef[1:] = gh[1:] / (1j * grid.xi_half[1:])
    G = np.fft.irfft(coef, n=grid.size) + mean * (grid.x + grid.half_length)
    return G - G[grid.size // 2]


def tail_magnitude(grid: Grid, f: np.ndarray) -> float:
    """max |f| over the outermost TAIL_FRACTION of nodes on each side."""
    n = max(1, int(TAIL_FRACTION * grid.size))
    return float(max(np.abs(f[:n]).max(), np.abs(f[-n:]).max()))


def sech(z):
    """Overflow-safe hyperbolic secant."""
    a = np.abs(z)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)

