"""Interaction-kernel catalog defined through Fourier symbols.

Every potential is specified by its (even, bounded) symbol W_hat; the solver
never needs the physical-space kernel.  This module also certifies the
quadratic lower bound W_hat >= sigma - kappa xi^2, the one-sided derivative
bound W_hat' >= -m xi, the Bogoliubov dispersion curve with its maxon/roton
critical points, and the multiplier M_c(xi) = xi^2 + 2 W_hat(xi) - c^2 whose
inverse kernel controls the far-field decay of solitons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (CertificationError, NoSoundSpeedError, OutOfRangeError,
                     SupersonicMultiplierError)
from .spectral import Grid

POSITIVITY_TOL = 1e-12
CERT_LINEAR_SAMPLES = 8192   # certification lattice: dense part on [0, 8 c*]
CERT_TAIL_SAMPLES = 2048     # and logarithmic part out to 10^3 c*
KAPPA_STEP = 0.01            # kappa sweep of the quadratic-bound certificate
KAPPA_TOL = 1e-9             # relative sigma slack of the smallest kappa
H3_CROSS_CHECK_TOL = 1e-12   # slack of the implied bound W_hat >= 1 - m xi^2/2
STRIP_W_MAX = 4.0            # strip search box [0, 4 c*] x (0, STRIP_W_MAX]
STRIP_NXI = 1024             # samples along the real axis
STRIP_NW = 256               # samples along the imaginary axis


@dataclass(frozen=True)
class MeasureDecomposition:
    """Data of a kernel of the form A (delta_0 + mu): variations of mu and A."""

    mu_plus: float
    mu_minus: float
    amplitude: float

    @property
    def b0(self) -> float:
        """Amplitude bound constant 1 + |mu+| / (1 - |mu-|)."""
        return 1.0 + self.mu_plus / (1.0 - self.mu_minus)

    @property
    def b1(self) -> float:
        """Derivative bound constant B0^(1/2) (1 + 2 sqrt(2) B0^(1/2))."""
        b0 = self.b0
        return math.sqrt(b0) * (1.0 + 2.0 * math.sqrt(2.0) * math.sqrt(b0))


@dataclass(frozen=True)
class PotentialSpec:
    """An interaction kernel, defined primarily by its Fourier symbol: the
    symbol and its derivative on |xi|, whether the symbol also takes complex
    xi (``analytic``), the |xi| of its kink (``kink``, which makes the tail
    algebraic), and the notes its certificate carries."""

    kind: str
    params: dict
    _symbol: Callable[[np.ndarray], np.ndarray]
    _deriv: Callable[[np.ndarray], np.ndarray]
    analytic: bool = False
    kink: Optional[float] = None
    notes: tuple = ()
    measure_decomposition: Optional[MeasureDecomposition] = None
    d2_at_zero: Optional[float] = None
    total_variation: Optional[float] = None
    h2_class: str = "W2inf"  # {"W2inf", "XiDerivBounded", "Fails"}
    table: Optional[tuple] = field(default=None, repr=False, compare=False)
    _lattice: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def symbol(self, xi):
        """W_hat evaluated at xi; evenness is enforced exactly."""
        return self._symbol(np.abs(np.asarray(xi, dtype=float)))

    def lattice_symbol(self, grid: Grid) -> np.ndarray:
        """W_hat on the grid's half lattice ``grid.xi_half``.

        Evaluated once per grid and kept as long as this spec lives; grids
        are told apart by (L, N), so equal sizes with different L never
        share an entry.  The returned array is read-only.
        """
        w = self._lattice.get(grid)
        if w is None:
            w = self._lattice[grid] = self.symbol(grid.xi_half)
            w.flags.writeable = False
        return w

    def symbol_deriv(self, xi):
        """(W_hat)' at xi; odd by evenness of the symbol."""
        xi = np.asarray(xi, dtype=float)
        return np.sign(xi) * self._deriv(np.abs(xi))

    def xi_symbol_deriv(self, xi):
        """xi * (W_hat)'(xi) with the limit value 0 at xi = 0."""
        xi = np.asarray(xi, dtype=float)
        out = np.abs(xi) * self._deriv(np.abs(xi))
        return np.where(xi == 0.0, 0.0, out)

    @property
    def algebraic_tail(self) -> bool:
        """True for a symbol with a kink, whose solitons decay algebraically."""
        return self.kink is not None

    def complex_symbol(self, z):
        """W_hat at complex z, for an analytic symbol."""
        if not self.analytic:
            raise ValueError(f"{self.kind}: no analytic extension available")
        return self._symbol(np.asarray(z, dtype=complex))

    def label(self) -> str:
        if not self.params:
            return self.kind
        inner = ", ".join(f"{k}={_format_param(v)}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


def _format_param(v) -> str:
    """A scalar as ``%g``; a sequence (measure_combo weights) as ``[a, b]``."""
    if isinstance(v, tuple):
        return "[" + ", ".join(f"{x:g}" for x in v) + "]"
    return f"{v:g}"


# ---------------------------------------------------------------------------
# catalog constructors


def delta() -> PotentialSpec:
    """Contact interaction: W_hat = 1."""
    return PotentialSpec(
        kind="delta", params={}, _symbol=lambda xi: np.ones_like(xi),
        _deriv=lambda xi: np.zeros_like(xi), analytic=True,
        measure_decomposition=MeasureDecomposition(0.0, 0.0, 1.0),
        d2_at_zero=0.0, total_variation=1.0)


def exp_repulsive(alpha: float, beta: float) -> PotentialSpec:
    """Contact repulsion plus exponential attraction; requires beta > 2 alpha > 0.

    W_hat(xi) = beta/(beta - 2 alpha) * (1 - 2 alpha beta / (xi^2 + beta^2)).
    """
    if not (beta > 2 * alpha > 0):
        raise ValueError("exp_repulsive requires beta > 2*alpha > 0")
    A = beta / (beta - 2 * alpha)

    def sym(xi):
        return A * (1.0 - 2.0 * alpha * beta / (xi ** 2 + beta ** 2))

    def der(xi):
        return A * 4.0 * alpha * beta * xi / (xi ** 2 + beta ** 2) ** 2

    return PotentialSpec(
        kind="exp_repulsive", params={"alpha": alpha, "beta": beta},
        _symbol=sym, _deriv=der, analytic=True,
        measure_decomposition=MeasureDecomposition(0.0, 2.0 * alpha / beta, A),
        d2_at_zero=4.0 * alpha / (beta ** 2 * (beta - 2 * alpha)),
        total_variation=(beta + 2 * alpha) / (beta - 2 * alpha))


def shifted_deltas(lam: float) -> PotentialSpec:
    """Contact repulsion with attractive deltas at +-lam: W_hat = 2 - cos(lam xi)."""
    if lam <= 0:
        raise ValueError("shifted_deltas requires lam > 0")
    sym = lambda xi: 2.0 - np.cos(lam * xi)
    return PotentialSpec(
        kind="shifted_deltas", params={"lam": lam}, _symbol=sym,
        _deriv=lambda xi: lam * np.sin(lam * xi), analytic=True,
        measure_decomposition=MeasureDecomposition(0.0, 0.5, 2.0),
        d2_at_zero=lam ** 2, total_variation=3.0)


def gaussian(lam: float) -> PotentialSpec:
    """Gaussian kernel: W_hat(xi) = exp(-lam xi^2)."""
    if lam <= 0:
        raise ValueError("gaussian requires lam > 0")
    sym = lambda xi: np.exp(-lam * xi ** 2)
    return PotentialSpec(
        kind="gaussian", params={"lam": lam}, _symbol=sym,
        _deriv=lambda xi: -2.0 * lam * xi * sym(xi), analytic=True,
        d2_at_zero=-2.0 * lam, total_variation=1.0)


def soft_core(lam: float) -> PotentialSpec:
    """Top-hat kernel of width 2 lam: W_hat(xi) = sin(lam xi)/(lam xi)."""
    if lam <= 0:
        raise ValueError("soft_core requires lam > 0")

    def sym(xi):
        return np.sinc(lam * xi / np.pi)

    def der(xi):
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (np.cos(lam * xi) - sym(xi)) / xi
        return np.where(xi == 0.0, 0.0, out)

    return PotentialSpec(
        kind="soft_core", params={"lam": lam}, _symbol=sym, _deriv=der, analytic=True,
        notes=("soft_core: sweep yields kappa = lam^2/6 = "
               f"{lam ** 2 / 6:.6f} (so kappa < 1/2 iff lam < sqrt(3)); an often-"
               "quoted value lam^2/3 is the derivative bound m, not kappa",),
        d2_at_zero=-lam ** 2 / 3.0, total_variation=1.0)


def bochner_riesz(kappa: float) -> PotentialSpec:
    """Truncated parabola W_hat(xi) = (1 - kappa xi^2)^+, kappa in (0, 1/2]."""
    if not (0 < kappa <= 0.5):
        raise ValueError("bochner_riesz requires kappa in (0, 1/2]")

    def der(xi):
        return np.where(kappa * xi ** 2 < 1.0, -2.0 * kappa * xi, 0.0)

    return PotentialSpec(
        kind="bochner_riesz", params={"kappa": kappa},
        _symbol=lambda xi: np.maximum(1.0 - kappa * xi ** 2, 0.0),
        _deriv=der, kink=1.0 / math.sqrt(kappa), d2_at_zero=-2.0 * kappa,
        h2_class="XiDerivBounded")


def berloff(a: float, b: float, lam: float) -> PotentialSpec:
    """Polynomial-Gaussian symbol with maxon/roton dispersion.

    W_hat(xi) = (1 + a xi^2 + b xi^4) exp(-lam xi^2).
    """

    def sym(xi):
        x2 = xi ** 2
        return (1.0 + a * x2 + b * x2 ** 2) * np.exp(-lam * x2)

    def der(xi):
        return (2 * a * xi + 4 * b * xi ** 3) * np.exp(-lam * xi ** 2) - 2 * lam * xi * sym(xi)

    return PotentialSpec(
        kind="berloff", params={"a": a, "b": b, "lam": lam},
        _symbol=sym, _deriv=der, analytic=True,
        d2_at_zero=2.0 * (a - lam))


def measure_combo(weights, shifts) -> PotentialSpec:
    """Normalized atomic kernel A (delta_0 + mu), mu = sum_j w_j (delta_{s_j} + delta_{-s_j})/2.

    A shift of zero contributes w_j delta_0.  Requires |mu^-| < 1 and
    1 + mu_hat(0) > 0 so that the normalization A = 1/(1 + mu_hat(0)) exists.
    """
    w = np.asarray(weights, dtype=float)
    s = np.abs(np.asarray(shifts, dtype=float))
    if w.shape != s.shape or w.ndim != 1 or len(w) == 0:
        raise ValueError("weights and shifts must be equal-length 1-d sequences")
    mu_hat0 = float(np.sum(w))
    mu_minus = float(np.sum(-w[w < 0]))
    mu_plus = float(np.sum(w[w > 0]))
    if mu_minus >= 1.0:
        raise ValueError(f"negative variation must satisfy |mu^-| < 1, got {mu_minus}")
    if 1.0 + mu_hat0 <= 0.0:
        raise ValueError("1 + mu_hat(0) must be positive")
    A = 1.0 / (1.0 + mu_hat0)

    def sym(xi):
        acc = np.ones_like(xi)
        for wj, sj in zip(w, s):
            acc = acc + wj * np.cos(sj * xi)
        return A * acc

    def der(xi):
        acc = np.zeros_like(xi)
        for wj, sj in zip(w, s):
            acc = acc - wj * sj * np.sin(sj * xi)
        return A * acc

    return PotentialSpec(
        kind="measure_combo",
        params={"weights": tuple(w.tolist()), "shifts": tuple(s.tolist())},
        _symbol=sym, _deriv=der, analytic=True,
        measure_decomposition=MeasureDecomposition(mu_plus, mu_minus, A),
        d2_at_zero=float(-A * np.sum(w * s ** 2)),
        total_variation=float(A * (1.0 + np.sum(np.abs(w)))))


def tabulated(xi_samples, w_samples) -> PotentialSpec:
    """Symbol given by samples of an even W_hat, interpolated by a cubic spline.

    A table listing both signs of xi is read from its xi >= 0 half.  The
    spline is C^2 and clamped at W_hat'(0) = 0, and the symbol derivative is
    its exact derivative.  A table without xi = 0 is fitted through its even
    extension, whose slope at 0 vanishes by symmetry.  ``table`` keeps the
    (|xi|, W_hat) samples in increasing order.
    """
    from scipy.interpolate import CubicSpline  # ~0.27 s: imported only here

    xs = np.asarray(xi_samples, dtype=float)
    ws = np.asarray(w_samples, dtype=float)
    if xs.ndim != 1 or xs.shape != ws.shape:
        raise ValueError("tabulated symbol needs two equal-length 1-d arrays")
    if np.any(xs > 0.0):
        keep = ~np.signbit(xs)
        xs, ws = xs[keep], ws[keep]
    order = np.argsort(np.abs(xs))
    xs, ws = np.abs(xs[order]), ws[order]
    if len(xs) < 2:
        raise ValueError("tabulated symbol needs at least two samples of |xi|")
    xmax = xs[-1]
    if xs[0] == 0.0:
        spline = CubicSpline(xs, ws, bc_type=((1, 0.0), "not-a-knot"))
    else:
        spline = CubicSpline(np.concatenate([-xs[::-1], xs]),
                             np.concatenate([ws[::-1], ws]))
    slope = spline.derivative()

    def in_range(xi):
        if np.any(xi > xmax + 1e-12):
            raise OutOfRangeError(
                f"tabulated symbol table reaches |xi| = {xmax:g}, but this run "
                f"needs it up to |xi| = {np.max(xi):g}")
        return xi

    for a in (xs, ws):
        a.flags.writeable = False
    return PotentialSpec(kind="tabulated",
                         params={"n_samples": len(xs), "xi_max": float(xmax)},
                         _symbol=lambda xi: spline(in_range(xi)),
                         _deriv=lambda xi: slope(in_range(xi)),
                         h2_class="XiDerivBounded", table=(xs, ws))


def tabulated_from_csv(path) -> PotentialSpec:
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("need two columns xi, W_hat")
    return tabulated(data[:, 0], data[:, 1])


CATALOG = {
    "delta": delta,
    "exp_repulsive": exp_repulsive,
    "shifted_deltas": shifted_deltas,
    "gaussian": gaussian,
    "soft_core": soft_core,
    "bochner_riesz": bochner_riesz,
    "berloff": berloff,
    "measure_combo": measure_combo,
    "tabulated": tabulated,
}


def make_potential(kind: str, **params) -> PotentialSpec:
    if kind not in CATALOG:
        raise ValueError(f"unknown potential kind {kind!r}; choose from {sorted(CATALOG)}")
    return CATALOG[kind](**params)


# ---------------------------------------------------------------------------
# sound speed, certificates


def bisect(keeps_lo, lo: float, hi: float, steps: int):
    """(lo, hi) after ``steps`` halvings, each midpoint replacing lo where
    keeps_lo(midpoint) holds and hi elsewhere."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if keeps_lo(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def sound_speed(spec: PotentialSpec) -> float:
    """c_* = sqrt(2 W_hat(0)), the conjectured supremum of soliton speeds."""
    w0 = float(spec.symbol(0.0))
    if w0 <= 0.0:
        raise NoSoundSpeedError(f"W_hat(0) = {w0:g} <= 0: subsonic regime empty")
    return math.sqrt(2.0 * w0)


def certification_lattice(spec: PotentialSpec) -> np.ndarray:
    """Default sample lattice: dense on [0, 8 c*], logarithmic out to 10^3 c*."""
    cs = sound_speed(spec)
    lin = np.linspace(0.0, 8.0 * cs, CERT_LINEAR_SAMPLES)
    tail = np.geomspace(8.0 * cs, 1e3 * cs, CERT_TAIL_SAMPLES)[1:]
    return np.concatenate([lin, tail])


@dataclass(frozen=True)
class HypothesisCertificate:
    """Sampled certificate of the kernel hypotheses.

    Sampling on a lattice cannot prove almost-everywhere inequalities; every
    field here is a *sampled* statement, and consumers treat it as such.
    """

    sigma: float
    kappa: float
    sound_speed: float
    normalized: bool
    critical_sigma: Optional[float] = None  # kappa = 1/2 route for W_hat >= 0
    m: Optional[float] = None               # derivative bound, None if uncertified
    h3_full: bool = False                   # m < 1 together with W_hat >= 0, W_hat(0) = 1
    h2_class: str = "W2inf"
    h4_norm: Optional[float] = None
    sampled: bool = True
    notes: tuple = ()

    @property
    def certified_speed(self) -> float:
        """Upper end of the certified subsonic interval, sqrt(2 sigma_best)."""
        return math.sqrt(2.0 * self.sigma_best)

    @property
    def sigma_best(self) -> float:
        if self.critical_sigma is not None:
            return max(self.sigma, self.critical_sigma)
        return self.sigma


def certify_h1(spec: PotentialSpec, lattice: Optional[np.ndarray] = None):
    """Largest sampled sigma with the smallest kappa realizing it.

    sigma(kappa) = min over the lattice of W_hat + kappa xi^2 is nondecreasing
    in kappa; the sweep runs kappa over {0, KAPPA_STEP, ..., 1/2 - KAPPA_STEP},
    takes the best sigma, and bisects for the smallest kappa attaining it
    (within KAPPA_TOL).
    When the symbol is nonnegative the critical case kappa = 1/2 is recorded
    separately.  Raises CertificationError when no positive sigma exists.
    """
    if lattice is None:
        lattice = certification_lattice(spec)
    wl = spec.symbol(lattice)
    lat2 = lattice ** 2

    def sigma_of(kappa):
        return float(np.min(wl + kappa * lat2))

    kappas = np.arange(0.0, 0.5, KAPPA_STEP)
    sigmas = np.array([sigma_of(k) for k in kappas])
    best = sigmas.max()
    if best <= POSITIVITY_TOL:
        raise CertificationError(
            f"{spec.label()}: no sampled sigma > 0 for kappa < 1/2")
    target = best - KAPPA_TOL * max(1.0, abs(best))
    i_first = int(np.argmax(sigmas >= target))
    if i_first == 0:
        kappa_star = 0.0
    else:
        _, kappa_star = bisect(lambda k: sigma_of(k) < target,
                               kappas[i_first - 1], kappas[i_first], 60)
    sigma_star = sigma_of(kappa_star)

    critical = None
    if float(np.min(wl)) >= -POSITIVITY_TOL:
        sc = sigma_of(0.5)
        if sc > POSITIVITY_TOL:
            critical = sc
    return sigma_star, kappa_star, critical


def certify_h3(spec: PotentialSpec, lattice: Optional[np.ndarray] = None):
    """Smallest sampled m in [0, 1) with (W_hat)'(xi) >= -m xi for xi > 0.

    Also cross-checks the implied bound W_hat >= 1 - m xi^2 / 2 on the
    lattice.  Raises CertificationError when the required m reaches 1.
    """
    if lattice is None:
        lattice = certification_lattice(spec)
    pos = lattice[lattice > 0]
    slopes = -spec.symbol_deriv(pos) / pos
    m = max(0.0, float(slopes.max()))
    if m >= 1.0:
        raise CertificationError(
            f"{spec.label()}: derivative bound needs m = {m:g} >= 1")
    implied = spec.symbol(lattice) - (1.0 - 0.5 * m * lattice ** 2)
    if implied.min() < -H3_CROSS_CHECK_TOL * max(1.0, 0.5 * m * lattice.max() ** 2):
        raise CertificationError(
            f"{spec.label()}: implied bound W_hat >= 1 - m xi^2/2 fails on lattice")
    return m


def certify(spec: PotentialSpec) -> HypothesisCertificate:
    """Full sampled certificate: quadratic bound, derivative bound, metadata."""
    lattice = certification_lattice(spec)
    cs = sound_speed(spec)
    notes = []
    sigma, kappa, critical = certify_h1(spec, lattice)
    normalized = abs(float(spec.symbol(0.0)) - 1.0) < 1e-12
    m = None
    h3_full = False
    try:
        m = certify_h3(spec, lattice)
    except CertificationError as exc:
        notes.append(str(exc))
    else:
        nonneg = float(np.min(spec.symbol(lattice))) >= -POSITIVITY_TOL
        h3_full = nonneg and normalized
    notes += spec.notes
    return HypothesisCertificate(
        sigma=sigma, kappa=kappa, sound_speed=cs, normalized=normalized,
        critical_sigma=critical, m=m, h3_full=h3_full,
        h2_class=spec.h2_class, h4_norm=spec.total_variation,
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# dispersion


def dispersion(spec: PotentialSpec, xi):
    """Bogoliubov curve w(xi) = sqrt(xi^4 + 2 W_hat(xi) xi^2).

    A negative radicand marks an imaginary branch; those samples come back as
    NaN.
    """
    xi = np.asarray(xi, dtype=float)
    rad = xi ** 4 + 2.0 * spec.symbol(xi) * xi ** 2
    return np.sqrt(np.where(rad < 0.0, np.nan, rad))


def _dispersion_slope(spec: PotentialSpec, xi):
    """dw/dxi away from 0, via w^2 = xi^4 + 2 W_hat xi^2."""
    xi = np.asarray(xi, dtype=float)
    w = dispersion(spec, xi)
    num = 4.0 * xi ** 3 + 2.0 * spec.symbol_deriv(xi) * xi ** 2 + 4.0 * spec.symbol(xi) * xi
    return num / (2.0 * w)


def roton_maxon(spec: PotentialSpec, lattice: Optional[np.ndarray] = None):
    """Interior critical points of the dispersion curve on (0, xi_max).

    Returns a list of (xi*, w(xi*), 'max'|'min') found by sign changes of the
    discrete slope refined by bisection; empty when w is monotone.
    """
    if lattice is None:
        lattice = np.linspace(0.0, 8.0 * sound_speed(spec), 8192)
    xs = lattice[lattice > 0]
    sl = _dispersion_slope(spec, xs)
    good = np.isfinite(sl)
    xs, sl = xs[good], sl[good]
    out = []
    signs = np.sign(sl)
    for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
        lo, hi = bisect(lambda x: sl[i] * _dispersion_slope(spec, x) > 0,
                        xs[i], xs[i + 1], 80)
        xstar = 0.5 * (lo + hi)
        kind = "max" if sl[i] > 0 else "min"
        out.append((float(xstar), float(dispersion(spec, xstar)), kind))
    return out


# ---------------------------------------------------------------------------
# multiplier and its kernel


def mc_symbol(spec: PotentialSpec, c: float, xi):
    """M_c(xi) = xi^2 + 2 W_hat(xi) - c^2.

    ``xi`` is real, complex (W_hat through the kernel's analytic extension,
    as the strip search of ``decay_prediction`` needs), or a Grid, which
    stands for its half lattice with the spec's cached W_hat there.
    """
    if isinstance(xi, Grid):
        xi, w = xi.xi_half, spec.lattice_symbol(xi)
    elif np.iscomplexobj(xi):
        xi = np.asarray(xi, dtype=complex)
        w = spec.complex_symbol(xi)
    else:
        xi = np.asarray(xi, dtype=float)
        w = spec.symbol(xi)
    return xi ** 2 + 2.0 * w - c ** 2


def inverse_mc(spec: PotentialSpec, c: float, grid: Grid) -> np.ndarray:
    """1/M_c on the grid's half lattice; the one check that M_c > 0 there,
    raising SupersonicMultiplierError otherwise."""
    mc = mc_symbol(spec, c, grid)
    if np.min(mc) <= 0.0:
        raise SupersonicMultiplierError(
            f"{spec.label()}: M_c has a nonpositive value {np.min(mc):g} "
            f"on the lattice at c = {c:g}; speed outside the subsonic range")
    return 1.0 / mc


def kink_aligned_half_length(spec: PotentialSpec, target: float) -> float:
    """Half-length near ``target`` putting the symbol's kink at a frequency-cell
    midpoint.

    Spectral sums over a lattice that straddles a symbol kink converge only
    at O(1/L); centering the kink between lattice points cancels the leading
    jump term and restores O(1/L^2).  Kernels without a kink return ``target``.
    """
    if spec.kink is None:
        return target
    k = max(1, round(target * spec.kink / math.pi - 0.5))
    return (k + 0.5) * math.pi / spec.kink


def reference_cases():
    """(name, kernel, L, N) of the six reference kernels, fresh on each call.

    The truncated parabola gets a wide, kink-aligned domain: its algebraic
    tail and symbol kink limit the dilation identities to O(1/L) on a generic
    lattice, O(1/L^2) when the kink sits at a frequency-cell midpoint.  The
    other five use the default grid."""
    br = bochner_riesz(0.4)
    return (("delta", delta(), 128.0, 4096),
            ("exp_repulsive_1_3", exp_repulsive(1.0, 3.0), 128.0, 4096),
            ("shifted_deltas_0.5", shifted_deltas(0.5), 128.0, 4096),
            ("gaussian_0.3", gaussian(0.3), 128.0, 4096),
            ("soft_core_1.0", soft_core(1.0), 128.0, 4096),
            ("bochner_riesz_0.4", br, kink_aligned_half_length(br, 2048.0), 65536))


# ---------------------------------------------------------------------------
# decay prediction via strip sampling


@dataclass(frozen=True)
class DecayPrediction:
    """Predicted far-field behaviour of eta = 1 - |u|^2."""

    model: str                      # "exponential" | "algebraic" | "unknown"
    value: float = math.nan         # rate (exponential) or power supremum (algebraic)
    zero: Optional[complex] = None  # lowest multiplier zero located, if any
    censored: bool = False          # True when no zero was found inside the search box


def _strip_zeros(fz, xi_max: float, w_max: float, nxi: int, nw: int):
    """Zeros of an analytic function, real on the real axis, on
    [0, xi_max] x (0, w_max].

    Dense sampling of |f| locates candidate minima, and each positive
    minimum of f on the real axis gives one more candidate, for a zero
    closer to the axis than the first sampled row.  Candidates are polished
    by complex Newton (derivative by central differences); only those that
    polish to |f| < 1e-9 count as zeros.
    """
    xs = np.linspace(0.0, xi_max, nxi)
    ws = np.linspace(w_max / nw, w_max, nw)
    Z = xs[None, :] + 1j * ws[:, None]
    with np.errstate(all="ignore"):
        A = np.abs(fz(Z))
    A = np.where(np.isfinite(A), A, np.inf)  # poles repel, never attract
    finite = A[np.isfinite(A)]
    if finite.size == 0:
        return []
    thr = np.quantile(finite, 0.05)
    cand = []
    interior = (A[1:-1, 1:-1] <= thr)
    interior &= (A[1:-1, 1:-1] <= A[:-2, 1:-1]) & (A[1:-1, 1:-1] <= A[2:, 1:-1])
    interior &= (A[1:-1, 1:-1] <= A[1:-1, :-2]) & (A[1:-1, 1:-1] <= A[1:-1, 2:])
    for i, j in zip(*np.nonzero(interior)):
        cand.append(Z[i + 1, j + 1])
    for i in range(1, nw - 1):  # imaginary-axis column
        if A[i, 0] <= thr and A[i, 0] <= A[i - 1, 0] and A[i, 0] <= A[i + 1, 0] and A[i, 0] <= A[i, 1]:
            cand.append(Z[i, 0])
    # a positive minimum f_m of f at xi_m on the real axis has a pair of
    # zeros near xi_m +- i sqrt(2 f_m / f''), which may lie below the first
    # row.  From each sampled minimum, Newton on f' (central differences at
    # a step ~ eps^(1/4)) places xi_m, where f_m and f'' are read: a parabola
    # through the samples misreads an f_m smaller than its own error
    with np.errstate(all="ignore"):
        fr = fz(xs + 0j).real
    lo, mid, hi = fr[:-2], fr[1:-1], fr[2:]
    for i in np.nonzero((mid <= lo) & (mid <= hi) & (lo - 2.0 * mid + hi > 0))[0]:
        x = xs[i + 1]
        for _ in range(20):
            d = 1e-4 * (1.0 + abs(x))
            fm, fl, fh = fz(x + np.array([0.0, -d, d]) + 0j).real
            curv = (fl - 2.0 * fm + fh) / d ** 2
            if not curv > 0:
                break
            dx = (fh - fl) / (2.0 * d * curv)
            x -= dx
            if abs(dx) < 1e-12 * (1.0 + abs(x)):
                break
        if fm > 0 and curv > 0:
            cand.append(x + 1j * math.sqrt(2.0 * fm / curv))
    zeros = []
    for z0 in cand:
        z = complex(z0)
        for _ in range(100):
            f = complex(fz(np.array(z)))
            h = 1e-7 * (1.0 + abs(z))
            df = (complex(fz(np.array(z + h))) - complex(fz(np.array(z - h)))) / (2 * h)
            if df == 0:
                break
            dz = f / df
            z -= dz
            if abs(dz) < 1e-13 * (1.0 + abs(z)):
                break
        if abs(complex(fz(np.array(z)))) < 1e-9 and 1e-6 < z.imag <= w_max + 0.5:
            zeros.append(z)
    return zeros


def decay_prediction(spec: PotentialSpec, c: float) -> DecayPrediction:
    """Predict the tail model of eta from the multiplier symbol.

    Analytic symbols: exponential decay at the rate set by the lowest zero of
    M_c in the upper half-strip, located by rectangle sampling on
    [0, 4 c*] x (0, STRIP_W_MAX] plus Newton polishing; with no zero there
    the rate is reported as STRIP_W_MAX, censored.  A symbol with a kink
    (the truncated parabola) only admits algebraic decay (every power below
    1); any other symbol (tabulated) gives no prediction.
    """
    if spec.algebraic_tail:
        return DecayPrediction(model="algebraic", value=1.0)
    if not spec.analytic:
        return DecayPrediction(model="unknown")
    cs = sound_speed(spec)
    zeros = _strip_zeros(lambda z: mc_symbol(spec, c, z), xi_max=4.0 * cs,
                         w_max=STRIP_W_MAX, nxi=STRIP_NXI, nw=STRIP_NW)
    if not zeros:
        return DecayPrediction(model="exponential", value=STRIP_W_MAX, censored=True)
    zlow = min(zeros, key=lambda z: z.imag)
    return DecayPrediction(model="exponential", value=float(zlow.imag), zero=zlow)

