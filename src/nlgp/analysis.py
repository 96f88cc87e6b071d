"""Post-processing: tail fits against multiplier predictions, the strip of
analyticity, phase limits and symmetry metrics.

The tail fits in x and the strip fit in xi read one amplitude band (``_band``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnderresolvedTailError
from .hydro import WaveFields
from .spectral import Grid

BAND_TOP = 1e-2            # the fit band starts below this share of the envelope's max
BAND_BOTTOM = 1e-9         # and ends below this share
BAND_REACH = 0.75          # or at this share of the samples, whichever is first
MIN_FIT_POINTS = 20
# both models fit far-field log-data with r^2 > 0.99; the measured gap for
# textbook members of either class is ~3e-3, so the tie margin sits below that
R2_SELECT_MARGIN = 0.002
ENVELOPE_BLOCKS = 6        # most blocks of the algebraic envelope check
PHASE_TAIL_TOL = 1e-8      # |eta| at the edges above which phase limits warn


@dataclass(frozen=True)
class DecayFit:
    model: str              # "exponential" | "algebraic"
    rate_or_power: float
    r_squared: float
    window: tuple           # (x_lo, x_hi): the bands' extent in |x|
    tail_discrepancy: float  # |left rate - right rate|, extra symmetry diagnostic


def _band(samples: np.ndarray):
    """(envelope, band) of samples ordered outward, |x| from the trough or
    xi from zero.

    The envelope, the largest |sample| at or beyond each one, is
    nonincreasing through sign changes and oscillation.  The band is the
    slice of it from its first value below BAND_TOP times its max to its
    first below BAND_BOTTOM times it: past the core, above the roundoff floor
    and the solver's residual plateau.  It ends within the first BAND_REACH
    of the samples: beyond, a periodic tail carries the image of the other
    one (a spectrum, its aliases), which biased the rate of a tail not yet at
    BAND_BOTTOM by 1-2%.  Raises UnderresolvedTailError for fewer than
    MIN_FIT_POINTS samples in the band.
    """
    env = np.maximum.accumulate(np.abs(samples)[::-1])[::-1]
    band = slice(int(np.count_nonzero(env >= BAND_TOP * env[0])),
                 min(int(np.count_nonzero(env >= BAND_BOTTOM * env[0])),
                     int(BAND_REACH * env.size)))
    if band.stop - band.start < MIN_FIT_POINTS:
        raise UnderresolvedTailError(
            f"fewer than {MIN_FIT_POINTS} samples between {BAND_TOP:g} and "
            f"{BAND_BOTTOM:g} of the max; refine the grid or enlarge the domain")
    return env, band


def _ls_fit(columns, logy):
    """Least-squares coefficients of logy on 1 and the columns, and r^2."""
    design = np.column_stack([np.ones_like(logy), *columns])
    coef, *_ = np.linalg.lstsq(design, logy, rcond=None)
    ss_res = float(np.sum((logy - design @ coef) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return coef, min(max(r2, 0.0), 1.0)


def _fit(grid: Grid, eta: np.ndarray, model: str, abscissa) -> DecayFit:
    """Slope of log|eta| against abscissa(|x|) over each tail's band, averaged
    with the band sizes as weights."""
    mid = grid.size // 2      # the node x = 0
    ax = np.abs(grid.x)
    slopes, r2s, sizes, ends = [], [], [], []
    for side in (slice(mid, None), slice(mid, None, -1)):
        env, band = _band(eta[side])
        xs = ax[side][band]
        (_, slope), r2 = _ls_fit([abscissa(xs)], np.log(env[band]))
        slopes.append(slope)
        r2s.append(r2)
        sizes.append(xs.size)
        ends += [xs[0], xs[-1]]
    return DecayFit(model=model, rate_or_power=-float(np.average(slopes, weights=sizes)),
                    r_squared=float(np.average(r2s, weights=sizes)),
                    window=(float(min(ends)), float(max(ends))),
                    tail_discrepancy=float(abs(slopes[0] - slopes[1])))


def fit_exponential(grid: Grid, eta: np.ndarray) -> DecayFit:
    """Least-squares slope of log|eta| against |x| over the amplitude band.

    Both tails are fitted on their upper envelopes and averaged.  Raises
    UnderresolvedTailError when a tail's band has too few samples.
    """
    return _fit(grid, eta, "exponential", lambda xs: xs)


def fit_algebraic(grid: Grid, eta: np.ndarray) -> DecayFit:
    """Slope of log|eta| against log|x| over the same band."""
    return _fit(grid, eta, "algebraic", np.log)


def analyticity_strip(fields: WaveFields) -> float:
    """Half-width w of the strip |Im x| < w in which eta is analytic.

    A singularity at distance w from the real axis makes |eta_hat(xi)| ~
    A xi^b e^{-w xi}, so w comes from the least-squares fit of
    log|eta_hat| = a + b log xi - w xi over the amplitude band of the
    spectrum (Sulem, Sulem & Frisch, J. Comput. Phys. 50, 138, 1983).
    Raises UnderresolvedTailError when the band has too few samples.
    """
    env, band = _band(fields.eta_hat)
    xi = fields.grid.xi_half[band]
    (_, _, slope), _ = _ls_fit([np.log(xi), xi], np.log(env[band]))
    return -float(slope)


def select_model(grid: Grid, eta: np.ndarray):
    """Fit both models; pick by r^2 with a margin, ties are inconclusive."""
    fe = fit_exponential(grid, eta)
    fa = fit_algebraic(grid, eta)
    if fe.r_squared > fa.r_squared + R2_SELECT_MARGIN:
        return fe, fa, "exponential"
    if fa.r_squared > fe.r_squared + R2_SELECT_MARGIN:
        return fe, fa, "algebraic"
    return fe, fa, "inconclusive"


def algebraic_envelope_check(grid: Grid, eta: np.ndarray, power: float,
                             oscillation_period: float):
    """Block maxima of |x|^power |eta| over [0.55 L, 0.85 L], and whether they decrease.

    The inverse-multiplier kernel of a truncated-parabola symbol oscillates,
    so the pointwise product is not monotone; maxima over blocks at least one
    oscillation long are the meaningful envelope.
    """
    L = grid.half_length
    lo, hi = 0.55 * L, 0.85 * L
    n_blocks = min(ENVELOPE_BLOCKS, max(2, int((hi - lo) / oscillation_period)))
    edges = np.linspace(lo, hi, n_blocks + 1)
    maxima = []
    ax = np.abs(grid.x)
    val = ax ** power * np.abs(eta)
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (ax >= a) & (ax < b)
        maxima.append(float(val[sel].max()))
    maxima = np.array(maxima)
    return bool(np.all(np.diff(maxima) < 0.0)), maxima


@dataclass(frozen=True)
class PhaseLimits:
    theta_minus: float
    theta_plus: float
    jump: float
    u_plus: complex
    u_minus: complex
    zero_jump: bool          # jump vanishes iff int eta/(1-eta) = 0
    tail_warning: bool


def phase_limits(fields: WaveFields) -> PhaseLimits:
    """theta(+-inf) = theta(0) + (c/2) int_0^{+-inf} eta/(1-eta), by quadrature."""
    g = fields.grid
    eta = fields.eta
    integrand = eta / (1.0 - eta)
    h = g.spacing
    pos = g.x > 0
    neg = g.x < 0
    j0 = g.size // 2  # x = 0 node, weighted half on each side
    theta0 = float(fields.theta[j0])
    plus = theta0 + 0.5 * fields.c * h * (np.sum(integrand[pos]) + 0.5 * integrand[j0])
    minus = theta0 - 0.5 * fields.c * h * (np.sum(integrand[neg]) + 0.5 * integrand[j0])
    jump = plus - minus
    total = 0.5 * fields.c * h * np.sum(integrand)
    warn = max(abs(eta[0]), abs(eta[-1])) > PHASE_TAIL_TOL
    return PhaseLimits(theta_minus=float(minus), theta_plus=float(plus),
                       jump=float(jump),
                       u_plus=complex(np.exp(1j * plus)),
                       u_minus=complex(np.exp(1j * minus)),
                       zero_jump=bool(abs(total) < 1e-12),
                       tail_warning=bool(warn))


def symmetry_metrics(fields: WaveFields):
    """(sup |rho - rho(-x)|, sup |theta + theta(-x) - const|) for gauge-aligned fields.

    The boundary node x = -L is excluded from the phase metric: theta is not
    periodic (it carries the phase jump), so that node has no mirror partner.
    """
    g = fields.grid
    rho_asym = float(np.abs(fields.rho - g.reflect(fields.rho)).max())
    s = (fields.theta + g.reflect(fields.theta))[1:]
    theta_asym = float(np.abs(s - np.median(s)).max())
    return rho_asym, theta_asym
