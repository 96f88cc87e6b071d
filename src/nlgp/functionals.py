"""Variational layer: the action functional, its derivatives, and the
numerical mountain-pass geometry.

The unknown is v = 1 - rho, constrained to the nonvanishing set (sup v < 1,
tested as ``hydro.admissible(1 - v)``).  Critical points of
J_c(v) = A(v) - c^2 B(v) are exactly the zeros of the amplitude equation; the
gradient returned here is the L2 representative, so grad_J(v) = -F(rho) with
rho = 1 - v.  A stack of candidates, one per row, goes through the same
functions and gets one value per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridTooSmallError, OutOfRegimeError, VortexError
from .hydro import (POSITIVITY_FLOOR, ActionParts, action_parts, admissible,
                    plus_local_part, rho_equation)
from .potentials import HypothesisCertificate, PotentialSpec, inverse_mc
from .spectral import (Grid, convolve, from_spectrum, integrate, per_row,
                       spectral_density_integral, spectrum)


def sobolev_norm(grid: Grid, v: np.ndarray) -> float | np.ndarray:
    """Discrete H1 norm: sqrt(int v^2 + int (v')^2), by Parseval."""
    return _h1_norm(grid, spectrum(v))


def _h1_norm(grid: Grid, vh: np.ndarray) -> float | np.ndarray:
    """H1 norm of the fields whose half-lattice spectra are vh."""
    weights = grid.cached("h1_weights", lambda g: 1.0 + g.xi_half_squared)
    return per_row(np.sqrt(spectral_density_integral(grid, weights, vh)))


def _f(s):
    return s * (2.0 - s)


def functional_J(grid: Grid, v: np.ndarray, c: float, spec: PotentialSpec) -> ActionParts:
    """J_c = A - c^2 B.  Outside the nonvanishing set B = +inf and J = -inf."""
    return _action(grid, v, spectrum(v), c, spec)[0]


def _action(grid: Grid, v: np.ndarray, vh: np.ndarray, c: float, spec: PotentialSpec):
    """(J_c parts, spectrum of eta) at fields v given with their spectra vh.

    A is taken by Parseval from vh and from the spectrum of eta = v (2 - v),
    which is returned for the caller to keep; B is a quadrature.  One
    transform.  Outside the nonvanishing set B = +inf and J = -inf.
    """
    rho, eta = 1.0 - v, _f(v)
    eh = spectrum(eta)
    parts = action_parts(grid, c, rho, eta,
                         spectral_density_integral(grid, grid.xi_half_squared, vh),
                         spectral_density_integral(grid, spec.lattice_symbol(grid), eh))
    inside = admissible(rho)
    if not np.all(inside):
        parts = replace(parts, J=per_row(np.where(inside, parts.J, -math.inf)),
                        B=per_row(np.where(inside, parts.B, math.inf)))
    return parts, eh


def grad_J(grid: Grid, v: np.ndarray, c: float, spec: PotentialSpec) -> np.ndarray:
    """L2 representative of the first derivative: -F(1 - v)."""
    rho = 1.0 - v
    if not np.all(admissible(rho)):
        raise VortexError("gradient undefined outside the nonvanishing set")
    return -rho_equation(grid, rho, c, spec)


def _descent(grid: Grid, v: np.ndarray, vh: np.ndarray, eh: np.ndarray, c: float,
             spec: PotentialSpec, inv_mc: np.ndarray):
    """(d, d_hat): the preconditioned gradient d = (1/M_c) grad_J at fields v
    with spectra vh and eta spectra eh, as samples and as spectrum.

    grad_J = -v'' - (local part of F) has the spectrum xi^2 vh minus that of
    the local part, whose W*eta is irfft(W_hat eh): three transforms.  Its
    temporaries end with the call.
    """
    rho = 1.0 - v
    if not np.all(admissible(rho)):
        raise VortexError("gradient undefined outside the nonvanishing set")
    weta = from_spectrum(grid, spec.lattice_symbol(grid) * eh)
    dh = grid.xi_half_squared * vh - spectrum(plus_local_part(0.0, rho, c, weta))
    dh *= inv_mc
    return from_spectrum(grid, dh), dh


def pairing_identity(grid: Grid, v: np.ndarray, c: float, spec: PotentialSpec):
    """Both sides of 2 J_c(v) - J_c'(v)(v) = (1/2) int (W*f(v)) v^2 + (c^2/4) int f(v) v^2/(1-v)^3.

    The left side combines the functional and the gradient; the right side is
    direct quadrature.  Returns (lhs, rhs, relative residual); the identity
    holds for any v in the nonvanishing set, critical or not.
    """
    g = grad_J(grid, v, c, spec)   # the one membership test: VortexError outside the set
    eta = _f(v)
    weta = convolve(spec, grid, eta)
    J = functional_J(grid, v, c, spec).J
    lhs = 2.0 * J - integrate(grid, g * v)
    rhs = 0.5 * integrate(grid, weta * v ** 2) \
        + 0.25 * c ** 2 * integrate(grid, eta * v ** 2 / (1.0 - v) ** 3)
    resid = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return float(lhs), float(rhs), float(resid)


# ---------------------------------------------------------------------------
# mountain-pass geometry

PATH_NODES = 33       # string-method nodes, endpoints included
DESCENT_STEP = 0.5    # first trial step of each node's line search
SUBDIVISIONS = 8      # interior points per segment in the final path maximum
SAMPLE_BANDWIDTH = 2.0  # Gaussian frequency envelope of the sphere-bound samples


@dataclass(frozen=True)
class PhiEndpoint:
    v: np.ndarray
    delta: float
    r: float
    J: float


def build_phi_c(c: float, spec: PotentialSpec, grid: Grid) -> PhiEndpoint:
    """Negative-action endpoint: phi^2 = delta on [-r, r], cosine ramp to 1.

    delta is chosen below c^2 / (2 ||W_hat||_inf) so that widening the core
    strictly lowers the action; r doubles until J_c(1 - phi) < 0.
    """
    if c <= 0:
        raise OutOfRegimeError("endpoint construction needs c > 0")
    wsup = float(np.abs(spec.lattice_symbol(grid)).max())
    delta = 0.5 * min(1.0 - 2.0 * POSITIVITY_FLOOR, c ** 2 / (2.0 * wsup))
    ax = np.abs(grid.x)
    r = 2.0
    while True:
        if r > grid.half_length / 2.0:
            raise GridTooSmallError(
                f"negative endpoint needs core radius > L/2 = {grid.half_length / 2:g}")
        phi2 = np.ones(grid.size)
        core = ax <= r
        ramp = (ax > r) & (ax < r + 1.0)
        phi2[core] = delta
        t = ax[ramp] - r
        phi2[ramp] = delta + (1.0 - delta) * 0.5 * (1.0 - np.cos(np.pi * t))
        v = 1.0 - np.sqrt(phi2)
        J = functional_J(grid, v, c, spec).J
        if J < 0.0:
            return PhiEndpoint(v=v, delta=float(delta), r=float(r), J=float(J))
        r *= 2.0


@dataclass(frozen=True)
class SphereBound:
    ell: float
    lower: float          # ell * r^2
    r: float
    r_sup: float          # largest radius keeping both terms positive
    samples_checked: int
    min_margin: float     # min over samples of J(v) - lower


def _r_sup(cert: HypothesisCertificate, c: float) -> float:
    """Largest radius keeping both terms of the sphere constant positive."""
    sigma, kappa = cert.sigma, cert.kappa

    def ok(r):
        return (1.0 - 2.0 * kappa * (1.0 + r) ** 2 > 0.0
                and sigma - c ** 2 / (2.0 * (1.0 - r) ** 2) > 0.0)

    if not ok(1e-12):
        raise OutOfRegimeError(
            f"no admissible sphere radius at c = {c:g} under (sigma, kappa) = "
            f"({sigma:g}, {kappa:g})")
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def sphere_ell(cert: HypothesisCertificate, c: float, r: float) -> float:
    """min{(1 - 2 kappa (1+r)^2)/2, (sigma - c^2/(2 (1-r)^2))/4} at radius r."""
    return min((1.0 - 2.0 * cert.kappa * (1.0 + r) ** 2) / 2.0,
               (cert.sigma - c ** 2 / (2.0 * (1.0 - r) ** 2)) / 4.0)


def sphere_bound(c: float, spec: PotentialSpec, cert: HypothesisCertificate,
                 r: float, grid: Grid, n_samples: int = 200,
                 rng=None) -> SphereBound:
    """Sphere lower bound J_c >= ell_r r^2, verified on random band-limited fields.

    Sampling only checks the analytic bound; it never claims an infimum.
    Raises OutOfRegimeError when c is outside the certified interval.
    """
    r_sup = _r_sup(cert, c)
    if not (0 < r <= r_sup):
        raise OutOfRegimeError(f"radius r = {r:g} outside (0, {r_sup:g}]")
    ell = sphere_ell(cert, c, r)
    lower = ell * r ** 2
    rng = np.random.default_rng(0) if rng is None else rng
    min_margin = math.inf
    checked = 0
    while checked < n_samples:
        v = _random_band_limited(grid, rng)
        v *= r / sobolev_norm(grid, v)
        if not admissible(1.0 - v):  # resample on NV violation
            continue
        J = functional_J(grid, v, c, spec).J
        min_margin = min(min_margin, J - lower * (1.0 - 1e-6))
        checked += 1
    return SphereBound(ell=float(ell), lower=float(lower), r=float(r),
                       r_sup=float(r_sup), samples_checked=checked,
                       min_margin=float(min_margin))


def _random_band_limited(grid: Grid, rng) -> np.ndarray:
    coef = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    coef *= np.exp(-(grid.xi / SAMPLE_BANDWIDTH) ** 2)
    return np.fft.ifft(coef).real


@dataclass
class MountainPassBracket:
    c: float
    lower: float
    upper: float
    path: np.ndarray              # (PATH_NODES, N): the nodes v from 0 to 1 - phi_c
    phi_delta: float
    phi_r: float
    endpoint_J: float
    upper_history: list

    def as_dict(self):
        return {"c": self.c, "lower": self.lower, "upper": self.upper,
                "path_nodes": len(self.path),
                "phi_params": {"delta": self.phi_delta, "r": self.phi_r},
                "endpoint_J": self.endpoint_J,
                "upper_history": self.upper_history}


def mountain_pass_bracket(c: float, spec: PotentialSpec, cert: HypothesisCertificate,
                          grid: Grid, refine_steps: int = 200) -> MountainPassBracket:
    """Bracket the mountain-pass level between the sphere bound and a path max.

    The initial path is the straight segment t (1 - phi_c), which stays in
    the nonvanishing set; interior nodes then descend along the multiplier-
    preconditioned gradient with fixed endpoints (a string method),
    re-parameterized by H1 arc length after each sweep.  ``upper_history``
    tracks the running minimum of the nodal path maxima.  The reported upper
    bound is the largest action found on the final path: at the nodes, at
    SUBDIVISIONS interior points per segment, and by a golden-section
    search between the neighbours of the best of those samples, since
    fixed samples can step over the ridge.  The lower bound is the sphere
    constant at radius r_sup / 2.

    The path is one (PATH_NODES, N) array; each node keeps its half-lattice
    spectrum and that of its eta beside it.  Line-search trials,
    reparameterized nodes and final samples are linear combinations of
    nodes, formed on samples and spectra alike, so an action costs one
    transform, a descent direction three and the H1 arc lengths none.
    Between reparameterizations the nodes move independently, one stack per
    stage; each node has its own acceptance test, and the pending nodes
    share the step, halved every round.  Each node's action is evaluated
    once per position.
    """
    r = _r_sup(cert, c) / 2.0   # raises OutOfRegimeError for c >= sqrt(2 sigma)
    endpoint = build_phi_c(c, spec, grid)
    lower = float(sphere_ell(cert, c, r) * r ** 2)
    path = np.linspace(0.0, 1.0, PATH_NODES)[:, None] * endpoint.v
    spectra = spectrum(path)
    inv_mc = inverse_mc(spec, c, grid)

    def J_of(vs, vhs):
        # a path through the boundary (B = +inf) is inadmissible: +inf, never a bound
        parts, ehs = _action(grid, vs, vhs, c, spec)
        return np.where(parts.B == math.inf, math.inf, parts.J), ehs

    Js, eta_spectra = J_of(path, spectra)
    history = [float(Js.max())]
    for _ in range(refine_steps):
        # frozen downhill tail: the action is steeply unbounded below near
        # the positivity floor, and chasing it only stretches the path until
        # reparameterization drags nodes off the barrier
        moving = 1 + np.flatnonzero(~(Js[1:-1] <= endpoint.J))
        if moving.size:
            d, dh = _descent(grid, path[moving], spectra[moving], eta_spectra[moving],
                             c, spec, inv_mc)
            s = DESCENT_STEP
            for _ in range(12):  # reject and halve on NV escape (J = +inf) or J increase
                vn, vnh = path[moving] - s * d, spectra[moving] - s * dh
                ok = J_of(vn, vnh)[0] <= Js[moving]
                path[moving[ok]], spectra[moving[ok]] = vn[ok], vnh[ok]
                moving, d, dh = moving[~ok], d[~ok], dh[~ok]
                if not moving.size:
                    break
                s *= 0.5
        path, spectra = _reparameterize(grid, path, spectra)
        Js[1:-1], eta_spectra[1:-1] = J_of(path[1:-1], spectra[1:-1])
        history.append(min(history[-1], float(Js.max())))

    def J_at(t):
        # J at the points t of the polyline, node k at t = k
        k = np.minimum(t.astype(int), len(path) - 2)
        w = (t - k)[:, None]
        return J_of((1.0 - w) * path[k] + w * path[k + 1],
                    (1.0 - w) * spectra[k] + w * spectra[k + 1])[0]

    # the nodes and SUBDIVISIONS interior points per segment, at t = j * step;
    # the last node is the endpoint, whose J < 0 = J(path[0])
    step = 1.0 / (SUBDIVISIONS + 1)
    inner = step * np.arange(1, SUBDIVISIONS + 1)
    samples = np.column_stack([Js[:-1], [J_at(k + inner) for k in range(len(path) - 1)]]).ravel()
    t = np.argmax(samples) * step
    upper = max(samples.max(), _golden_max(lambda x: J_at(np.array([x]))[0],
                                           max(t - step, 0.0), min(t + step, len(path) - 1.0)))
    return MountainPassBracket(c=c, lower=lower, upper=float(upper), path=path,
                               phi_delta=endpoint.delta, phi_r=endpoint.r,
                               endpoint_J=endpoint.J, upper_history=history)


def _golden_max(f, a: float, b: float) -> float:
    """The largest value of f met by a golden-section search for its maximum
    on [a, b], narrowed until the bracket is sqrt(eps) wide, where a
    quadratic peak no longer changes in floating point."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    best = max(f1, f2)
    while b - a > math.sqrt(np.finfo(float).eps):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
        best = max(best, f1, f2)
    return best


def _reparameterize(grid: Grid, path: np.ndarray, spectra: np.ndarray):
    """Redistribute nodes to equal H1 arc length along the polyline; the
    nodes' spectra (rows of ``spectra``) give the lengths by Parseval and
    move with them."""
    n = len(path)
    d = np.concatenate(([0.0], np.cumsum(_h1_norm(grid, np.diff(spectra, axis=0)))))
    if d[-1] == 0.0:
        return path, spectra
    d /= d[-1]
    targets = np.linspace(0.0, 1.0, n)[1:-1]
    i = np.clip(np.searchsorted(d, targets), 1, n - 1)
    w = (targets - d[i - 1]) / np.maximum(d[i] - d[i - 1], 1e-300)
    # row k of R interpolates node k between nodes i - 1 and i; the
    # endpoints keep their rows
    R = np.zeros((n, n))
    R[0, 0] = R[-1, -1] = 1.0
    inner = np.arange(1, n - 1)
    R[inner, i - 1] = 1.0 - w
    R[inner, i] = w
    return R @ path, (R @ spectra.view(float)).view(complex)
