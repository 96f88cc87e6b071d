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
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, OutOfRegimeError, VortexError
from .hydro import (POSITIVITY_FLOOR, ActionParts, action_parts, admissible,
                    b_quadrature, plus_local_part, rho_equation)
from .potentials import HypothesisCertificate, PotentialSpec, bisect, inverse_mc
from .spectral import (Grid, convolve, from_spectrum, integrate, per_row,
                       spectral_density_integral, spectrum)

BLOCK_POINTS = 16384   # samples per row block of a stack pass: 128 KB of floats


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
    transform, of the whole stack; the passes over samples and spectra run
    in row blocks (``_row_blocks``).  Outside the nonvanishing set B = +inf
    and J = -inf.
    """
    blocks = _row_blocks(grid, v)
    eta = np.empty_like(v)
    for rows in blocks:
        np.multiply(v[rows], 2.0 - v[rows], out=eta[rows])   # _f(v)
    eh = spectrum(eta)
    W = spec.lattice_symbol(grid)
    J, A, B = (np.empty(v.shape[:-1]) for _ in range(3))
    for rows in blocks:
        rho = 1.0 - v[rows]
        parts = action_parts(grid, c, rho, eta[rows],
                             spectral_density_integral(grid, grid.xi_half_squared, vh[rows]),
                             spectral_density_integral(grid, W, eh[rows]))
        inside = admissible(rho)
        J[rows] = np.where(inside, parts.J, -math.inf)
        A[rows] = parts.A
        B[rows] = np.where(inside, parts.B, math.inf)
    return ActionParts(J=per_row(J), A=per_row(A), B=per_row(B)), eh


def _row_blocks(grid: Grid, stack: np.ndarray) -> list:
    """Index expressions that split a stack of fields on ``grid`` (samples
    or spectra, one per row) into blocks of max(1, BLOCK_POINTS // N) rows,
    so that an elementwise pass keeps each temporary near 128 KB; one field
    is one block.  Every row is reduced alone, so blocks change no bits."""
    if stack.ndim == 1:
        return [...]
    rows, n = max(1, BLOCK_POINTS // grid.size), len(stack)
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


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
    temporaries end with the call; the local part is formed in row blocks
    (``_row_blocks``), in place of W*eta.
    """
    local = from_spectrum(grid, spec.lattice_symbol(grid) * eh)
    for rows in _row_blocks(grid, v):
        rho = 1.0 - v[rows]
        if not np.all(admissible(rho)):
            raise VortexError("gradient undefined outside the nonvanishing set")
        local[rows] = plus_local_part(0.0, rho, c, local[rows])
    dh = grid.xi_half_squared * vh - spectrum(local)
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
SUBDIVISIONS = 8      # interior points per segment in each path maximum
CHECK_EVERY = 5       # sweeps between checkpoints of the path maximum
STOP_RTOL = 1e-4      # two successive checkpoints this close stop the sweeps
SAMPLE_BANDWIDTH = 2.0  # Gaussian frequency envelope of the sphere-bound samples
BOUND_MARGIN = 1e-9   # rounding margin of a segment bound, relative to A and c^2 B


@dataclass(frozen=True)
class PhiEndpoint:
    v: np.ndarray
    delta: float
    r: float
    J: float


def build_phi_c(c: float, spec: PotentialSpec, grid: Grid) -> PhiEndpoint:
    """Negative-action endpoint: phi^2 = delta on [-r, r], cosine ramp to 1.

    delta is chosen below c^2 / (2 ||W_hat||_inf) so that widening the core
    strictly lowers the action; r doubles until J_c(1 - phi) < 0.  The core
    amplitude sqrt(delta) must lie above POSITIVITY_FLOOR, which takes
    c > 2 POSITIVITY_FLOOR sqrt(||W_hat||_inf); a slower c raises
    OutOfRegimeError.
    """
    if c <= 0:
        raise OutOfRegimeError("endpoint construction needs c > 0")
    wsup = float(np.abs(spec.lattice_symbol(grid)).max())
    delta = 0.5 * min(1.0 - 2.0 * POSITIVITY_FLOOR, c ** 2 / (2.0 * wsup))
    if math.sqrt(delta) <= POSITIVITY_FLOOR:
        raise OutOfRegimeError(
            f"negative endpoint's core amplitude {math.sqrt(delta):g} is not above "
            f"the positivity floor {POSITIVITY_FLOOR:g}: needs "
            f"c > {2.0 * POSITIVITY_FLOOR * math.sqrt(wsup):g}")
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
    return bisect(ok, 0.0, 1.0, 80)[0]


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
    upper_history: list           # the path maximum at each checkpoint
    segments_sampled: list        # how many segments each checkpoint sampled
    sweeps: int                   # string-method sweeps run

    def as_dict(self):
        return {"c": self.c, "lower": self.lower, "upper": self.upper,
                "path_nodes": len(self.path),
                "phi_params": {"delta": self.phi_delta, "r": self.phi_r},
                "endpoint_J": self.endpoint_J,
                "upper_history": self.upper_history,
                "segments_sampled": self.segments_sampled, "sweeps": self.sweeps}


def mountain_pass_bracket(c: float, spec: PotentialSpec, cert: HypothesisCertificate,
                          grid: Grid, refine_steps: int = 200) -> MountainPassBracket:
    """Bracket the mountain-pass level between the sphere bound and a path max.

    The initial path is the straight segment t (1 - phi_c), which stays in
    the nonvanishing set; interior nodes then descend along the multiplier-
    preconditioned gradient with fixed endpoints (a string method),
    re-parameterized by H1 arc length after each sweep.  Every CHECK_EVERY
    sweeps, and after the last, a checkpoint takes the largest action found
    on the path (``_path_max``); ``upper_history`` lists these values and
    ``segments_sampled`` how many segments each one sampled.  The sweeps
    stop when two successive checkpoints agree to STOP_RTOL relative, or
    after ``refine_steps``, which is therefore a cap; ``refine_steps = 0``
    evaluates the straight path alone.  Each checkpoint is the maximum over
    an admissible path, so the least of them is reported as the upper
    bound.  The lower bound is the sphere constant at radius r_sup / 2.

    The path is one (PATH_NODES, N) array; each node keeps its half-lattice
    spectrum and that of its eta beside it.  Line-search trials and
    reparameterized nodes are linear combinations of nodes, formed on
    samples and spectra alike, so an action costs one transform, a descent
    direction three and the H1 arc lengths none.  A checkpoint takes one
    transform for the segments it samples, those whose bound reaches the
    best node, and one quadrature per sample.  Elementwise passes over the
    stack run in row blocks (``_row_blocks``).
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
        # a node outside the nonvanishing set (B = +inf) gets +inf, so the
        # line search rejects it and every node, hence every segment, stays admissible
        parts, ehs = _action(grid, vs, vhs, c, spec)
        return np.where(parts.B == math.inf, math.inf, parts.J), ehs

    def checkpoint():
        # sample only the segments whose bound reaches the best node
        kept = np.flatnonzero(_segment_bounds(grid, path, spectra, c, spec) >= Js[:-1].max())
        sampled.append(len(kept))
        history.append(_path_max(grid, path, spectra, eta_spectra, Js, c, spec, kept))

    Js, eta_spectra = J_of(path, spectra)
    history, sampled, sweeps = [], [], 0
    while sweeps < refine_steps:
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
        sweeps += 1
        if sweeps % CHECK_EVERY == 0 or sweeps == refine_steps:
            checkpoint()
            if len(history) > 1 and abs(history[-1] - history[-2]) <= STOP_RTOL * history[-1]:
                break
    if not history:
        checkpoint()
    return MountainPassBracket(c=c, lower=lower, upper=min(history), path=path,
                               phi_delta=endpoint.delta, phi_r=endpoint.r,
                               endpoint_J=endpoint.J, upper_history=history,
                               segments_sampled=sampled, sweeps=sweeps)


def _path_max(grid: Grid, path: np.ndarray, spectra: np.ndarray, eta_spectra: np.ndarray,
              Js: np.ndarray, c: float, spec: PotentialSpec, segments) -> float:
    """The largest action found on the polyline through the nodes ``path``
    (spectra ``spectra``, eta spectra ``eta_spectra``, actions ``Js``): at
    the nodes, at SUBDIVISIONS interior points per segment, and by a
    golden-section search between the neighbours of the best of those
    samples, since fixed samples can step over the ridge.  The samples are
    evaluated one segment at a time, each by the quadrature of B alone
    (``_polyline_action``).

    Only the segments listed in ``segments`` are sampled.
    A list that keeps every segment whose bound (``_segment_bounds``)
    reaches the best node loses no candidate for the largest sample, and it
    holds the two segments next to the best node, so the golden-section
    search, which stays within a step of the best sample, never leaves it.
    """
    J_at = _polyline_action(grid, path, spectra, eta_spectra, c, spec, segments)
    # the nodes and SUBDIVISIONS interior points per segment, at t = j * step;
    # the last node is the endpoint, whose J < 0 = J(path[0])
    step = 1.0 / (SUBDIVISIONS + 1)
    inner = step * np.arange(1, SUBDIVISIONS + 1)
    samples = np.full((len(path) - 1, SUBDIVISIONS + 1), -math.inf)
    samples[:, 0] = Js[:-1]
    for k in segments:
        samples[k, 1:] = J_at(k, inner)
    samples = samples.ravel()
    t = np.argmax(samples) * step

    def J_along(t):
        # J at the point t of the polyline, node k at t = k
        k = min(int(t), len(path) - 2)
        return J_at(k, t - k)

    return float(max(samples.max(), _golden_max(J_along, max(t - step, 0.0),
                                                min(t + step, len(path) - 1.0))))


def _segment_bounds(grid: Grid, path: np.ndarray, spectra: np.ndarray, c: float,
                    spec: PotentialSpec) -> np.ndarray:
    """An upper bound of J over each whole segment of the polyline through
    the admissible nodes ``path`` (spectra ``spectra``), widened by
    BOUND_MARGIN times the scale of A and c^2 B, so no computed J on the
    segment exceeds it.

    On v = (1 - w) a + w b the kinetic sum (1 - w)^2 kin_a + w^2 kin_b +
    2 w (1 - w) kin_ab is at most max(kin_a, kin_b, kin_ab), the weights
    being non-negative with sum one, and so at most max(kin_a, kin_b), as
    kin_ab <= sqrt(kin_a kin_b) by Cauchy-Schwarz.  eta = v (2 - v)
    increases for v < 1, so eta lies between eta_a and eta_b and
    int (W*eta) eta <= max(sup W, 0) int max(eta_a^2, eta_b^2).
    B = (1/8) int (1/rho - rho)^2, and |1/rho - rho| shrinks toward
    rho = 1, so B >= (1/8) int (1/r - r)^2 with r the point of
    [min(rho_a, rho_b), max(rho_a, rho_b)] nearest 1.
    """
    W = spec.lattice_symbol(grid)
    kin = spectral_density_integral(grid, grid.xi_half_squared, spectra)
    kinetic = np.maximum(kin[:-1], kin[1:])
    eta_sq, b_low = np.empty(len(path) - 1), np.empty(len(path) - 1)
    for rows in _row_blocks(grid, path[1:]):   # one row per segment
        nodes = path[rows.start:rows.stop + 1]
        eta = _f(nodes)
        q = eta / (1.0 - nodes)   # 1/rho - rho
        q *= q
        eta *= eta
        eta_sq[rows] = integrate(grid, np.maximum(eta[:-1], eta[1:]))
        # r = 1 where rho_a - 1 and rho_b - 1 differ in sign, else the node nearest 1
        q = np.minimum(q[:-1], q[1:])
        q[(nodes[:-1] > 0.0) != (nodes[1:] > 0.0)] = 0.0
        b_low[rows] = 0.125 * integrate(grid, q)
    upper = 0.5 * kinetic + 0.25 * max(float(W.max()), 0.0) * eta_sq - c ** 2 * b_low
    scale = 0.5 * kinetic + 0.25 * float(np.abs(W).max()) * eta_sq + c ** 2 * b_low
    return upper + BOUND_MARGIN * scale


def _polyline_action(grid: Grid, path: np.ndarray, spectra: np.ndarray,
                     eta_spectra: np.ndarray, c: float, spec: PotentialSpec,
                     segments):
    """J on the polyline through the admissible nodes ``path`` (spectra
    ``spectra``, eta spectra ``eta_spectra``): a function of the segment k
    and a weight w, or an array of weights, which gives J at
    (1 - w) path[k] + w path[k + 1], for k among the listed ``segments``.

    On the segment v = (1 - w) a + w b both quadratic integrals of A are
    polynomials in w: int (v')^2 a quadratic, and, since eta = (1 - w)^2
    eta_a + w^2 eta_b + 2 w (1 - w) g with g = a + b - a b, int (W*eta) eta
    a quartic.  Their coefficients are weighted Parseval sums of the node
    spectra and of the spectra of g, taken here with one transform for all
    segments, so a point costs only the quadrature of B.  rho is linear in
    w, so min rho >= (1 - w) min rho_a + w min rho_b > POSITIVITY_FLOOR: a
    segment between two admissible nodes is admissible, and its points need
    no membership test.  J is formed as ``action_parts`` forms it, without
    its record of the parts, which a golden-section point does not need.
    """
    seg = np.asarray(segments)
    xi2, W = grid.xi_half_squared, spec.lattice_symbol(grid)
    a, b = path[seg], path[seg + 1]
    va, vb, ea, eb = spectra[seg], spectra[seg + 1], eta_spectra[seg], eta_spectra[seg + 1]
    gh = spectrum(a + b - a * b)
    coefficients = dict(zip(seg.tolist(), zip(*(
        spectral_density_integral(grid, weights, f, g).tolist()
        for weights, f, g in ((xi2, va, None), (xi2, vb, None), (xi2, va, vb),
                              (W, ea, None), (W, eb, None), (W, gh, None),
                              (W, ea, eb), (W, ea, gh), (W, eb, gh))))))

    def J_at(k, w):
        kin_a, kin_b, kin_ab, ee_a, ee_b, gg, ab, ag, bg = coefficients[k]
        s = 1.0 - w
        p0, p1, p2 = s * s, w * w, 2.0 * w * s
        kinetic = p0 * kin_a + p1 * kin_b + p2 * kin_ab
        interaction = (p0 * p0 * ee_a + p1 * p1 * ee_b + p2 * p2 * gg
                       + 2.0 * p0 * p1 * ab + 2.0 * p0 * p2 * ag + 2.0 * p1 * p2 * bg)
        v = np.multiply.outer(s, path[k])
        v += np.multiply.outer(w, path[k + 1])
        return 0.5 * kinetic + 0.25 * interaction - c ** 2 * b_quadrature(grid, 1.0 - v, _f(v))

    return J_at


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
    d = np.zeros(n)
    for rows in _row_blocks(grid, spectra[1:]):   # one row per segment
        d[1:][rows] = _h1_norm(grid, spectra[1:][rows] - spectra[rows])
    np.cumsum(d, out=d)
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
