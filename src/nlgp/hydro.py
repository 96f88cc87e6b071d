"""Hydrodynamic representation u = rho e^{i theta} and the identity battery.

A traveling profile is stored through its amplitude and phase.  The complex
field u is never differentiated directly (the phase is not periodic); all
derivatives go through the periodic quantities rho and theta', which keeps
spectral accuracy for profiles whose phase jumps across the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import VortexError
from .potentials import PotentialSpec
from .spectral import (Grid, convolve, cumulative_integral, derivative,
                       from_half_spectrum, half_spectrum, integrate, per_row,
                       spectral_density_integral, spectrum)

POSITIVITY_FLOOR = 1e-3      # least amplitude a solve or path may reach
IDENTITY_TOL = 1e-6          # relative residual each identity must meet
MOMENTUM_CONDITIONING_FLOOR = 0.05


def admissible(rho: np.ndarray) -> bool | np.ndarray:
    """Membership in the nonvanishing set, min rho > POSITIVITY_FLOOR: a
    Python bool for one field, one flag per row for a stack."""
    return per_row(np.min(rho, axis=-1) > POSITIVITY_FLOOR)


@dataclass(frozen=True)
class WaveFields:
    """One traveling-wave profile at speed c under the kernel spec, in hydrodynamic variables.

    theta is the cumulative phase on [-L, x] (not periodic; the mismatch
    theta(L) - theta(-L) is the physical phase jump).  theta_prime is stored
    separately because it *is* periodic and carries the spectral accuracy.
    The periodic derivatives rho' and eta' and the nonlocal field W*eta are
    taken once, here, and every diagnostic reads them from the profile.
    """

    grid: Grid
    c: float
    rho: np.ndarray
    theta: np.ndarray
    theta_prime: np.ndarray
    spec: PotentialSpec
    eta: np.ndarray = field(init=False, repr=False, compare=False)
    rho_x: np.ndarray = field(init=False, repr=False, compare=False)
    eta_x: np.ndarray = field(init=False, repr=False, compare=False)
    weta: np.ndarray = field(init=False, repr=False, compare=False)
    K: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho, thp = self.rho, self.theta_prime
        eta = 1.0 - rho ** 2
        rho_x = derivative(self.grid, rho)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "rho_x", rho_x)
        object.__setattr__(self, "eta_x", derivative(self.grid, eta))
        object.__setattr__(self, "weta", convolve(self.spec, self.grid, eta))
        object.__setattr__(self, "K", rho_x ** 2 + (rho * thp) ** 2)

    @property
    def min_rho(self) -> float:
        return float(self.rho.min())

    @property
    def u(self) -> np.ndarray:
        """u = rho e^{i theta}, formed on each read and never stored."""
        return self.rho * np.exp(1j * self.theta)

    @property
    def u_x(self) -> np.ndarray:
        """u' = (rho' + i rho theta') e^{i theta}, from the stored rho'."""
        return (self.rho_x + 1j * self.rho * self.theta_prime) * np.exp(1j * self.theta)


def _phase(grid: Grid, rho: np.ndarray, c: float):
    """(theta, theta') from theta' = (c/2)(rho^-2 - 1), with theta(0) = 0."""
    if rho.min() <= 0.0:
        raise VortexError(f"min rho = {rho.min():g} <= 0: phase lifting impossible")
    thp = 0.5 * c * (1.0 / rho ** 2 - 1.0)
    return cumulative_integral(grid, thp), thp


def assemble(grid: Grid, rho: np.ndarray, c: float, spec: PotentialSpec) -> WaveFields:
    """Build the full field set of an amplitude profile under the kernel spec."""
    theta, thp = _phase(grid, rho, c)
    return WaveFields(grid=grid, c=c, rho=rho, theta=theta, theta_prime=thp, spec=spec)


def residual_tw(fields: WaveFields):
    """(sup, L2) norms of i c u' + u'' + u (W * (1 - |u|^2)): with u = rho e^{i theta}
    it is e^{i theta}, of modulus one, times rho'' - rho theta'^2 - c rho theta'
    + rho (W*eta) + i (2 rho' theta' + rho theta'' + c rho'), whose norms are taken."""
    g, c = fields.grid, fields.c
    rho, rho_x, thp = fields.rho, fields.rho_x, fields.theta_prime
    res = (derivative(g, rho, 2) - rho * thp ** 2 - c * rho * thp + rho * fields.weta
           + 1j * (2.0 * rho_x * thp + rho * derivative(g, thp) + c * rho_x))
    return residual_norms(g, res)


def residual_rho(grid: Grid, rho: np.ndarray, c: float, spec: PotentialSpec):
    """(sup, L2) norms of the scalar amplitude equation; the solver's F(rho)."""
    return residual_norms(grid, rho_equation(grid, rho, c, spec))


def residual_norms(grid: Grid, res: np.ndarray):
    """(sup, L2) norms of a real or complex residual."""
    a = np.abs(res)
    sup = float(a.max())
    a *= a
    return sup, float(np.sqrt(integrate(grid, a)))


def rho_equation(grid: Grid, rho: np.ndarray, c: float, spec: PotentialSpec) -> np.ndarray:
    """F(rho) = -rho'' + (c^2/4)(1 - rho^4)/rho^3 - rho (W * (1 - rho^2)).

    A stack of amplitudes, one per row, gives F of each row.
    """
    if rho.min() <= 0.0:
        raise VortexError(f"min rho = {rho.min():g} <= 0")
    return plus_local_part(-derivative(grid, rho, 2), rho, c,
                           convolve(spec, grid, 1.0 - rho ** 2))


def plus_local_part(f, rho: np.ndarray, c: float, weta: np.ndarray) -> np.ndarray:
    """f + (c^2/4)(1 - rho^4)/rho^3 - rho (W*eta): F(rho) for f = -rho'', and
    the local part of F alone for f = 0, which the variational layer
    transforms to take the gradient of J_c on the half lattice.
    """
    return f + 0.25 * c ** 2 * (1.0 - rho ** 4) / rho ** 3 - rho * weta


def _jacobian_local(grid: Grid, rho: np.ndarray, c: float, spec: PotentialSpec):
    """d -> F'(rho) d + d'', the part of the linearization without -d''.

    It is diag d + 2 rho (W * (rho d)) with diag = -(c^2/4)(3/rho^4 + 1)
    - W * (1 - rho^2), which is formed once per linearization point.
    """
    diag = -0.25 * c ** 2 * (3.0 / rho ** 4 + 1.0) - convolve(spec, grid, 1.0 - rho ** 2)

    def apply(d):
        return diag * d + 2.0 * rho * convolve(spec, grid, rho * d)
    return apply


def rho_jacobian(grid: Grid, rho: np.ndarray, c: float, spec: PotentialSpec):
    """d -> F'(rho) d, the linearization of ``rho_equation`` at rho.

    F'(rho) d = -d'' - (c^2/4)(3/rho^4 + 1) d - (W * (1 - rho^2)) d
    + 2 rho (W * (rho d)).  The operator is symmetric, is the Hessian of J_c
    at v = 1 - rho, and equals the multiplier M_c at the vacuum rho = 1.
    """
    local = _jacobian_local(grid, rho, c, spec)

    def apply(d):
        return -derivative(grid, d, 2) + local(d)
    return apply


def rho_jacobian_preconditioned(grid: Grid, rho: np.ndarray, c: float,
                                spec: PotentialSpec, inv_mc: np.ndarray):
    """y -> F'(rho) P in half-spectrum coordinates (``spectral.half_spectrum``),
    with P the multiplier ``inv_mc`` = 1/M_c applied on the right.

    For the coefficients Y of y and d = irfft(Y / M_c), F'(rho) d has the
    coefficients xi^2 Y / M_c + rfft(F'(rho) d + d''): the preconditioner and
    -d'' are multiplications on the lattice, and a product costs four real
    transforms.  At the vacuum rho = 1 the operator is the identity.
    """
    local = _jacobian_local(grid, rho, c, spec)
    lap = grid.xi_half_squared * inv_mc

    def apply(y):
        out = half_spectrum(grid, local(from_half_spectrum(grid, y, inv_mc)))
        coef = out.view(complex)
        coef += y.view(complex) * lap
        return out
    return apply


# ---------------------------------------------------------------------------
# identity battery


@dataclass(frozen=True)
class IdentityEntry:
    name: str
    lhs_norm: float
    rhs_norm: float
    residual_rel: float
    passed: bool
    skipped: bool = False

    def as_dict(self):
        return {"name": self.name, "lhs_norm": self.lhs_norm,
                "rhs_norm": self.rhs_norm, "residual_rel": self.residual_rel,
                "pass": self.passed, "skipped": self.skipped}


@dataclass(frozen=True)
class IdentityReport:
    entries: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.passed or e.skipped for e in self.entries)

    @property
    def max_residual(self) -> float:
        vals = [e.residual_rel for e in self.entries if not e.skipped]
        return max(vals) if vals else 0.0

    def __getitem__(self, name: str) -> IdentityEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_dict(self):
        return {"tol": self.tol, "pass": self.passed,
                "entries": [e.as_dict() for e in self.entries]}


def _entry(name, lhs, rhs, tol, scale=None):
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    ln = float(np.abs(lhs).max())
    rn = float(np.abs(rhs).max())
    ref = max(ln, rn, scale if scale is not None else 0.0, 1e-300)
    rel = float(np.abs(lhs - rhs).max()) / ref
    return IdentityEntry(name, ln, rn, rel, rel <= tol)


def identity_suite(fields: WaveFields, tol: float = IDENTITY_TOL) -> IdentityReport:
    """Evaluate the seven conserved identities of a traveling profile.

    For a converged solution every residual should sit below ``tol``
    (relative); for arbitrary fields the entries are still well-defined
    diagnostics.  The two spectral-density identities need the symbol
    derivative and are marked skipped when it is unavailable.
    """
    g, spec = fields.grid, fields.spec
    c, eta, eta_x, weta, K = fields.c, fields.eta, fields.eta_x, fields.weta, fields.K
    scale = max(float(np.abs(eta).max()) * max(1.0, c) ** 2, 1e-30)

    entries = []
    # (c/2) eta = -<i u', u>
    entries.append(_entry("phase_current", 0.5 * c * eta,
                          -np.real(1j * fields.u_x * np.conj(fields.u)), tol, scale))
    # -eta'' + 2 W*eta - c^2 eta = 2K + 2 eta (W*eta)
    entries.append(_entry("elliptic",
                          -derivative(g, eta, 2) + 2.0 * weta - c ** 2 * eta,
                          2.0 * K + 2.0 * eta * weta, tol, scale))
    # K' = eta' (W*eta)
    entries.append(_entry("kinetic_flux", derivative(g, K), eta_x * weta, tol, scale))
    # c^2 eta^2 + (eta')^2 = 4 K (1 - eta)
    entries.append(_entry("first_integral", c ** 2 * eta ** 2 + eta_x ** 2,
                          4.0 * K * (1.0 - eta), tol, scale))
    # 2K = (c^2 eta^2 + (eta')^2) / (2 (1 - eta))
    entries.append(_entry("kinetic_closure", 2.0 * K,
                          (c ** 2 * eta ** 2 + eta_x ** 2) / (2.0 * (1.0 - eta)),
                          tol, scale))
    if spec.has_deriv:
        wk = spec.lattice_symbol(g)
        xwp = spec.xi_symbol_deriv(g.xi_half)
        eh = spectrum(eta)
        # int |u'|^2 = (1/4pi) int (W_hat - xi W_hat') |eta_hat|^2
        lhs = integrate(g, K)
        rhs = 0.5 * spectral_density_integral(g, wk - xwp, eh)
        entries.append(_entry("pohozaev", lhs, rhs, tol))
        # J_c(1 - rho) = int (rho')^2 + (1/8pi) int xi W_hat' |eta_hat|^2
        rhs = integrate(g, fields.rho_x ** 2) + 0.25 * spectral_density_integral(g, xwp, eh)
        entries.append(_entry("action_identity", action(fields), rhs, tol))
    else:
        entries.append(IdentityEntry("pohozaev", np.nan, np.nan, np.nan, False, skipped=True))
        entries.append(IdentityEntry("action_identity", np.nan, np.nan, np.nan, False, skipped=True))
    return IdentityReport(entries=tuple(entries), tol=tol)


# ---------------------------------------------------------------------------
# energy, momentum, action


def energy(fields: WaveFields) -> float:
    """E = (1/2) int K + (1/4) int (W*eta) eta, with K = |u'|^2."""
    g = fields.grid
    return float(0.5 * integrate(g, fields.K) + 0.25 * integrate(g, fields.weta * fields.eta))


def momentum(fields: WaveFields) -> float:
    """Renormalized momentum p = -(1/2) int <i u', u> eta / (1 - eta), taken as
    (1/2) int theta' eta: Re(i u' conj u) = -rho^2 theta' and 1 - eta = rho^2."""
    if fields.min_rho <= 0.0:
        raise VortexError("renormalized momentum needs min rho > 0")
    return float(0.5 * integrate(fields.grid, fields.theta_prime * fields.eta))


@dataclass(frozen=True)
class ActionParts:
    J: float              # each an array of row values for a stack
    A: float
    B: float


def action_parts(grid: Grid, c: float, rho: np.ndarray, eta: np.ndarray,
                 kinetic, interaction) -> ActionParts:
    """J_c(1 - rho) = A - c^2 B with A = (1/2) int (rho')^2 + (1/4) int (W*eta) eta
    and B = (1/8) int eta^2 / rho^2, where eta = 1 - rho^2.

    The two quadratic integrals of A come from the caller, kinetic =
    int (rho')^2 and interaction = int (W*eta) eta, in the form it already
    holds: ``action`` by quadrature of the profile's fields, the variational
    layer by Parseval from the spectra it keeps.  B is always a quadrature.
    Callers pass eta in their own arithmetic (the variational layer forms
    eta = v (2 - v) with rho = 1 - v).  For a stack of profiles, one per row,
    each part holds one value per row.
    """
    A = 0.5 * kinetic + 0.25 * interaction
    q = eta / rho
    q *= q
    B = 0.125 * integrate(grid, q)
    return ActionParts(J=per_row(A - c ** 2 * B), A=per_row(A), B=per_row(B))


def action(fields: WaveFields) -> float:
    """J_c(1 - rho) = A - c^2 B evaluated directly from the amplitude."""
    return action_parts(fields.grid, fields.c, fields.rho, fields.eta,
                        integrate(fields.grid, fields.rho_x ** 2),
                        integrate(fields.grid, fields.weta * fields.eta)).J


def momentum_conditioning_warning(fields: WaveFields) -> str | None:
    """Near-vortex profiles make the renormalized momentum ill-conditioned."""
    if fields.min_rho < MOMENTUM_CONDITIONING_FLOOR:
        return (f"min rho = {fields.min_rho:.3g} < {MOMENTUM_CONDITIONING_FLOOR}: "
                "momentum integrand is near-singular; accuracy not asserted")
    return None


@dataclass(frozen=True)
class NonvanishingReport:
    weta_sup: float
    bound: float
    passed: bool


def nonvanishing_check(fields: WaveFields) -> NonvanishingReport:
    """Check ||W * eta||_inf >= (2 - c^2)/4, satisfied by nontrivial solutions."""
    sup = float(np.abs(fields.weta).max())
    bound = (2.0 - fields.c ** 2) / 4.0
    return NonvanishingReport(weta_sup=sup, bound=bound, passed=sup >= bound)
