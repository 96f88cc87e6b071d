"""Acceptance criteria: one check per numbered requirement, printed pass/fail.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion is a separate test so failures are isolated.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from nlgp import (Grid, berloff, bochner_riesz, certify, continue_branch,
                  decay_prediction, delta, exp_repulsive, fit_exponential,
                  functional_J, gaussian, grad_J, initial_guess,
                  mountain_pass_bracket, newton_solve, pairing_identity,
                  shifted_deltas, sonic_sweep, symmetry_metrics)
from nlgp.analysis import algebraic_envelope_check
from nlgp.functionals import _random_band_limited
from nlgp.potentials import certification_lattice, certify_h1
from nlgp.spectral import convolve, integrate


IDENTITIES = ("phase_current", "elliptic", "kinetic_flux", "first_integral",
              "kinetic_closure", "pohozaev", "action_identity")


def report(n, passed, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# ---------------------------------------------------------------------------


def test_criterion_1_exact_oracle_reproduction():
    """Contact-kernel solves match the closed form to 1e-8 in under 5 s."""
    grid = Grid(128.0, 4096)
    spec = delta()
    worst_err, worst_time = 0.0, 0.0
    for c in (0.3, 0.7, 1.0, 1.3):
        t0 = time.perf_counter()
        sol = newton_solve(spec, grid, c, initial_guess(grid, c))
        dt = time.perf_counter() - t0
        assert sol.converged
        err = float(np.abs(sol.fields.rho - initial_guess(grid, c)).max())
        worst_err, worst_time = max(worst_err, err), max(worst_time, dt)
    report(1, worst_err <= 1e-8 and worst_time < 5.0,
           f"sup error {worst_err:.2e} (<= 1e-8), slowest solve {worst_time:.2f} s (< 5 s)")


def test_criterion_2_energy_law_along_branch():
    """E(c) = (2 - c^2)^{3/2}/3 along the contact branch to 1e-6 relative."""
    # independent oracle for the closed form at one speed before trusting it:
    # quadrature of the defining energy integrals on the exact profile
    c0, nu = 0.6, math.sqrt(2.0 - 0.36) / 2.0
    eta = lambda y: ((2 - c0 ** 2) / 2.0) / np.cosh(nu * y) ** 2
    K = lambda y: 2.0 * nu ** 4 / np.cosh(nu * y) ** 4
    e_quad = 0.5 * quad(K, -80, 80, limit=200)[0] \
        + 0.25 * quad(lambda y: eta(y) ** 2, -80, 80, limit=200)[0]
    assert e_quad == pytest.approx((2 - c0 ** 2) ** 1.5 / 3.0, abs=1e-10)

    grid = Grid(128.0, 4096)
    branch = continue_branch(delta(), grid, 0.2, 1.35)
    assert branch.termination == "reached_cmax"
    rel = max(abs(s.E - (2 - s.c ** 2) ** 1.5 / 3.0) / ((2 - s.c ** 2) ** 1.5 / 3.0)
              for s in branch.solutions)
    report(2, rel <= 1e-6,
           f"{len(branch.solutions)} members, max relative energy defect {rel:.2e} (<= 1e-6)")


def test_criterion_3_identity_battery(catalog_solutions):
    """All seven identities at 1e-6 relative for six kernels at c = 1."""
    worst = {}
    for name, sol in catalog_solutions.items():
        rep = sol.identity_report
        assert [e.name for e in rep.entries] == list(IDENTITIES), name
        worst[name] = rep.max_residual
    bad = {k: v for k, v in worst.items() if v > 1e-6}
    report(3, not bad,
           "max identity residuals: "
           + ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items())))


def test_criterion_4_variational_consistency():
    """Gradient vs finite differences on 50 fields; pairing identity at 1e-8."""
    grid = Grid(64.0, 2048)
    spec = gaussian(0.3)
    rng = np.random.default_rng(42)
    eps = 1e-5
    worst_fd = 0.0
    for _ in range(50):
        v = _random_band_limited(grid, rng)
        v *= 0.35 / np.abs(v).max()
        psi = _random_band_limited(grid, rng)
        psi *= 0.5 / np.abs(psi).max()
        exact = integrate(grid, grad_J(grid, v, 1.0, spec) * psi)
        jp = functional_J(grid, v + eps * psi, 1.0, spec).J
        jm = functional_J(grid, v - eps * psi, 1.0, spec).J
        fd = (jp - jm) / (2 * eps)
        worst_fd = max(worst_fd, abs(fd - exact) / max(1.0, abs(exact)))
    worst_pair = 0.0
    for _ in range(20):
        v = _random_band_limited(grid, rng)
        v *= rng.uniform(0.1, 0.8) / np.abs(v).max()
        _, _, resid = pairing_identity(grid, v, 1.1, spec)
        worst_pair = max(worst_pair, resid)
    report(4, worst_fd <= 1e-6 and worst_pair <= 1e-8,
           f"gradient check {worst_fd:.2e} (<= 1e-6), pairing {worst_pair:.2e} (<= 1e-8)")


def test_criterion_5_a_priori_bounds():
    """Universal amplitude/derivative/lower bounds on two measure-kernel branches."""
    grid = Grid(128.0, 4096)
    violations = []
    for spec in (exp_repulsive(1.0, 3.0), shifted_deltas(0.5)):
        md = spec.measure_decomposition
        b0, b1 = md.b0, md.b1
        branch = continue_branch(spec, grid, 0.2, 1.35)
        assert branch.termination == "reached_cmax", spec.label()
        for s in branch.solutions:
            f = s.fields
            cap = 1.0 + s.c ** 2 / 4.0
            u_sup2 = float(np.max(f.rho) ** 2)
            up_sup = float(np.sqrt(f.K.max()))
            if u_sup2 > b0 * cap:
                violations.append((spec.kind, s.c, "amplitude"))
            if up_sup > b1 * cap ** 2:
                violations.append((spec.kind, s.c, "derivative"))
            weta = np.abs(convolve(spec, grid, f.eta)).max()
            if weta < (2.0 - s.c ** 2) / 4.0:
                violations.append((spec.kind, s.c, "nonvanishing"))
            v1 = b1 * cap ** 2
            root = math.sqrt(1.0 + 4.0 * s.c ** 2 / v1)
            if f.min_rho < (root - 1.0) / (root + 1.0):
                violations.append((spec.kind, s.c, "lower"))
    report(5, not violations, f"0 violations expected, found {violations!r}")


def test_criterion_6_decay_rates():
    """Fitted tail rates within 10% of the strip-sampled prediction."""
    cases = [
        (delta(), 32.0, 1024),
        (exp_repulsive(1.0, 3.0), 30.0, 1024),
        (gaussian(0.3), 24.0, 1024),
        (shifted_deltas(0.5), 28.0, 1024),
    ]
    lines = []
    ok = True
    for spec, L, N in cases:
        pred = decay_prediction(spec, 1.0)
        grid = Grid(L, N)
        sol = newton_solve(spec, grid, 1.0, initial_guess(grid, 1.0))
        assert sol.converged, spec.label()
        efolds = 0.3 * L * pred.value
        assert efolds >= 5.0, f"{spec.label()}: window spans {efolds:.1f} e-foldings"
        fit = fit_exponential(grid, sol.fields.eta)
        ratio = fit.rate_or_power / pred.value
        ok = ok and 0.9 <= ratio <= 1.1
        lines.append(f"{spec.kind}: fit {fit.rate_or_power:.3f} vs pred "
                     f"{pred.value:.3f} ({100 * (ratio - 1):+.1f}%)")
    # truncated-parabola kernel: bounded-envelope algebraic check at power 0.9
    bspec = bochner_riesz(0.4)
    bgrid = Grid(256.0, 8192)
    bsol = newton_solve(bspec, bgrid, 1.0, initial_guess(bgrid, 1.0))
    period = 2 * math.pi * math.sqrt(0.4)
    env_ok, maxima = algebraic_envelope_check(bgrid, bsol.fields.eta, 0.9, period)
    ok = ok and env_ok
    lines.append(f"bochner_riesz envelope |x|^0.9 |eta| decreasing: {env_ok}")
    report(6, ok, "; ".join(lines))


def test_criterion_7_sonic_nonexistence_surrogate():
    """Amplitude exponent 1.00 +- 0.02 and the lower bound near the sonic speed."""
    sweep = sonic_sweep(delta())
    eta_final = sweep.rows[-1, 2]
    ok = (abs(sweep.gamma - 1.0) <= 0.02 and sweep.all_nonvanishing_ok
          and eta_final < 0.01 and np.all(np.diff(sweep.rows[:, 2]) < 0))
    report(7, ok,
           f"gamma = {sweep.gamma:.4f} (1.00 +- 0.02), eta_max -> {eta_final:.2e}, "
           f"nonvanishing bound held at all {len(sweep.rows)} samples: "
           f"{sweep.all_nonvanishing_ok}")


def test_criterion_8_mountain_pass_bracket():
    """Positive sphere bound, negative endpoint, soliton action inside the bracket."""
    grid = Grid(64.0, 2048)
    spec = delta()
    cert = certify(spec)
    bracket = mountain_pass_bracket(1.0, spec, cert, grid, refine_steps=200)
    sol = newton_solve(spec, grid, 1.0, initial_guess(grid, 1.0))
    ok = (bracket.lower > 0.0 and bracket.endpoint_J < 0.0
          and bracket.lower <= sol.J <= 1.1 * bracket.upper)
    report(8, ok,
           f"lower {bracket.lower:.4e} > 0, endpoint J {bracket.endpoint_J:.3f} < 0, "
           f"J(soliton) {sol.J:.6f} in [{bracket.lower:.4e}, "
           f"{1.1 * bracket.upper:.6f}]")


def test_criterion_9_symmetry(catalog_solutions):
    """Even amplitude and odd phase for every catalog solution at c = 1."""
    worst_rho, worst_theta = 0.0, 0.0
    for name, sol in catalog_solutions.items():
        r, t = symmetry_metrics(sol.fields)
        worst_rho, worst_theta = max(worst_rho, r), max(worst_theta, t)
    report(9, worst_rho <= 1e-6 and worst_theta <= 1e-6,
           f"max amplitude asymmetry {worst_rho:.2e}, "
           f"max phase asymmetry {worst_theta:.2e} (both <= 1e-6)")


def test_criterion_10_certification_values():
    """Sampled quadratic-bound certificates reproduce the known constants."""
    tol = 1e-3
    results = []
    def h1(spec):
        return certify_h1(spec, certification_lattice(spec))
    sigma, kappa, _ = h1(shifted_deltas(0.5))
    results.append(("shifted_deltas", abs(sigma - 1.0) <= tol and kappa <= tol,
                    f"(sigma, kappa) = ({sigma:.4f}, {kappa:.4f}) vs (1, 0)"))
    sigma, kappa, _ = h1(gaussian(0.3))
    results.append(("gaussian(0.3)", abs(sigma - 1.0) <= tol and abs(kappa - 0.3) <= tol,
                    f"(sigma, kappa) = ({sigma:.4f}, {kappa:.4f}) vs (1, 0.3)"))
    lam = 0.7
    target = (1.0 + math.log(2 * lam)) / (2 * lam)
    _, _, critical = h1(gaussian(lam))
    results.append(("gaussian(0.7)", critical is not None
                    and abs(critical - target) <= tol,
                    f"critical sigma = {critical:.4f} vs {target:.4f}"))
    sigma, _, _ = h1(berloff(-36.0, 2687.0, 30.0))
    results.append(("berloff", abs(sigma - 0.175) <= tol,
                    f"sigma = {sigma:.4f} vs 0.175"))
    ok = all(r[1] for r in results)
    report(10, ok, "; ".join(f"{name}: {msg}" for name, good, msg in results))
