"""Kernel catalog: symbols, certificates, dispersion, decay prediction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgp import (CertificationError, Grid, NoSoundSpeedError, OutOfRangeError,
                  SupersonicMultiplierError,
                  berloff, bochner_riesz, certify, certify_h1, certify_h3,
                  convolve, decay_prediction, delta, dispersion, exp_repulsive,
                  gaussian, mc_symbol, measure_combo, roton_maxon,
                  shifted_deltas, soft_core, sound_speed, tabulated)
from nlgp.potentials import (PotentialSpec, certification_lattice, inverse_mc,
                             reference_cases)
from nlgp.spectral import LATTICE_MAX

ALL_SPECS = [delta(), exp_repulsive(1.0, 3.0), shifted_deltas(0.5),
             gaussian(0.3), soft_core(1.0), bochner_riesz(0.4),
             berloff(-36.0, 2687.0, 30.0),
             measure_combo([0.25, -0.25], [0.0, 1.0])]


# ---------------------------------------------------------------------------
# symbol values


def test_symbol_values():
    assert delta().symbol(3.7) == 1.0
    assert gaussian(1.0).symbol(0.0) == 1.0
    # evaluate the rational symbol by hand at xi = 0: 3 (1 - 6/9) = 1
    assert exp_repulsive(1.0, 3.0).symbol(0.0) == pytest.approx(1.0, abs=1e-15)
    assert shifted_deltas(0.5).symbol(0.0) == pytest.approx(1.0)
    assert soft_core(1.0).symbol(0.0) == 1.0
    assert bochner_riesz(0.4).symbol(0.0) == 1.0
    assert bochner_riesz(0.4).symbol(10.0) == 0.0


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.analytic],
                         ids=lambda s: s.kind)
def test_complex_symbol_extends_the_real_symbol(spec):
    xi = Grid(16.0, 256).xi                    # includes xi = 0 and both signs
    z = spec.complex_symbol(xi + 0j)
    assert np.all(z.imag == 0.0)
    np.testing.assert_allclose(z.real, spec.symbol(xi), rtol=1e-15, atol=1e-15)


_TABLE = np.linspace(0.0, 60.0, 601)


@pytest.mark.parametrize("spec", [spec for _, spec, _, _ in reference_cases()]
                         + [berloff(-36.0, 2687.0, 30.0),
                            tabulated(_TABLE, np.exp(-0.3 * _TABLE ** 2))],
                         ids=lambda s: s.kind)
def test_kernel_record_states_tail_and_extension(spec):
    # the tail is algebraic exactly when the record names a kink, and the
    # complex symbol exists exactly when the record says the symbol is analytic
    assert spec.algebraic_tail == (spec.kink is not None)
    assert (spec.kink is not None) == (spec.kind == "bochner_riesz")
    if spec.kink is not None:
        assert spec.kink == 1.0 / math.sqrt(spec.params["kappa"])
        # the symbol reaches 0 at the kink and stays there
        assert spec.symbol(1.001 * spec.kink) == 0.0 < spec.symbol(0.999 * spec.kink)
        assert abs(spec.symbol(spec.kink)) < 1e-15
    z = np.array([0.3 + 0.7j, 1.1 + 0.05j])
    if spec.analytic:
        np.testing.assert_array_equal(spec.complex_symbol(z), spec._symbol(z))
    else:
        with pytest.raises(ValueError, match="no analytic extension"):
            spec.complex_symbol(z)
    assert spec.analytic == (spec.kind not in ("bochner_riesz", "tabulated"))


@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, 50.0), st.sampled_from(range(len(ALL_SPECS))))
def test_symbol_even_and_bounded(xi, ispec):
    spec = ALL_SPECS[ispec]
    a, b = float(spec.symbol(xi)), float(spec.symbol(-xi))
    assert a == b
    assert abs(a) < 1e6


def test_normalization_at_zero():
    for spec in ALL_SPECS:
        assert float(spec.symbol(0.0)) == pytest.approx(1.0, abs=1e-14), spec.kind


def test_symbol_deriv_odd():
    xs = np.linspace(0.1, 20.0, 101)
    for spec in ALL_SPECS:
        np.testing.assert_allclose(spec.symbol_deriv(-xs), -spec.symbol_deriv(xs))


def test_symbol_deriv_matches_finite_differences():
    xs = np.linspace(0.05, 10.0, 401)
    h = 1e-6
    for spec in ALL_SPECS:
        if spec.kink is not None:
            continue  # one-sided derivative at the kink
        fd = (spec.symbol(xs + h) - spec.symbol(xs - h)) / (2 * h)
        np.testing.assert_allclose(spec.symbol_deriv(xs), fd, rtol=1e-6, atol=1e-6)


def test_measure_combo_normalization():
    spec = measure_combo([0.25, -0.25], [0.0, 1.0])
    md = spec.measure_decomposition
    assert md.amplitude * (1.0 + (md.mu_plus - md.mu_minus)) == pytest.approx(1.0)
    assert md.mu_minus < 1.0
    # W * 1 = 1 through the spectral convolution
    g = Grid(64.0, 512)
    np.testing.assert_allclose(convolve(spec, g, np.ones(g.size)), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        measure_combo([-1.5], [1.0])


def test_tabulated_interpolation_and_range():
    xs = np.linspace(0.0, 10.0, 1001)
    spec = tabulated(xs, np.exp(-0.3 * xs ** 2))
    assert spec.symbol(2.0) == pytest.approx(math.exp(-1.2), abs=1e-4)
    assert spec.symbol(-2.0) == spec.symbol(2.0)
    with pytest.raises(OutOfRangeError):
        spec.symbol(11.0)


def _gauss(x):
    return np.exp(-0.3 * x ** 2)


def test_tabulated_spline_and_exact_derivative():
    xs = np.linspace(0.0, 10.0, 1001)
    spec = tabulated(xs, _gauss(xs))
    q = np.linspace(0.0, 9.9, 777)
    # a C^2 cubic spline: O(h^4) values, O(h^3) slopes (h = 0.01)
    assert np.abs(spec.symbol(q) - _gauss(q)).max() < 1e-8
    assert np.abs(spec.symbol_deriv(q) + 0.6 * q * _gauss(q)).max() < 1e-6
    # the derivative is the interpolant's own, so its difference quotient matches
    h = 1e-5
    fd = (spec.symbol(q + h) - spec.symbol(q - h)) / (2 * h)
    assert np.abs(fd - spec.symbol_deriv(q)).max() < 1e-8
    assert spec.symbol_deriv(0.0) == 0.0
    with pytest.raises(OutOfRangeError):
        spec.symbol_deriv(11.0)


def test_tabulated_table_listing_both_signs():
    xs = np.linspace(0.0, 10.0, 1001)
    half = tabulated(xs, _gauss(xs))
    both_xs = np.concatenate([-xs[::-1], xs])
    both = tabulated(both_xs, _gauss(both_xs))
    q = np.linspace(-9.9, 9.9, 555)
    assert np.array_equal(both.symbol(q), half.symbol(q))
    assert np.array_equal(both.symbol_deriv(q), half.symbol_deriv(q))
    assert both.params == half.params
    # symmetric samples without xi = 0 (an even count): the even extension
    odd_free = np.linspace(-10.0, 10.0, 1000)
    spec = tabulated(odd_free, _gauss(odd_free))
    assert np.abs(spec.symbol(q) - _gauss(q)).max() < 1e-8
    assert abs(float(spec.symbol_deriv(1e-9))) < 1e-8
    with pytest.raises(ValueError):     # a repeated xi
        tabulated([0.0, 1.0, 1.0], [1.0, 0.5, 0.4])


def test_import_nlgp_leaves_scipy_interpolate_out():
    import os
    import subprocess
    import sys

    import nlgp
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlgp.__file__)))
    code = "import sys, nlgp; sys.exit(int('scipy.interpolate' in sys.modules))"
    run = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0


# ---------------------------------------------------------------------------
# sound speed


def test_sound_speed():
    assert sound_speed(delta()) == pytest.approx(math.sqrt(2.0))
    assert sound_speed(exp_repulsive(1.0, 3.0)) == pytest.approx(math.sqrt(2.0))
    assert sound_speed(berloff(-36.0, 2687.0, 30.0)) == pytest.approx(math.sqrt(2.0))


def test_sound_speed_undefined():
    xs = np.linspace(0.0, 5.0, 100)
    spec = tabulated(xs, -np.ones_like(xs))
    with pytest.raises(NoSoundSpeedError):
        sound_speed(spec)


# ---------------------------------------------------------------------------
# certificates


def _h1(spec):
    return certify_h1(spec, certification_lattice(spec))


def test_certify_h1_shifted_deltas():
    sigma, kappa, _ = _h1(shifted_deltas(0.7))
    assert sigma == pytest.approx(1.0, abs=1e-9)
    assert kappa == 0.0


def test_certify_h1_gaussian_subhalf():
    sigma, kappa, _ = _h1(gaussian(0.3))
    assert sigma == pytest.approx(1.0, abs=1e-6)
    assert kappa == pytest.approx(0.3, abs=1e-3)


def test_certify_h1_gaussian_critical():
    # for lam >= 1/2 the nonnegative-symbol route gives (1 + ln 2 lam)/(2 lam)
    lam = 0.7
    _, _, critical = _h1(gaussian(lam))
    assert critical == pytest.approx((1.0 + math.log(2 * lam)) / (2 * lam), abs=1e-3)


def test_certify_h1_soft_core_kappa():
    # smallest kappa achieving sigma = 1 is lam^2/6; admissible iff lam < sqrt(3)
    for lam in (0.8, 1.0, 1.5):
        sigma, kappa, _ = _h1(soft_core(lam))
        assert sigma == pytest.approx(1.0, abs=1e-6)
        assert kappa == pytest.approx(lam ** 2 / 6.0, abs=1e-3)
        assert (kappa < 0.5) == (lam < math.sqrt(3.0))


def test_certify_h1_berloff():
    sigma, kappa, _ = _h1(berloff(-36.0, 2687.0, 30.0))
    assert sigma == pytest.approx(0.175, abs=1e-3)
    assert 0.0 < kappa < 0.5


def test_certificate_soundness():
    # whenever (sigma, kappa) is returned, W + kappa xi^2 - sigma >= -1e-12 holds
    for spec in ALL_SPECS:
        lattice = certification_lattice(spec)
        sigma, kappa, _ = certify_h1(spec, lattice)
        vals = spec.symbol(lattice) + kappa * lattice ** 2 - sigma
        assert vals.min() >= -1e-12, spec.kind


def test_certify_h1_failure():
    # drops faster than any kappa < 1/2 can compensate
    xs = np.linspace(0.0, 12.0, 4096)
    spec = tabulated(xs, 0.2 - 0.6 * xs ** 2)
    with pytest.raises(CertificationError):
        certify_h1(spec, np.linspace(0.0, 12.0, 2048))


def test_certify_h1_refuses_a_symbol_not_finite_on_the_lattice():
    # b xi^4 overflows on the lattice and exp(-xi^2) underflows: inf * 0 is
    # NaN, which used to give sigma = NaN with overflow warnings
    spec = berloff(1e300, 1e300, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CertificationError, match="not finite"):
            certify_h1(spec, certification_lattice(spec))


def test_inverse_mc_refuses_nan():
    nan_above_1 = PotentialSpec("nan_above_1", {}, lambda xi: np.where(xi > 1.0, np.nan, 1.0),
                                lambda xi: np.zeros_like(xi))
    with pytest.raises(SupersonicMultiplierError):
        inverse_mc(nan_above_1, 0.5, Grid(8.0, 64))


def test_lam_ranges_of_gaussian_and_berloff():
    # gaussian's lam xi^2 overflowed from lam ~ 1e307 on the certification
    # lattice; berloff's symbol grows without bound for lam <= 0
    assert math.isfinite(gaussian(1.3e154).symbol_deriv(LATTICE_MAX * (1 - 1e-15)))
    for make in (lambda: gaussian(1.35e154), lambda: gaussian(1e307),
                 lambda: gaussian(2.0 ** 1023), lambda: berloff(-36.0, 2687.0, 0.0),
                 lambda: berloff(-36.0, 2687.0, -1.0)):
        with pytest.raises(ValueError, match="requires"):
            make()


def test_certify_h3_values():
    def h3(spec):
        return certify_h3(spec, certification_lattice(spec))
    assert h3(delta()) == 0.0
    # shifted deltas: m = -min(sin x / x) * lam^2
    lam = 0.5
    s_min = float(np.min(np.sinc(np.linspace(0, 50, 400001) / np.pi)))
    assert h3(shifted_deltas(lam)) == pytest.approx(-s_min * lam ** 2, rel=1e-4)
    # gaussian: the slope ratio peaks at 2 lam near xi = 0
    assert h3(gaussian(0.3)) == pytest.approx(0.6, rel=1e-3)
    with pytest.raises(CertificationError):
        h3(gaussian(0.6))  # would need m = 1.2 >= 1


def test_certify_full_record():
    cert = certify(exp_repulsive(1.0, 3.0))
    assert cert.sampled
    assert cert.normalized
    assert cert.h2_class == "W2inf"
    assert cert.h4_norm == pytest.approx(5.0)  # (beta + 2 alpha)/(beta - 2 alpha)
    assert cert.m is not None and cert.h3_full
    cert = certify(soft_core(1.0))
    assert any("lam^2/6" in n for n in cert.notes)
    assert not cert.h3_full  # symbol changes sign
    assert certify(bochner_riesz(0.4)).h2_class == "XiDerivBounded"


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_values():
    spec = delta()
    assert dispersion(spec, 0.0) == 0.0
    # w(xi)/|xi| -> sqrt(2 W(0)) as xi -> 0
    xi = 1e-6
    assert dispersion(spec, xi) / xi == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_dispersion_imaginary_branch():
    xs = np.linspace(0.0, 5.0, 64)
    spec = tabulated(xs, -np.ones_like(xs) * 0.9 + 0.0 * xs)
    assert np.isnan(dispersion(spec, np.array([0.5]))[0])


def test_roton_maxon():
    def crit_points(spec):
        return roton_maxon(spec, certification_lattice(spec))
    assert crit_points(delta()) == []
    assert crit_points(gaussian(0.3)) == []
    crit = crit_points(berloff(-36.0, 2687.0, 30.0))
    kinds = [k for _, _, k in crit]
    assert kinds == ["max", "min"]  # one maxon followed by one roton
    (x1, w1, _), (x2, w2, _) = crit
    assert 0 < x1 < x2 and w1 > w2 > 0


def test_dispersion_slope_positive_for_gaussian():
    xs = np.linspace(1e-3, 10.0, 5000)
    w = dispersion(gaussian(0.3), xs)
    assert np.all(np.diff(w) > 0)


# ---------------------------------------------------------------------------
# multiplier and kernel


def test_mc_symbol_values():
    assert mc_symbol(delta(), 1.0, 0.0) == pytest.approx(1.0)
    assert mc_symbol(delta(), math.sqrt(2.0), 0.0) == pytest.approx(0.0, abs=1e-15)
    assert mc_symbol(exp_repulsive(1.0, 3.0), 1.0, 0.0) == pytest.approx(1.0)


def test_mc_symbol_complex_argument_uses_the_analytic_extension():
    z = np.array([0.3 + 0.7j, 1.1 + 0.05j, 2.0j])
    for spec in ALL_SPECS:
        if not spec.analytic:
            continue
        np.testing.assert_array_equal(
            mc_symbol(spec, 0.9, z), z ** 2 + 2.0 * spec.complex_symbol(z) - 0.81)


def test_mc_symbol_on_a_grid_is_the_half_lattice():
    g = Grid(32.0, 512)
    for spec in ALL_SPECS:
        np.testing.assert_array_equal(mc_symbol(spec, 0.9, g),
                                      mc_symbol(spec, 0.9, g.xi_half))


def test_labels():
    # scalar labels are printed by the benchmark record: keep them verbatim
    assert delta().label() == "delta"
    assert gaussian(0.3).label() == "gaussian(lam=0.3)"
    assert exp_repulsive(1.0, 3.0).label() == "exp_repulsive(alpha=1, beta=3)"
    assert bochner_riesz(0.4).label() == "bochner_riesz(kappa=0.4)"
    assert berloff(-36.0, 2687.0, 30.0).label() == "berloff(a=-36, b=2687, lam=30)"
    assert measure_combo([0.3], [1.0]).label() == "measure_combo(weights=[0.3], shifts=[1])"
    assert (measure_combo([0.25, -0.25], [0.0, 1.0]).label()
            == "measure_combo(weights=[0.25, -0.25], shifts=[0, 1])")


def test_mc_positive_under_certificate():
    for spec in ALL_SPECS:
        lattice = certification_lattice(spec)
        sigma, kappa, _ = certify_h1(spec, lattice)
        c = 0.9 * math.sqrt(2.0 * sigma)
        assert np.min(mc_symbol(spec, c, lattice)) > 0.0, spec.kind


# ---------------------------------------------------------------------------
# decay prediction


def test_decay_prediction_delta():
    # the only strip zero of xi^2 + 2 - c^2 sits at i sqrt(2 - c^2)
    for c in (0.5, 1.0, 1.3):
        pred = decay_prediction(delta(), c)
        assert pred.model == "exponential"
        assert pred.value == pytest.approx(math.sqrt(2.0 - c ** 2), abs=1e-9)


def exp_repulsive_decay_rates(alpha: float, beta: float, c: float):
    """Positive roots (beta_1, beta_2) of the quartic numerator of M_c.

    For the rational symbol of ``exp_repulsive``, 1/M_c is a rational function
    whose poles sit at +- i beta_j; the kernel is a sum of two exponentials
    with these rates.
    """
    A = beta / (beta - 2 * alpha)
    # (s + beta^2)(s - c^2) + 2 A (s + beta^2 - 2 alpha beta) = 0,  s = z^2
    coeffs = [1.0,
              beta ** 2 - c ** 2 + 2.0 * A,
              -c ** 2 * beta ** 2 + 2.0 * A * (beta ** 2 - 2.0 * alpha * beta)]
    roots = np.roots(coeffs)
    if np.any(np.abs(roots.imag) > 1e-10) or np.any(roots.real >= 0):
        raise ValueError("expected two negative real roots; is c subsonic?")
    b = np.sort(np.sqrt(-roots.real))
    return float(b[0]), float(b[1])


def test_decay_prediction_exp_repulsive_matches_root_solver():
    for c in (0.6, 1.0):
        b1, b2 = exp_repulsive_decay_rates(1.0, 3.0, c)
        pred = decay_prediction(exp_repulsive(1.0, 3.0), c)
        assert pred.value == pytest.approx(min(b1, b2), abs=1e-8)


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6])
def test_decay_prediction_finds_the_roton_zero(gap):
    # just below the Landau speed c_L = min sqrt(xi^2 + 2 W_hat) the zero
    # that sets the tail sits at the roton, about 0.29 sqrt(c_L - c) above
    # the real axis: below the strip's first sampled row
    a, b, lam = -36.0, 2687.0, 30.0
    spec = berloff(a, b, lam)
    xs = np.linspace(0.5, 0.6, 100001)
    m0 = mc_symbol(spec, 0.0, xs)
    c = math.sqrt(m0.min()) - gap
    z = xs[np.argmin(m0)] + 0.29j * math.sqrt(gap)
    for _ in range(50):  # complex Newton with the symbol's exact derivative
        e = np.exp(-lam * z * z)
        w = (1.0 + a * z * z + b * z ** 4) * e
        dw = (2.0 * a * z + 4.0 * b * z ** 3) * e - 2.0 * lam * z * w
        z -= (z * z + 2.0 * w - c * c) / (2.0 * z + 2.0 * dw)
    assert abs(complex(mc_symbol(spec, c, np.array(z)))) < 1e-14
    pred = decay_prediction(spec, c)
    assert not pred.censored
    assert abs(pred.zero - z) <= 1e-8
    assert pred.value == pytest.approx(z.imag, abs=1e-8)


def test_decay_prediction_models():
    assert decay_prediction(bochner_riesz(0.5), 1.0).model == "algebraic"
    xs = np.linspace(0.0, 20.0, 512)
    assert decay_prediction(tabulated(xs, np.ones_like(xs)), 1.0).model == "unknown"
