"""Dark solitons of the one-dimensional nonlocal Gross-Pitaevskii equation.

Traveling profiles u(x - ct) with |u| -> 1 at infinity solve

    i c u' + u'' + u (W * (1 - |u|^2)) = 0,

where the interaction kernel W acts through its Fourier symbol.  The package
computes these profiles by preconditioned Newton-Krylov iteration on the
equivalent scalar amplitude equation, continues them in speed, and verifies
the conserved identities, a priori bounds, decay rates, and mountain-pass
geometry that finite-energy solutions must satisfy.
"""

from .errors import (CertificationError, ConfigError, GridTooSmallError,
                     NlgpError, NoSoundSpeedError, OutOfRangeError,
                     OutOfRegimeError, SupersonicMultiplierError,
                     UnderresolvedTailError, VortexError)
from .potentials import (CATALOG, HypothesisCertificate, PotentialSpec,
                         berloff, bochner_riesz, certify, certify_h1,
                         certify_h3, decay_prediction, delta, dispersion,
                         exp_repulsive, gaussian, make_potential, mc_symbol,
                         measure_combo, roton_maxon, shifted_deltas, soft_core,
                         sound_speed, tabulated)
from .spectral import Grid, convolve, derivative, integrate
from .hydro import (WaveFields, assemble, energy, identity_suite, momentum,
                    nonvanishing_check, residual_rho, residual_tw)
from .functionals import (build_phi_c, functional_J, grad_J,
                          mountain_pass_bracket, pairing_identity,
                          sphere_bound)
from .solver import (SolitonBranch, SolitonSolution, SolverOptions,
                     continue_branch, initial_guess, newton_solve, solve_auto,
                     sonic_sweep)
from .analysis import (DecayFit, analyticity_proxy, fit_algebraic,
                       fit_exponential, phase_limits, symmetry_metrics)

__version__ = "0.1.0"
