"""Random atomic kernels: a certified speed gives a soliton that passes the
identity suite, and its solution file passes ``nlgp verify``.  Off solutions,
the identities that carry evidence fail."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlgp import (CertificationError, Grid, assemble, certify, cli, delta,
                  exp_repulsive, gaussian, identity_suite, initial_guess,
                  measure_combo, newton_solve)
from nlgp.io import write_solution

GRID = Grid(128.0, 4096)

# Speeds run from 0.4 to 0.95 of the certified speed, what this fixed grid
# resolves: below c ~ 0.3 the spacing 1/16 misses the near-vortex core, and
# near the certified speed the tail outlives L = 128.  Shifts stop at 2:
# longer shifts with negative weights can leave the contact seed outside the
# soliton's basin.
_atoms = st.integers(1, 2).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))


@st.composite
def certified_kernels(draw):
    weights, shifts = draw(_atoms)
    try:
        spec = measure_combo(weights, shifts)   # |mu^-| < 1 defines the kernel
        cert = certify(spec)
    except (ValueError, CertificationError):
        assume(False)
    assume(0.95 * cert.certified_speed > 0.4)
    c = draw(st.floats(0.4, 0.95 * cert.certified_speed))
    return spec, c


def _solve(spec, c):
    return newton_solve(spec, GRID, c, initial_guess(GRID, c))


@settings(max_examples=8, derandomize=True, deadline=None)
@given(certified_kernels())
# A draw that fails: amplitude A = 8 deepens the trough to min rho = 0.24,
# and at spacing 1/16 kinetic_flux misses by 2.5e-6 (4e-11 at spacing 1/32).
@example(kernel=(measure_combo([-0.5, -0.375], [0.0, 2.0]), 0.4375)).xfail(
    raises=AssertionError, reason="spacing 1/16 does not resolve the core")
def test_random_measure_kernel_solves_and_passes_identities(kernel):
    spec, c = kernel
    sol = _solve(spec, c)
    assert sol.converged, sol.status
    assert sol.identity_report.passed, sol.identity_report.max_residual


@settings(max_examples=8, derandomize=True, deadline=None)
@given(certified_kernels())
def test_random_measure_kernel_file_verifies(tmp_path_factory, kernel):
    spec, c = kernel
    path = tmp_path_factory.mktemp("sol") / "sol.json"
    write_solution(path, _solve(spec, c))
    assert cli.main(["verify", str(path)]) == cli.EXIT_OK


# phase_current, first_integral and kinetic_closure hold by the assembly of
# theta' from rho (roundoff on any even amplitude), so nothing is asserted of them
@pytest.mark.parametrize("spec", [delta(), gaussian(0.3), exp_repulsive(1.0, 3.0)],
                         ids=["delta", "gaussian", "exp_repulsive"])
@pytest.mark.parametrize("k", [0.5, 2.0, 3.0])
def test_evidence_identities_fail_off_solutions(spec, k):
    rho = initial_guess(GRID, 1.0) ** k     # even, admissible, not a solution
    report = identity_suite(assemble(GRID, rho, 1.0, spec))
    for name in ("elliptic", "kinetic_flux", "pohozaev", "action_identity"):
        assert report[name].residual_rel > report.tol, (name, report[name])
