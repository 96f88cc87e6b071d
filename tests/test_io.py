"""Solution files: every catalog kind round-trips bit-for-bit."""

import json

import numpy as np
import pytest

from nlgp import (Grid, SolitonSolution, assemble, berloff, bochner_riesz, delta,
                  exp_repulsive, gaussian, measure_combo, shifted_deltas,
                  soft_core, tabulated)
from nlgp.io import read_solution, solution_to_dict, write_solution
from nlgp.potentials import CATALOG

_XS = np.linspace(0.0, 120.0, 2001)
KINDS = [delta(), exp_repulsive(1.0, 3.0), shifted_deltas(0.5), gaussian(0.3),
         soft_core(1.0), bochner_riesz(0.4), berloff(-36.0, 2687.0, 30.0),
         measure_combo([0.25, -0.25], [0.0, 1.0]),
         tabulated(_XS, np.exp(-0.3 * _XS ** 2))]


def test_kinds_cover_catalog():
    assert {s.kind for s in KINDS} == set(CATALOG)


def test_write_solution_returns_the_document_it_wrote(tmp_path):
    # nlgp solve --out prints this document instead of encoding it again
    grid = Grid(16.0, 512)
    f = assemble(grid, np.sqrt(1.0 - 0.5 / np.cosh(0.5 * grid.x) ** 2), 0.7, delta())
    sol = SolitonSolution(fields=f, converged=True, status="converged",
                          newton_iters=0, krylov_iters=0, residual_sup=1e-12,
                          residual_l2=1e-12)
    path, extra = tmp_path / "sol.json", {"tail": 1e-15, "coarse_level": "contact seed"}
    doc = write_solution(path, sol, extra=extra)
    assert doc == solution_to_dict(sol, extra)
    assert path.read_text() == json.dumps(doc, indent=1)


def test_write_solution_splices_the_payload_unscanned(tmp_path, monkeypatch):
    # the file is json.dumps(doc, indent=1) byte for byte, nested members,
    # escapes and non-finite floats included, yet no payload string reaches
    # the JSON string encoder
    import json.encoder
    grid = Grid(16.0, 512)
    f = assemble(grid, np.sqrt(1.0 - 0.5 / np.cosh(0.5 * grid.x) ** 2), 0.7,
                 tabulated(_XS, np.exp(-0.3 * _XS ** 2)))
    sol = SolitonSolution(fields=f, converged=True, status="converged",
                          newton_iters=0, krylov_iters=0, residual_sup=1e-12,
                          residual_l2=1e-12)
    extra = {"tail": float("nan"), "coarse_level": {"size": 1024, "half_length": 32.0},
             "note": 'a "quoted"\nline \u00e9', "empty": {}, "list": [1, [2, {}], []]}
    encoded = []

    def spy(s, _encode=json.encoder.encode_basestring_ascii):
        encoded.append(s)
        return _encode(s)
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", spy)
    path = tmp_path / "sol.json"
    doc = write_solution(path, sol, extra=extra)
    assert "w" in doc["spec"]["table"] and len(encoded) > 20
    assert not set(encoded) & {doc["payload"][k] for k in ("rho", "theta", "eta")}
    monkeypatch.undo()
    assert path.read_text() == json.dumps(doc, indent=1)


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
def test_solution_file_roundtrip(spec, tmp_path):
    grid = Grid(16.0, 512)
    c = 0.7
    rho = np.sqrt(1.0 - 0.5 / np.cosh(0.5 * grid.x) ** 2)
    f = assemble(grid, rho, c, spec)
    sol = SolitonSolution(fields=f, converged=True, status="converged",
                          newton_iters=0, krylov_iters=0, residual_sup=1e-12,
                          residual_l2=1e-12)
    path = tmp_path / "sol.json"
    write_solution(path, sol)
    back, g, c_back, arrays, _ = read_solution(path)
    assert g == grid and c_back == c
    for name in ("rho", "theta", "eta"):
        assert np.array_equal(arrays[name], getattr(f, name))
    assert back.kind == spec.kind and back.params == spec.params
    assert np.array_equal(back.lattice_symbol(grid), spec.lattice_symbol(grid))
