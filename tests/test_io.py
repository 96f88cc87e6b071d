"""Solution files: every catalog kind round-trips bit-for-bit, and both formats
are read."""

import json

import numpy as np
import pytest

from nlgp import (Grid, SolitonSolution, assemble, berloff, bochner_riesz, cli, delta,
                  exp_repulsive, gaussian, initial_guess, measure_combo, newton_solve,
                  shifted_deltas, soft_core, tabulated)
from nlgp.errors import ConfigError
from nlgp.io import _encode, read_solution, solution_to_dict, write_solution
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
    sol = SolitonSolution(fields=f, status="converged",
                          newton_iters=0, krylov_iters=0, residual_sup=1e-12,
                          residual_l2=1e-12)
    path, extra = tmp_path / "sol.json", {"tail": 1e-15, "coarse_level": "contact seed"}
    doc = write_solution(path, sol, extra=extra)
    assert doc == solution_to_dict(sol, extra)
    assert path.read_text() == json.dumps(doc, indent=1)


def test_write_solution_is_json_dumps_with_awkward_members(tmp_path):
    # the file is json.dumps(doc, indent=1) byte for byte, nested members,
    # escapes and non-finite floats included
    grid = Grid(16.0, 512)
    f = assemble(grid, np.sqrt(1.0 - 0.5 / np.cosh(0.5 * grid.x) ** 2), 0.7,
                 tabulated(_XS, np.exp(-0.3 * _XS ** 2)))
    sol = SolitonSolution(fields=f, status="converged",
                          newton_iters=0, krylov_iters=0, residual_sup=1e-12,
                          residual_l2=1e-12)
    extra = {"tail": float("nan"), "coarse_level": {"size": 1024, "half_length": 32.0},
             "note": 'a "quoted"\nline \u00e9', "empty": {}, "list": [1, [2, {}], []]}
    path = tmp_path / "sol.json"
    doc = write_solution(path, sol, extra=extra)
    assert "w" in doc["spec"]["table"]
    assert doc["payload"].keys() == {"encoding", "rho"}
    assert path.read_text() == json.dumps(doc, indent=1)


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
def test_solution_file_roundtrip(spec, tmp_path):
    grid = Grid(16.0, 512)
    c = 0.7
    rho = np.sqrt(1.0 - 0.5 / np.cosh(0.5 * grid.x) ** 2)
    f = assemble(grid, rho, c, spec)
    sol = SolitonSolution(fields=f, status="converged",
                          newton_iters=0, krylov_iters=0, residual_sup=1e-12,
                          residual_l2=1e-12)
    path = tmp_path / "sol.json"
    write_solution(path, sol)
    back, g, c_back, arrays, _ = read_solution(path)
    assert g == grid and c_back == c and arrays.keys() == {"rho"}
    # the file stores rho alone; the fields assembled from it are the solution's
    fields = assemble(g, arrays["rho"], c_back, back)
    for name in ("rho", "theta", "eta"):
        assert np.array_equal(getattr(fields, name), getattr(f, name))
    assert back.kind == spec.kind and back.params == spec.params
    assert np.array_equal(back.lattice_symbol(grid), spec.lattice_symbol(grid))


def _as_v1(doc, fields):
    """``doc`` as the first format wrote it, with theta and eta in the payload."""
    payload = {**doc["payload"], "theta": _encode(fields.theta), "eta": _encode(fields.eta)}
    return {**doc, "format": "nlgp-solution-v1", "payload": payload}


@pytest.fixture(scope="module")
def gaussian_solution():
    grid = Grid(64.0, 2048)
    sol = newton_solve(gaussian(0.3), grid, 1.0, initial_guess(grid, 1.0))
    assert sol.converged and sol.identity_report.passed
    return sol


def test_a_v1_file_verifies_as_its_v2_file_does(gaussian_solution, tmp_path, capsys):
    # a v1 file's theta and eta are ignored: verify reads rho alone
    path, outputs = tmp_path / "sol.json", []
    v2 = write_solution(path, gaussian_solution)
    for text in (path.read_text(), json.dumps(_as_v1(v2, gaussian_solution.fields), indent=1)):
        path.write_text(text)
        for argv in (["verify", str(path)], ["--json", "verify", str(path)]):
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
    assert json.loads(path.read_text())["payload"].keys() == {"encoding", "rho", "theta", "eta"}
    assert outputs[:2] == outputs[2:]


def test_report_lists_both_formats(gaussian_solution, tmp_path, capsys):
    v2 = write_solution(tmp_path / "v2.json", gaussian_solution)
    (tmp_path / "v1.json").write_text(json.dumps(_as_v1(v2, gaussian_solution.fields)))
    (tmp_path / "v9.json").write_text(json.dumps({**v2, "format": "nlgp-solution-v9"}))
    assert cli.main(["report", "--dir", str(tmp_path)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if ".json |" in line]
    assert [row.split(" | ")[:2] for row in rows] == [["| v1.json", "gaussian"],
                                                      ["| v2.json", "gaussian"]]
    assert rows[0].split(" | ")[2:] == rows[1].split(" | ")[2:]


def _replaced(doc, where, value):
    """doc with the member at the dotted path ``where`` replaced by value(member)."""
    head, _, rest = where.partition(".")
    return {**doc, head: _replaced(doc[head], rest, value) if rest else value(doc[head])}


@pytest.mark.parametrize("where, value", [
    ("spec.params.lam", lambda v: float("nan")), ("spec.params.lam", lambda v: True),
    ("spec.params.lam", str), ("grid.size", float), ("grid.half_length", str)],
    ids=["lam_nan", "lam_true", "lam_string", "size_float", "half_length_string"])
def test_verify_names_a_file_number_of_the_wrong_type(where, value, gaussian_solution,
                                                      tmp_path, capsys):
    # exit 2 with one line naming the member, as a nan --lambda flag does:
    # these read as c* = nan (exit 5), as gaussian(1) (exit 4, no message),
    # or raised a TypeError that named no member
    path = tmp_path / "sol.json"
    doc = write_solution(path, gaussian_solution)
    path.write_text(json.dumps(_replaced(doc, where, value)))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert f" {where} " in err


def test_verify_names_a_huge_grid_size(gaussian_solution, tmp_path, capsys):
    # Grid formed 2L / N first: OverflowError('int too large to convert to
    # float'), a message that named no member
    path = tmp_path / "sol.json"
    doc = write_solution(path, gaussian_solution)
    path.write_text(json.dumps(_replaced(doc, "grid.size", lambda v: 2 ** 2000)))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == cli.EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"config error: {path}: grid.half_length, grid.size: "
                    f"grid size {2 ** 2000} is too large to allocate")


def test_read_solution_checks_each_number_of_a_list_param(tmp_path):
    spec = measure_combo([0.25, -0.25], [0.0, 1.0])
    grid = Grid(16.0, 512)
    f = assemble(grid, np.ones(grid.size), 0.7, spec)
    sol = SolitonSolution(fields=f, status="converged", newton_iters=0,
                          krylov_iters=0, residual_sup=1e-12, residual_l2=1e-12)
    path = tmp_path / "sol.json"
    doc = write_solution(path, sol)
    path.write_text(json.dumps(_replaced(doc, "spec.params.shifts", lambda v: [0.0, "1"])))
    with pytest.raises(ConfigError, match=r"spec\.params\.shifts\[1\] must be a finite number"):
        read_solution(path)
