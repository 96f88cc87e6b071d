"""Configuration round-trip, CLI commands, exit codes, file formats."""

import base64
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from nlgp import cli, config
from nlgp.errors import ConfigError
from nlgp.io import read_solution


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip():
    cfg = config.RunConfig()
    cfg.potential = {"kind": "gaussian", "lam": 0.3}
    cfg.grid.half_length = 64.0
    cfg.grid.size = 2048
    cfg.seed = 17
    cfg.command = {"c": 1.0, "out": "sol.json"}
    text = config.serialize(cfg)
    back = config.parse(text)
    assert back == cfg
    assert config.serialize(back) == text


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config.parse("[grid]\nhalf_len = 10\n")
    with pytest.raises(ConfigError):
        config.parse("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        config.parse("[solver]\ntol_newton = -1\n")
    with pytest.raises(ConfigError):
        config.parse("[command]\nmu_max = 1\n")


@pytest.mark.parametrize("key", ["input = sol.json", "dir = out"])
def test_config_command_keys_without_a_reader_rejected(key):
    # verify's input and report's dir are required arguments, never config keys
    with pytest.raises(ConfigError):
        config.parse(f"[command]\n{key}\n")


@pytest.mark.parametrize("text, where", [
    ("[solver]\nmax_iter = 5.5\n", "[solver] max_iter"),
    ("[potential]\nkind = gaussian\nlambda = abc\n", "[potential] lambda"),
], ids=["solver_max_iter", "potential_lambda"])
def test_config_unparsable_value_exit_2_naming_key(text, where, tmp_path, capsys):
    with pytest.raises(ConfigError, match=re.escape(where)):
        config.parse(text)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["--config", str(path), "certify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1


def test_config_inline_comment_after_value():
    assert config.parse("[grid]\nsize = 4096 ; note\n").grid.size == 4096


def test_config_readme_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = config.parse(block)
    assert cfg.potential == {"kind": "gaussian", "lambda": 0.3}
    assert cfg.command == {"c": 1.0, "out": "sol.json"}


def test_config_env_override_unparsable(monkeypatch):
    monkeypatch.setenv("NLGP_GRID_N", "abc")
    with pytest.raises(ConfigError, match="NLGP_GRID_N"):
        config.parse("")


def test_config_env_overrides_grid_only(monkeypatch):
    monkeypatch.setenv("NLGP_GRID_L", "32")
    monkeypatch.setenv("NLGP_GRID_N", "512")
    cfg = config.parse("[potential]\nkind = delta\n")
    assert cfg.grid.half_length == 32.0
    assert cfg.grid.size == 512
    assert cfg.solver.tol_newton == 1e-10  # untouched


# ---------------------------------------------------------------------------
# CLI plumbing


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_grid_flags_beat_environment(monkeypatch, capsys):
    # precedence: flags > environment > config file > defaults
    monkeypatch.setenv("NLGP_GRID_L", "64")
    monkeypatch.setenv("NLGP_GRID_N", "512")
    assert run_cli("--json", "solve", "--potential", "delta", "--c", "1",
                   "--L", "32", "--N", "1024") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid"] == {"half_length": 32.0, "size": 1024}


def test_cli_solve_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = run_cli("solve", "--potential", "delta", "--c", "1.0",
                   "--L", "64", "--N", "2048", "--out", str(out))
    assert code == 0
    assert out.exists()
    spec, grid, c, arrays, doc = read_solution(out)
    assert doc["converged"] and c == 1.0
    assert spec.kind == "delta"
    # every emitted verdict is recomputable from the stored payload
    code = run_cli("verify", str(out))
    assert code == 0
    text = capsys.readouterr().out
    for label in ("complex equation residual", "phase limits",
                  "analyticity strip radius", "momentum conditioning: ok"):
        assert label in text
    # the report-only checks against the contact soliton at c = 1: phase jump
    # 2 arctan(sqrt(2 - c^2)/c), eta = (1/2) sech^2(x/2) analytic for |Im x| < pi
    assert run_cli("--json", "verify", str(out)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual_tw"]["sup"] < 1e-8 and doc["residual_tw"]["l2"] < 1e-8
    pl = doc["phase_limits"]
    assert pl["jump"] == pytest.approx(2.0 * math.atan(1.0), abs=1e-6)
    assert pl["theta_plus"] == pytest.approx(-pl["theta_minus"], abs=1e-12)
    assert pl["tail_warning"] is False
    assert 2.5 < doc["analyticity"]["radius"] < math.pi + 0.2
    assert doc["analyticity"]["mu_max"] == cli.ANALYTICITY_MU[-1]
    assert doc["momentum_conditioning_warning"] is None


def test_cli_solve_reports_krylov_iterations(tmp_path, capsys):
    argv = ("solve", "--potential", "gaussian", "--lambda", "0.3", "--c", "1.0",
            "--L", "64", "--N", "2048")
    out = tmp_path / "sol.json"
    assert run_cli("--json", *argv, "--out", str(out)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["krylov_iters"] > doc["newton_iters"] >= 1
    assert read_solution(out)[4]["krylov_iters"] == doc["krylov_iters"]
    assert run_cli(*argv) == 0
    assert (f"converged in {doc['newton_iters']} Newton iterations "
            f"({doc['krylov_iters']} Krylov)") in capsys.readouterr().out
    # files written before the count existed still verify
    old = tmp_path / "old.json"
    old.write_text(json.dumps({k: v for k, v in read_solution(out)[4].items()
                               if k != "krylov_iters"}))
    assert run_cli("verify", str(old)) == 0
    capsys.readouterr()


def test_cli_verify_exit_ignores_the_report_only_checks(tmp_path, capsys):
    # a fat tail on a short domain warns, yet the identities pass and so does verify
    from nlgp import Grid, delta, initial_guess, newton_solve
    from nlgp.io import write_solution
    grid = Grid(8.0, 256)
    out = tmp_path / "sol.json"
    write_solution(out, newton_solve(delta(), grid, 0.4, initial_guess(grid, 0.4)))
    assert run_cli("--json", "verify", str(out)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["phase_limits"]["tail_warning"] is True and doc["pass"] is True


def test_cli_solve_supersonic_exit_5(capsys):
    assert run_cli("solve", "--potential", "delta", "--c", "1.5") == 5
    capsys.readouterr()


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nnosuchkey = 3\n")
    assert run_cli("--config", str(bad), "solve", "--c", "1.0") == 2
    assert run_cli("solve", "--potential", "nosuchkernel", "--c", "1.0") == 2
    capsys.readouterr()


@pytest.mark.parametrize("line", [
    "tol_newton = 0", "tol_newton = nan", "tol_newton = inf",
    "krylov_tol = 0", "krylov_tol = 1", "krylov_tol = nan",
    "max_iter = 0", "dc_init = 1e-6", "dc_init = nan", "dc_init = inf",
])
def test_cli_solver_value_out_of_range_exit_2_naming_key(line, tmp_path, capsys):
    # each value reached the solver and came back as its failure, or passed
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[solver]\n{line}\n")
    assert run_cli("--config", str(bad), "solve", "--c", "1.0") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [solver] {line.split()[0]} ")
    assert len(err.strip().splitlines()) == 1


def test_cli_auto_refine_is_an_unknown_key(tmp_path, capsys):
    # solve_auto always refines exponential tails; there is no switch
    bad = tmp_path / "old.ini"
    bad.write_text("[grid]\nauto_refine = true\n")
    with pytest.raises(ConfigError, match=re.escape("unknown key [grid] auto_refine")):
        config.parse(bad.read_text())
    assert run_cli("--config", str(bad), "solve", "--c", "1.0") == 2
    capsys.readouterr()


def test_cli_unparsable_kernel_flag_exit_2_one_line(capsys):
    assert run_cli("solve", "--potential", "gaussian", "--lam", "abc", "--c", "1.0") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --lam") and len(err.strip().splitlines()) == 1


def test_cli_certify_berloff_json(capsys):
    code = run_cli("--json", "certify", "--potential", "berloff",
                   "--a", "-36", "--b", "2687", "--lambda", "30")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] == pytest.approx(0.175, abs=1e-3)
    assert doc["sampled"] is True


def test_cli_dispersion_roton_maxon(capsys, tmp_path):
    out = tmp_path / "disp.csv"
    code = run_cli("--json", "dispersion", "--potential", "berloff",
                   "--a", "-36", "--b", "2687", "--lambda", "30",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    kinds = [cp["type"] for cp in doc["critical_points"]]
    assert kinds == ["max", "min"]
    assert out.exists()
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[1] == 2


def test_cli_reproducible_json(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("solve", "--potential", "gaussian", "--lambda", "0.3",
                       "--c", "0.8", "--L", "64", "--N", "2048",
                       "--seed", "7", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_branch_csv(tmp_path, capsys):
    out = tmp_path / "branch.csv"
    code = run_cli("branch", "--potential", "delta", "--c-from", "0.6",
                   "--c-to", "1.0", "--L", "64", "--N", "2048",
                   "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "c,E,p,J,eta_max,min_rho,decay_rate_fit,newton_iters"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 0]) > 0)
    # the fit window [0.55 L, 0.85 L] of the c = 0.6 tail lies below roundoff
    assert math.isnan(data[0, 6])
    capsys.readouterr()


def test_cli_branch_csv_fits_each_member(tmp_path, capsys):
    # oracle: the contact tail decays at sqrt(2 - c^2)
    out = tmp_path / "branch.csv"
    assert run_cli("branch", "--potential", "delta", "--c-from", "0.6",
                   "--c-to", "1.0", "--L", "16", "--N", "512", "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 6], np.sqrt(2.0 - data[:, 0] ** 2), rtol=1e-3)
    capsys.readouterr()


def test_cli_branch_reports_identity_failures(capsys):
    # on the default grid (h = 1/16) the near-vortex members below c ~ 0.3
    # converge but fail the identity suite; each is listed and the exit is 4
    code = run_cli("--json", "branch", "--potential", "delta", "--c-from", "0.1")
    assert code == cli.EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    fails = doc["identity_failures"]
    assert 0 < len(fails) < doc["members"]
    assert fails[0]["c"] == 0.1
    assert all(f["max_residual"] > 1e-6 for f in fails)
    assert [f["c"] for f in fails] == [r[0] for r in doc["rows"][:len(fails)]]


def test_cli_branch_text_names_failing_members(capsys):
    code = run_cli("branch", "--potential", "delta", "--c-from", "0.1",
                   "--c-to", "0.15")
    assert code == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "fail the identity suite" in out
    assert "c = 0.1:" in out


def test_cli_branch_reversed_range_exits_2(capsys):
    code = run_cli("branch", "--potential", "delta", "--c-from", "0.5",
                   "--c-to", "0.3")
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "reversed" in captured.err


def test_cli_branch_reports_rejected_steps(fail_nth_solve, capsys):
    argv = ("branch", "--potential", "delta", "--c-from", "0.6", "--c-to", "0.9",
            "--L", "64", "--N", "2048")
    assert run_cli("--json", *argv) == 0
    assert json.loads(capsys.readouterr().out)["rejected_steps"] == []
    fail_nth_solve(3)
    assert run_cli("--json", *argv) == 0
    doc = json.loads(capsys.readouterr().out)
    [step] = doc["rejected_steps"]
    assert step["status"] == "newton_failed"
    assert step["c"] not in [r[0] for r in doc["rows"]]
    fail_nth_solve(3)
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    assert "1 rejected steps, each halving the step:" in out
    assert f"c = {step['c']:g}: newton_failed after" in out


def test_cli_decay_command(capsys):
    code = run_cli("--json", "decay", "--potential", "delta", "--c", "1.0")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["prediction"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert doc["fit_exponential"]["rate"] == pytest.approx(1.0, rel=0.05)
    assert doc["selected"] == "exponential"


def test_cli_verify_detects_corruption(tmp_path, capsys):
    out = tmp_path / "sol.json"
    run_cli("solve", "--potential", "delta", "--c", "1.0",
            "--L", "64", "--N", "2048", "--out", str(out))
    doc = json.loads(out.read_text())
    rho = np.frombuffer(base64.b64decode(doc["payload"]["rho"]), dtype="<f8").copy()
    rho[100:200] *= 0.9
    doc["payload"]["rho"] = base64.b64encode(rho.tobytes()).decode()
    out.write_text(json.dumps(doc))
    assert run_cli("verify", str(out)) == 4
    capsys.readouterr()


@pytest.fixture(scope="module")
def solution_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("sol") / "sol.json"
    assert run_cli("solve", "--potential", "delta", "--c", "1.0",
                   "--L", "32", "--N", "512", "--out", str(out)) == 0
    return json.loads(out.read_text())


def _without_payload(doc):
    return {k: v for k, v in doc.items() if k != "payload"}


def _short_rho(doc):
    short = base64.b64encode(np.ones(doc["grid"]["size"] - 1).tobytes()).decode()
    return {**doc, "payload": {**doc["payload"], "rho": short}}


@pytest.mark.parametrize("corrupt", [lambda doc: {"a": 1}, _without_payload, _short_rho],
                         ids=["wrong_format", "missing_key", "wrong_length"])
def test_cli_verify_bad_file_exit_2_one_line(corrupt, solution_doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(solution_doc)))
    capsys.readouterr()
    assert run_cli("verify", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1


def test_cli_report(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    run_cli("solve", "--potential", "delta", "--c", "1.0",
            "--L", "64", "--N", "2048", "--out", str(sol))
    md = tmp_path / "summary.md"
    assert run_cli("report", "--dir", str(tmp_path), "--out", str(md)) == 0
    text = md.read_text()
    assert "delta" in text and "| file |" in text.replace("file |", "file |")
    capsys.readouterr()


def test_cli_report_names_skipped_files(tmp_path, capsys):
    # a file that is not a JSON object, a solution file with a malformed spec,
    # unparsable text and an unreadable path are each skipped and named
    sol = tmp_path / "sol.json"
    run_cli("solve", "--potential", "delta", "--c", "1.0",
            "--L", "64", "--N", "2048", "--out", str(sol))
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "badspec.json").write_text(
        json.dumps({"format": "nlgp-solution-v1", "spec": "delta", "c": 1.0}))
    (tmp_path / "broken.json").write_text("{not json")
    (tmp_path / "dir.json").mkdir()
    capsys.readouterr()
    assert run_cli("report", "--dir", str(tmp_path)) == 0
    captured = capsys.readouterr()
    assert "| sol.json | delta |" in captured.out
    for name in ("list.json", "badspec.json", "broken.json", "dir.json"):
        assert f"* {name}: " in captured.out
    assert "Traceback" not in captured.err


def test_cli_tabulated_from_csv(tmp_path, capsys):
    # table must span the certification lattice (out to 10^3 c*)
    xs = np.linspace(0.0, 1500.0, 200001)
    table = tmp_path / "symbol.csv"
    np.savetxt(table, np.column_stack([xs, np.exp(-0.3 * xs ** 2)]), delimiter=",")
    code = run_cli("--json", "certify", "--potential", "tabulated",
                   "--file", str(table))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] == pytest.approx(1.0, abs=1e-3)


def _gaussian_table(path):
    """The smooth 4001-sample table on which a linear interpolant failed the
    identity suite at 2e-4."""
    xs = np.linspace(0.0, 200.0, 4001)
    np.savetxt(path, np.column_stack([xs, np.exp(-0.3 * xs ** 2)]), delimiter=",")
    return path


@pytest.fixture(scope="module")
def tabulated_solution(tmp_path_factory):
    d = tmp_path_factory.mktemp("tab")
    table, out = _gaussian_table(d / "symbol.csv"), d / "sol.json"
    code = run_cli("solve", "--potential", "tabulated", "--file", str(table),
                   "--c", "0.8", "--out", str(out))
    return code, out


def test_cli_tabulated_solve_and_verify(tabulated_solution, capsys):
    code, out = tabulated_solution
    assert code == 0
    assert run_cli("verify", str(out)) == 0
    capsys.readouterr()


def test_cli_verify_tabulated_without_table_exit_2(tabulated_solution, tmp_path, capsys):
    doc = json.loads(tabulated_solution[1].read_text())
    del doc["spec"]["table"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert "table" in err


@pytest.mark.parametrize("content", [None, "0.0,1.0\n0.5,abc\n", "0.0,1.0\n"],
                         ids=["missing", "unparsable", "one_row"])
def test_cli_bad_table_exit_2_one_line(content, tmp_path, capsys):
    table = tmp_path / "symbol.csv"
    if content is not None:
        table.write_text(content)
    for cmd in (("certify",), ("solve", "--c", "0.8")):
        capsys.readouterr()
        assert run_cli(*cmd, "--potential", "tabulated", "--file", str(table)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1


def test_cli_mpass(capsys, tmp_path):
    out = tmp_path / "bracket.json"
    code = run_cli("--json", "mpass", "--potential", "delta", "--c", "1.0",
                   "--L", "64", "--N", "1024", "--refine-steps", "40",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lower"] > 0
    assert doc["phi_params"]["delta"] > 0
    saved = json.loads(out.read_text())
    assert saved["upper"] == doc["upper"]


def test_cli_mpass_out_of_regime_exit_5(capsys):
    assert run_cli("mpass", "--potential", "delta", "--c", "1.45") == 5
    err = capsys.readouterr().err
    assert err.startswith("out of regime: ") and len(err.strip().splitlines()) == 1


def test_cli_sonic(capsys, tmp_path):
    out = tmp_path / "sonic.csv"
    code = run_cli("--json", "sonic", "--potential", "delta", "--out", str(out))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["gamma"] - 1.0) < 0.02
    assert doc["nonvanishing_ok"] is True
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[1] == 6


def test_cli_sonic_lists_skipped_gaps(capsys, monkeypatch):
    from nlgp import solver
    sweep = solver.sonic_sweep

    def with_unreachable_gap(spec, opts, **kwargs):
        return sweep(spec, opts, gaps=[0.2, 0.1, 1e-9], **kwargs)

    monkeypatch.setattr(solver, "sonic_sweep", with_unreachable_gap)
    assert run_cli("sonic", "--potential", "delta") == 0
    assert "skipped gaps (no convergence): 1e-09" in capsys.readouterr().out
    assert run_cli("--json", "sonic", "--potential", "delta") == 0
    assert json.loads(capsys.readouterr().out)["skipped_gaps"] == [1e-9]


# ---------------------------------------------------------------------------
# [command] keys: flags > config file > defaults


def _dispersion_csv(tmp_path, cfg_text, *flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[potential]\nkind = delta\n" + cfg_text)
    out = tmp_path / "disp.csv"
    assert run_cli("--config", str(cfg), "dispersion", "--out", str(out), *flags) == 0
    return np.loadtxt(out, delimiter=",", skiprows=1)


def test_cli_command_key_n(tmp_path, capsys):
    assert len(_dispersion_csv(tmp_path, "[command]\nn = 17\n")) == 17
    assert len(_dispersion_csv(tmp_path, "[command]\nn = 17\n", "--n", "9")) == 9
    assert len(_dispersion_csv(tmp_path, "")) == 2048
    assert len(_dispersion_csv(tmp_path, "[command]\nn = 3\n")) == 3    # the least


@pytest.mark.parametrize("argv, cfg_text, name", [
    (("dispersion", "--n", "-1"), "", "--n ([command] n)"),
    (("dispersion",), "[command]\nn = -1\n", "--n ([command] n)"),
    # fewer than three dispersion samples leave the slope unsampled, so no
    # claim about monotonicity or critical points could be made
    (("dispersion", "--n", "0"), "", "--n ([command] n) must be >= 3"),
    (("dispersion", "--n", "1"), "", "--n ([command] n) must be >= 3"),
    (("dispersion",), "[command]\nn = 2\n", "--n ([command] n) must be >= 3"),
    (("mpass", "--c", "1.0", "--refine-steps", "-5"), "",
     "--refine-steps ([command] refine_steps)"),
    (("mpass", "--c", "1.0"), "[command]\nrefine_steps = -5\n",
     "--refine-steps ([command] refine_steps)"),
    # verify's verdict rests on --tol: inf would pass every file, and 0, -1
    # or nan fail every file with a message that does not name the tolerance
    *[(("verify", "sol.json", "--tol", tol), "", "--tol must be finite and positive")
      for tol in ("inf", "nan", "0", "-1")],
], ids=["n_flag", "n_key", "n_flag_0", "n_flag_1", "n_key_2", "refine_steps_flag",
        "refine_steps_key", "tol_inf", "tol_nan", "tol_0", "tol_neg"])
def test_cli_negative_count_exit_2(argv, cfg_text, name, solution_doc, tmp_path,
                                   monkeypatch, capsys):
    (tmp_path / "sol.json").write_text(json.dumps(solution_doc))  # a file verify passes
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[potential]\nkind = delta\n" + cfg_text)
    assert run_cli("--config", str(cfg), *argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and name in err[0]


def test_cli_command_key_xi_max(tmp_path, capsys):
    data = _dispersion_csv(tmp_path, "[command]\nxi_max = 3.5\nn = 8\n")
    assert data[-1, 0] == 3.5
    data = _dispersion_csv(tmp_path, "[command]\nxi_max = 3.5\nn = 8\n",
                           "--xi-max", "2.5")
    assert data[-1, 0] == 2.5
    data = _dispersion_csv(tmp_path, "[command]\nn = 8\n")
    assert data[-1, 0] == pytest.approx(8.0 * math.sqrt(2.0))   # 8 c*


def test_cli_command_key_refine_steps(tmp_path, monkeypatch, capsys):
    from nlgp import functionals
    seen = []
    bracket = functionals.mountain_pass_bracket

    def spy(*args, refine_steps, **kwargs):
        seen.append(refine_steps)
        return bracket(*args, refine_steps=refine_steps, **kwargs)
    monkeypatch.setattr(functionals, "mountain_pass_bracket", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[potential]\nkind = delta\n[grid]\nhalf_length = 32\n"
                   "size = 256\n[command]\nc = 1.0\nrefine_steps = 3\n")
    assert run_cli("--config", str(cfg), "mpass") == 0
    assert run_cli("--config", str(cfg), "mpass", "--refine-steps", "2") == 0
    assert seen == [3, 2]
