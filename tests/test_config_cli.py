"""Configuration round-trip, CLI commands, exit codes, file formats."""

import base64
import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from nlgp import cli, config, solver
from nlgp.errors import ConfigError
from nlgp.hydro import IDENTITY_TOL
from nlgp.io import read_solution


# ---------------------------------------------------------------------------
# config


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


@pytest.mark.parametrize("text", ["[grid]\nsize = 512\ngarbage\nmore garbage\n",
                                  "garbage\n[grid]\n"],
                         ids=["two_bad_lines", "no_section_header"])
def test_config_parsing_errors_exit_2_one_line(text, tmp_path, capsys):
    # configparser names each offending line on a line of its own
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["--config", str(path), "certify"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: malformed config: ") and "garbage" in line


def test_config_inline_comment_after_value():
    assert config.parse("[grid]\nsize = 4096 ; note\n").grid.size == 4096


def test_config_readme_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = config.parse(block)
    assert cfg.potential == {"kind": "gaussian", "lambda": 0.3}
    assert cfg.command == {"c": 1.0, "out": "sol.json"}


def test_config_run_section_rejected_one_line(tmp_path, capsys):
    # nothing a command runs is random, so there is no seed to configure
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 0\n")
    assert cli.main(["--config", str(path), "certify"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: unknown section [run]\n"


# ---------------------------------------------------------------------------
# CLI plumbing


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_grid_ignores_the_environment(monkeypatch, capsys):
    # a run's grid comes from its flags, its config file and the defaults
    # alone
    monkeypatch.setenv("NLGP_GRID_L", "32")
    monkeypatch.setenv("NLGP_GRID_N", "512")
    assert run_cli("--json", "solve", "--potential", "delta", "--c", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid"] == {"half_length": 128.0, "size": 4096}


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
                  "analyticity strip half-width", "momentum conditioning: ok",
                  "first_integral     pass residual"):
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
    assert doc["analyticity"]["strip"] == pytest.approx(math.pi, abs=1e-3)
    assembly = [e["name"] for e in doc["identity"]["entries"] if e["by_construction"]]
    assert assembly == ["phase_current", "first_integral", "kinetic_closure"]
    assert doc["momentum_conditioning_warning"] is None


def test_cli_solve_reports_momentum_conditioning(capsys):
    # min rho = 0.0356 at c = 0.05 lies below the floor; the near-vortex
    # profile also fails the identity suite on the default grid (exit 4)
    assert run_cli("--json", "solve", "--potential", "delta", "--c", "0.05") == 4
    warning = json.loads(capsys.readouterr().out)["momentum_conditioning_warning"]
    assert warning.startswith("min rho = 0.0356 < 0.05: ")
    assert run_cli("solve", "--potential", "delta", "--c", "0.05") == 4
    assert f"  momentum conditioning: {warning}\n" in capsys.readouterr().out
    assert run_cli("--json", "solve", "--potential", "delta", "--c", "1.0") == 0
    assert json.loads(capsys.readouterr().out)["momentum_conditioning_warning"] is None


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


def test_cli_solve_records_the_coarse_level(tmp_path, capsys):
    argv = ("solve", "--potential", "gaussian", "--lambda", "0.3", "--c", "1.0")
    out = tmp_path / "sol.json"
    assert run_cli("--json", *argv, "--out", str(out)) == 0
    doc = json.loads(capsys.readouterr().out)
    level = doc["coarse_level"]
    assert level["size"] == 1024 and level["half_length"] == 32.0
    assert level["krylov_iters"] >= level["newton_iters"] >= 1
    # the file holds the requested grid's solution and the same record
    saved = read_solution(out)[4]
    assert saved["grid"] == {"half_length": 128.0, "size": 4096}
    assert saved["coarse_level"] == level
    assert run_cli(*argv) == 0
    assert (f"seeded from the N = 1024, L = 32 level ({level['newton_iters']} Newton, "
            f"{level['krylov_iters']} Krylov iterations)") in capsys.readouterr().out
    assert run_cli("verify", str(out)) == 0
    # files written before the record existed still verify
    old = tmp_path / "old.json"
    old.write_text(json.dumps({k: v for k, v in saved.items() if k != "coarse_level"}))
    assert run_cli("verify", str(old)) == 0
    capsys.readouterr()
    # N / 4 = 512 is below the coarse floor: the contact seed is named
    assert run_cli("--json", *argv, "--L", "64", "--N", "2048") == 0
    assert json.loads(capsys.readouterr().out)["coarse_level"] == "contact seed"
    assert run_cli(*argv, "--L", "64", "--N", "2048") == 0
    assert "seeded from the contact seed" in capsys.readouterr().out


def test_cli_verify_takes_both_residuals_from_one_profile(tmp_path, monkeypatch,
                                                         capsys):
    # assemble and the identity suite take 10 transforms, rho'' and theta''
    # 2 each; F reads W*eta from the profile.  18 while residual_rho formed
    # rho'' and W*eta again and residual_tw rho'' once more
    from nlgp.hydro import residual_rho
    out = tmp_path / "sol.json"
    assert run_cli("solve", "--potential", "gaussian", "--lambda", "0.3",
                   "--c", "1.0", "--out", str(out)) == 0
    capsys.readouterr()
    transforms = [0]
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _transform=getattr(np.fft, name), **kwargs):
            transforms[0] += 1
            return _transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    assert run_cli("--json", "verify", str(out)) == 0
    monkeypatch.undo()
    assert transforms[0] <= 14
    doc = json.loads(capsys.readouterr().out)
    spec, grid, c, arrays, _ = read_solution(out)
    assert grid.size == 4096
    assert (doc["residual_sup"], doc["residual_l2"]) == residual_rho(grid, arrays["rho"],
                                                                     c, spec)


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


def test_cli_verify_reports_an_underresolved_strip(tmp_path, capsys):
    # at spacing 1/2 fewer than 20 spectral samples lie in the amplitude band:
    # no strip is fitted, and verify still exits on the identity suite alone
    from nlgp import Grid, delta, initial_guess, newton_solve
    from nlgp.io import write_solution
    grid = Grid(32.0, 64)
    out = tmp_path / "sol.json"
    write_solution(out, newton_solve(delta(), grid, 1.0, initial_guess(grid, 1.0)))
    code = run_cli("--json", "verify", str(out))
    doc = json.loads(capsys.readouterr().out)
    assert doc["analyticity"]["strip"] is None
    assert code == (cli.EXIT_OK if doc["pass"] else cli.EXIT_VERIFY)
    run_cli("verify", str(out))
    assert "analyticity strip half-width (spectral fit): underresolved" in \
        capsys.readouterr().out


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


@pytest.mark.parametrize("n", [2 ** 50, 2 ** 62])
def test_cli_grid_too_large_to_allocate_exits_2(n, capsys):
    # numpy refuses both without allocating: 8 PiB of nodes, and past its
    # largest array
    assert run_cli("solve", "--potential", "delta", "--c", "0.8", "--N", str(n)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(n) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("L", ["1e308", "1e-320"])
def test_cli_grid_spacing_out_of_range_exits_2_one_line(L, capsys):
    # 1e308 gave a zero_extend traceback (exit 1), 1e-320 a nan residual (exit 3)
    assert run_cli("solve", "--potential", "delta", "--c", "0.8", "--L", L) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid spacing 2L/N = ")
    assert len(err.strip().splitlines()) == 1


def test_cli_auto_refine_is_an_unknown_key(tmp_path, capsys):
    # solve_auto always refines exponential tails; there is no switch.  Nor a
    # Krylov tolerance: Newton's forcing term and branch_tangent's TANGENT_TOL
    # set every one
    bad = tmp_path / "old.ini"
    for section, key in (("grid", "auto_refine = true"), ("solver", "krylov_tol = 1e-8")):
        bad.write_text(f"[{section}]\n{key}\n")
        message = f"unknown key [{section}] {key.split()[0]}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config.parse(bad.read_text())
        assert run_cli("--config", str(bad), "solve", "--c", "1.0") == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("argv", [
    ("solve", "--potential", "delta", "--c", "1.0", "--L", "32", "--N", "512"),
    ("branch", "--potential", "delta", "--c-from", "1.2", "--c-to", "1.3",
     "--L", "32", "--N", "512"),
    ("dispersion", "--potential", "delta"),
    ("mpass", "--potential", "delta", "--c", "1.0", "--L", "32", "--N", "512",
     "--refine-steps", "2"),
    ("sonic", "--potential", "delta", "--L", "32", "--N", "512"),
    ("report", "--dir", str(Path(__file__).parent)),
], ids=lambda argv: argv[0])
def test_cli_out_into_a_missing_directory_exit_2_one_line(argv, tmp_path, capsys):
    # an --out that cannot be written is a config error, like an unreadable input
    out = tmp_path / "missing" / "out.txt"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    solve = ("solve", "--potential", "delta", "--c", "1.0", "--L", "64", "--N", "2048")
    a = tmp_path / "a.json"
    assert run_cli("--json", *solve, "--out", str(a)) == 0
    json.loads(capsys.readouterr().out)
    # neither --json nor --out carries over: text output, no file written
    a.unlink()
    assert run_cli(*solve) == 0
    assert capsys.readouterr().out.startswith("delta at c = 1: converged")
    assert list(tmp_path.iterdir()) == []
    assert run_cli(*solve, "--out", str(a)) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--c", "fast")
    assert exc.value.code == 2
    capsys.readouterr()
    # a --tol given once does not become the next call's default
    assert run_cli("--json", "verify", str(a), "--tol", "1e-6") == 0
    assert json.loads(capsys.readouterr().out)["identity"]["tol"] == 1e-6
    assert run_cli("--json", "verify", str(a)) == 0
    assert json.loads(capsys.readouterr().out)["identity"]["tol"] == IDENTITY_TOL


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
                       "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_branch_csv(tmp_path, capsys):
    out = tmp_path / "branch.csv"
    code = run_cli("branch", "--potential", "delta", "--c-from", "0.6",
                   "--c-to", "1.0", "--L", "64", "--N", "2048",
                   "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "c,E,p,J,eta_max,min_rho,decay_rate_fit,newton_iters,dp_dc"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 0]) > 0)
    # oracle: the contact tail decays at sqrt(2 - c^2); the amplitude band
    # lies above roundoff for every member, the slow and the fast tails
    np.testing.assert_allclose(data[:, 6], np.sqrt(2.0 - data[:, 0] ** 2), rtol=1e-2)
    capsys.readouterr()


def test_cli_branch_csv_fits_each_member(tmp_path, capsys):
    # oracle: the contact tail decays at sqrt(2 - c^2)
    out = tmp_path / "branch.csv"
    assert run_cli("branch", "--potential", "delta", "--c-from", "0.6",
                   "--c-to", "1.0", "--L", "16", "--N", "512", "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 6], np.sqrt(2.0 - data[:, 0] ** 2), rtol=1e-3)
    capsys.readouterr()


def test_cli_branch_dp_dc(capsys):
    # oracle: dp/dc = -sqrt(2 - c^2) on the contact branch, the last column
    assert run_cli("--json", "branch", "--potential", "delta", "--c-from", "0.6",
                   "--c-to", "1.0", "--L", "64", "--N", "2048") == 0
    rows = np.array(json.loads(capsys.readouterr().out)["rows"])
    np.testing.assert_allclose(rows[:, -1], -np.sqrt(2.0 - rows[:, 0] ** 2), rtol=0, atol=1e-7)


def test_cli_branch_text_flags_nonnegative_dp_dc(monkeypatch, capsys):
    # a zero tangent leaves dp/dc = p/c > 0 on every member
    monkeypatch.setattr(solver, "branch_tangent", lambda sol: np.zeros(sol.grid.size))
    assert run_cli("branch", "--potential", "delta", "--c-from", "0.6",
                   "--c-to", "0.7", "--L", "64", "--N", "2048") == 0
    out = capsys.readouterr().out
    n = int(re.search(r"branch of (\d+) members", out).group(1))
    assert f"{n} of {n} members have dp/dc >= 0 (unstable):" in out
    assert "    c = 0.6: dp/dc = " in out


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


def test_cli_branch_flags_near_vortex_members(capsys):
    # min rho is 0.0356 at c = 0.05, below the momentum conditioning floor,
    # and 0.0707 at c = 0.1; every member fails the identity suite (exit 4)
    argv = ("branch", "--potential", "delta", "--c-from", "0.05", "--c-to", "0.2")
    assert run_cli("--json", *argv) == cli.EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    flagged = doc["momentum_conditioning_warnings"]
    assert [w["c"] for w in flagged] == [0.05]
    assert flagged[0]["min_rho"] == pytest.approx(0.0356, abs=5e-5)
    assert run_cli(*argv) == cli.EXIT_VERIFY
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "momentum conditioning" in line]
    assert lines == ["  momentum conditioning at c = 0.05: min rho = 0.0356 < 0.05: "
                     "momentum integrand is near-singular; accuracy not asserted"]


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


def test_cli_decay_solves_on_the_configured_grid(monkeypatch, capsys):
    from nlgp import solver
    grids = []
    solve = solver.newton_solve

    def spy(spec, grid, *args, **kwargs):
        grids.append((grid.half_length, grid.size))
        return solve(spec, grid, *args, **kwargs)
    monkeypatch.setattr(solver, "newton_solve", spy)
    assert run_cli("--json", "decay", "--potential", "delta", "--c", "1.3",
                   "--L", "64", "--N", "2048") == 0
    assert grids == [(64.0, 2048)]
    doc = json.loads(capsys.readouterr().out)
    assert doc["fit_exponential"]["rate"] == pytest.approx(math.sqrt(2.0 - 1.3 ** 2),
                                                           rel=1e-3)


def test_cli_decay_fits_the_solution_solve_finds(monkeypatch, capsys, tmp_path):
    # exp_repulsive(1, 3) at c = 1.4 decays at 0.166: its tail is above
    # TAIL_TOL on the default L = 128, so decay, like solve, doubles L to 256
    solved = []
    solve_auto = solver.solve_auto
    monkeypatch.setattr(solver, "solve_auto",
                        lambda *a: solved.append(solve_auto(*a)) or solved[-1])
    kernel = ("--potential", "exp_repulsive", "--alpha", "1", "--beta", "3", "--c", "1.4")
    assert run_cli("--json", "decay", *kernel) == 0
    decay = json.loads(capsys.readouterr().out)
    out = tmp_path / "sol.json"
    assert run_cli("--json", "solve", *kernel, "--out", str(out)) == 0
    solve = json.loads(capsys.readouterr().out)
    assert decay["grid"] == solve["grid"] == {"half_length": 256.0, "size": 8192}
    assert decay["tail"] == solve["tail"] < solver.TAIL_TOL
    [(sol, _), _] = solved
    np.testing.assert_array_equal(sol.fields.rho, read_solution(out)[3]["rho"])
    assert run_cli("decay", *kernel) == 0
    assert "  solved on L = 256, N = 8192, tail = " in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["solve", "decay", "mpass"])
def test_cli_one_speed_commands_need_c(cmd, capsys):
    assert run_cli(cmd, "--potential", "delta") == 2
    assert capsys.readouterr().err == f"config error: {cmd} needs --c\n"


@pytest.mark.parametrize("cmd", ["solve", "decay"])
def test_cli_unconverged_solve_exit_3(cmd, tmp_path, capsys):
    # one Newton step from either seed leaves gaussian(0.3) unconverged
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solver]\nmax_iter = 1\n")
    assert run_cli("--config", str(cfg), cmd, "--potential", "gaussian",
                   "--lambda", "0.3", "--c", "1.0") == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: newton_failed (residual ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cmd, flag", [
    ("certify", "--L"), ("certify", "--N"), ("certify", "--out"), ("certify", "--seed"),
    ("dispersion", "--L"), ("dispersion", "--N"), ("dispersion", "--seed"),
    ("decay", "--out"), ("decay", "--seed"), ("sonic", "--seed"), ("branch", "--seed"),
    ("solve", "--seed"), ("mpass", "--seed"),
])
def test_cli_refuses_flags_a_command_never_reads(cmd, flag, tmp_path, capsys):
    value = {"--L": "64", "--N": "512", "--out": str(tmp_path / "x.out"), "--seed": "7"}
    with pytest.raises(SystemExit) as exc:
        run_cli(cmd, "--potential", "delta", flag, value[flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def _rho(value):
    return lambda doc: {**doc, "payload": {**doc["payload"], "rho": value}}


def _residual(value):
    return lambda doc: {**doc, "residuals": {**doc["residuals"], "sup": value}}


@pytest.mark.parametrize("corrupt", [lambda doc: {"a": 1}, _without_payload, _short_rho,
                                     _rho(None), _rho(5), _rho(["AAAA"]), _rho("A"),
                                     _residual("1e-12"), _residual(float("inf"))],
                         ids=["wrong_format", "missing_key", "wrong_length", "rho_null",
                              "rho_number", "rho_list", "rho_not_base64",
                              "residual_string", "residual_inf"])
def test_cli_verify_bad_file_exit_2_one_line(corrupt, solution_doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(solution_doc)))
    capsys.readouterr()
    assert run_cli("verify", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("c, code", [
    (True, cli.EXIT_CONFIG), (float("nan"), cli.EXIT_CONFIG), ("1.0", cli.EXIT_CONFIG),
    (10 ** 400, cli.EXIT_CONFIG), (1e300, cli.EXIT_REGIME), (-0.8, cli.EXIT_REGIME),
    (0, cli.EXIT_REGIME),
], ids=["true", "nan", "string", "integer_beyond_float", "1e300", "negative", "zero"])
def test_cli_verify_checks_the_speed_first(c, code, solution_doc, tmp_path, monkeypatch,
                                           capsys):
    # c must be a finite number (exit 2) inside (0, c*), checked as solve
    # checks it (exit 5), before any field is assembled
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**solution_doc, "c": c}))
    monkeypatch.setattr(cli, "assemble", lambda *a: pytest.fail("assembled"))
    capsys.readouterr()
    assert run_cli("verify", str(bad)) == code
    err = capsys.readouterr().err
    prefix = "config error: " if code == cli.EXIT_CONFIG else "out of regime: c = "
    assert err.startswith(prefix) and len(err.strip().splitlines()) == 1


def test_cli_reads_a_solution_file_with_a_seed(solution_doc, tmp_path, capsys):
    # files written by earlier versions carry a "seed" key, which verify
    # and report ignore
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**solution_doc, "seed": 0}))
    assert run_cli("verify", str(old)) == 0
    capsys.readouterr()
    assert run_cli("report", "--dir", str(tmp_path)) == 0
    assert "| old.json | delta |" in capsys.readouterr().out


def test_cli_report(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    run_cli("solve", "--potential", "delta", "--c", "1.0",
            "--L", "64", "--N", "2048", "--out", str(sol))
    md = tmp_path / "summary.md"
    assert run_cli("report", "--dir", str(tmp_path), "--out", str(md)) == 0
    text = md.read_text()
    assert "delta" in text and "| file |" in text.replace("file |", "file |")
    capsys.readouterr()


@pytest.mark.parametrize("make", [lambda p: None, lambda p: p.write_text("{}")],
                         ids=["missing", "file"])
def test_cli_report_dir_must_be_a_directory(make, tmp_path, capsys):
    target = tmp_path / "runs"
    make(target)
    assert run_cli("report", "--dir", str(target)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "not a directory" in captured.err


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


@pytest.mark.parametrize("cmd, reach", [(("certify",), "1414.21"),
                                        (("solve", "--c", "0.8", "--N", "16384"), "201.062")],
                         ids=["certify", "solve"])
def test_cli_short_table_exit_2_naming_the_reach(cmd, reach, tmp_path, capsys):
    # a table reaching |xi| = 60 is too short for the certification lattice
    # (out to 10^3 c*) and for N = 16384 on L = 128: an input error
    xs = np.linspace(0.0, 60.0, 1201)
    table = tmp_path / "symbol.csv"
    np.savetxt(table, np.column_stack([xs, np.exp(-0.3 * xs ** 2)]), delimiter=",")
    assert run_cli(*cmd, "--potential", "tabulated", "--file", str(table)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert f"needs it up to |xi| = {reach}" in err


def test_cli_decay_without_prediction_says_so(tmp_path, capsys):
    # a tabulated symbol has neither an analytic extension nor a kink
    table = _gaussian_table(tmp_path / "symbol.csv")
    kernel = ("decay", "--potential", "tabulated", "--file", str(table), "--c", "0.8")
    assert run_cli(*kernel) == 0
    out = capsys.readouterr().out
    assert ("prediction: none (the symbol has neither an analytic extension nor a kink)"
            in out)
    assert "nan" not in out and "None" not in out
    assert run_cli("--json", *kernel) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["prediction"]["model"] == "unknown" and math.isnan(doc["prediction"]["value"])


def test_cli_certify_unknown_total_variation_says_so(capsys):
    kernel = ("certify", "--potential", "berloff", "--a", "-36", "--b", "2687",
              "--lambda", "30")
    assert run_cli(*kernel) == 0
    out = capsys.readouterr().out
    assert "total variation: unknown (not recorded for this kernel)" in out
    assert "None" not in out
    assert run_cli("--json", *kernel) == 0
    assert json.loads(capsys.readouterr().out)["h4_norm"] is None


def test_cli_verify_json_lists_seven_identities(tabulated_solution, capsys):
    capsys.readouterr()
    assert run_cli("--json", "verify", str(tabulated_solution[1])) == 0
    entries = json.loads(capsys.readouterr().out)["identity"]["entries"]
    assert [e["name"] for e in entries] == [
        "phase_current", "elliptic", "kinetic_flux", "first_integral",
        "kinetic_closure", "pohozaev", "action_identity"]
    assert all("skipped" not in e for e in entries)


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
    # every checkpoint is a bound, and the least one is reported
    assert saved["upper_history"] == doc["upper_history"]
    assert doc["upper"] == min(doc["upper_history"])
    from nlgp.functionals import CHECK_EVERY
    assert len(doc["upper_history"]) == -(-doc["sweeps"] // CHECK_EVERY) and doc["sweeps"] <= 40


def test_cli_mpass_text_names_sweeps_and_checkpoints(capsys):
    assert run_cli("mpass", "--potential", "delta", "--c", "1.0", "--L", "32", "--N", "512",
                   "--refine-steps", "7") == 0
    text = capsys.readouterr().out
    assert "after 7 sweeps (at most 7)" in text
    assert text.count("path max at each checkpoint: ") == 1


def test_cli_mpass_reports_segments_sampled(capsys):
    # one count per checkpoint, in the JSON and on the checkpoint line
    args = ("mpass", "--potential", "delta", "--c", "1.0", "--L", "32", "--N", "512",
            "--refine-steps", "12")
    assert run_cli("--json", *args) == 0
    doc = json.loads(capsys.readouterr().out)
    segments = doc["path_nodes"] - 1
    assert len(doc["segments_sampled"]) == len(doc["upper_history"]) == 3
    assert all(1 <= n <= segments for n in doc["segments_sampled"])
    assert run_cli(*args) == 0
    line, = [ln for ln in capsys.readouterr().out.splitlines() if "path max at each" in ln]
    assert line.count(f"/{segments} segments sampled") == 3


def test_cli_mpass_out_of_regime_exit_5(capsys):
    assert run_cli("mpass", "--potential", "delta", "--c", "1.45") == 5
    err = capsys.readouterr().err
    assert err.startswith("out of regime: ") and len(err.strip().splitlines()) == 1


def test_cli_mpass_below_the_least_speed_exit_5(capsys):
    # the endpoint's core would leave the nonvanishing set: no bracket, and
    # no "endpoint_J": -Infinity, which is not JSON
    assert run_cli("--json", "mpass", "--potential", "delta", "--c", "0.001",
                   "--L", "64", "--N", "2048") == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("out of regime: ") and len(err.strip().splitlines()) == 1
    assert "0.002" in err


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
    assert ("skipped gaps (unconverged or failing the identity suite): 1e-09"
            in capsys.readouterr().out)
    assert run_cli("--json", "sonic", "--potential", "delta") == 0
    assert json.loads(capsys.readouterr().out)["skipped_gaps"] == [1e-9]


def test_cli_sonic_unknown_symbol_curvature_says_so(capsys, monkeypatch):
    sweep = solver.sonic_sweep
    monkeypatch.setattr(solver, "sonic_sweep", lambda *a, **k: dataclasses.replace(
        sweep(*a, **k), d2_symbol_at_zero=None))
    assert run_cli("sonic", "--potential", "delta") == 0
    out = capsys.readouterr().out
    assert "symbol curvature at 0: unknown (not recorded for this kernel)" in out
    assert "None" not in out
    assert run_cli("--json", "sonic", "--potential", "delta") == 0
    assert json.loads(capsys.readouterr().out)["d2_symbol_at_zero"] is None


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


_GAUSSIAN = "[potential]\nkind = gaussian\n"


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
    # a non-finite float passes no range check and reaches a solver: nan
    # speeds exit 5 or march to the sonic cap, an infinite L exits 3 after
    # overflow warnings, a nan kernel parameter gives c* = nan
    (("solve", "--c", "nan"), "", "--c ([command] c) must be finite"),
    (("mpass", "--c", "nan"), "", "--c ([command] c) must be finite"),
    (("branch", "--c-to", "nan"), "", "--c-to ([command] c_to) must be finite"),
    (("dispersion", "--xi-max", "nan"), "", "--xi-max ([command] xi_max) must be finite"),
    # a lattice up to xi_max <= 0 has no positive frequency, yet dispersion
    # reported it monotone and exited 0
    (("dispersion", "--xi-max", "0"), "", "--xi-max ([command] xi_max) must be > 0"),
    (("dispersion", "--xi-max", "-5"), "", "--xi-max ([command] xi_max) must be > 0"),
    (("dispersion",), "[command]\nxi_max = 0\n", "--xi-max ([command] xi_max) must be > 0"),
    (("solve", "--c", "1", "--L", "inf"), "", "--L ([grid] half_length)"),
    (("solve", "--c", "1"), "[grid]\nhalf_length = inf\n", "--L ([grid] half_length)"),
    (("solve", "--potential", "gaussian", "--lambda", "nan", "--c", "1"), "",
     "--lam ([potential] lam) must be finite"),
    (("solve", "--c", "1"), _GAUSSIAN + "lam = nan\n",
     "--lam ([potential] lam) must be finite"),
], ids=["n_flag", "n_key", "n_flag_0", "n_flag_1", "n_key_2", "refine_steps_flag",
        "refine_steps_key", "tol_inf", "tol_nan", "tol_0", "tol_neg", "c_nan_solve",
        "c_nan_mpass", "c_to_nan", "xi_max_nan", "xi_max_0", "xi_max_neg", "xi_max_key_0",
        "L_inf", "L_key_inf", "lambda_nan",
        "lam_key_nan"])
def test_cli_negative_count_exit_2(argv, cfg_text, name, solution_doc, tmp_path,
                                   monkeypatch, capsys):
    (tmp_path / "sol.json").write_text(json.dumps(solution_doc))  # a file verify passes
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text if cfg_text.startswith("[potential]")
                   else "[potential]\nkind = delta\n" + cfg_text)
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
