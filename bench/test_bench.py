"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench``."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

E2E_REPORTED = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "fail_frac",
                "peak_rss_mb")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, [json.loads(line) for line in lines], proc.stderr


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric_with_a_unit(trace):
    rc, out, err = bench("--workload", "catalog", "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--smoke")
    assert rc == 0, err
    final, report = out[-1], out[-2]["report"]
    assert final["correct"] and final["attempted"] >= 1 and final["failed"] == 0
    wanted = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if trace == "0":
        # one op is too few for a tail percentile: omitted, never written as 0
        assert set(report["metrics"]) == set(E2E_REPORTED) - {"op_tail_s"}
        assert all(v["unit"] for v in report["metrics"].values())
    else:
        assert report["self_sum_rel_err"] <= 1e-9
        assert final["metrics"]["spectral.fft.calls"]["value"] > 0


def test_forced_oracle_failure_raises_fail_frac_without_crashing():
    rc, out, err = bench("--workload", "catalog", "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--smoke", "--force-oracle-failure")
    assert rc == 0, err
    final, report = out[-1], out[-2]["report"]
    assert not final["correct"]
    assert (final["attempted"], final["failed"]) == (1, 1)
    assert report["metrics"]["fail_frac"]["value"] == 1.0
    assert report["metrics"]["ops_per_s"]["value"] == 0.0
    assert "forced oracle failure" in report["problems"][0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, out, _ = bench("--workload", "catalog", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=str(tmp_path))
    assert rc != 0 and out == []


def test_worker_environment_drops_grid_overrides(monkeypatch):
    monkeypatch.setenv("NLGP_GRID_N", "64")
    monkeypatch.setenv("NLGP_GRID_L", "8")
    env = run.worker_env()
    assert "NLGP_GRID_N" not in env and "NLGP_GRID_L" not in env
    assert env["PYTHONPATH"].split(os.pathsep)[0] == os.path.join(ROOT, "src")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_stream_is_seeded_and_in_range(name, tmp_path):
    w = workloads.WORKLOADS[name](str(tmp_path))
    take = lambda seed: [op for op, _ in zip(w.ops(seed), range(4 * len(w.kernels)))]
    a, b = take(5), take(6)
    assert a == take(5) and a != b
    lo, hi = w.speeds
    assert all(lo <= op.c <= hi and isinstance(op.c, float) for op in a + b)
    # every cycle visits each kernel once
    for start in range(0, len(a), len(w.kernels)):
        assert sorted(op.kernel for op in a[start:start + len(w.kernels)]) == \
            list(range(len(w.kernels)))


def test_tail_latency_leaves_ten_ops_above():
    assert worker.tail_latency([1.0] * 10) is None
    lat = [float(i) for i in range(20)]
    pct, value = worker.tail_latency(lat)
    assert pct == 50.0 and sum(x > value for x in lat) == 10


def test_fft_cost_is_computed_from_array_sizes():
    x = np.zeros((3, 1024))
    points, flops, nbytes = tracer.fft_cost("fft", False, x, np.fft.fft(x))
    assert points == 3 * 1024
    assert flops == 3 * 5 * 1024 * 10
    assert nbytes == x.nbytes + 3 * 1024 * 16
    _, flops, _ = tracer.fft_cost("rfft", True, x[0], np.fft.rfft(x[0]))
    assert flops == 2.5 * 1024 * 10


def test_traced_run_rebinds_every_reference_and_restores_them():
    import nlgp
    from nlgp import hydro, solver, spectral

    originals = (spectral.convolve, hydro.convolve, solver.rho_equation,
                 nlgp.newton_solve, np.fft.fft)
    t = tracer.Tracer()
    grid = nlgp.Grid(16.0, 256)
    rho0 = nlgp.initial_guess(grid, 1.0)
    gauss = nlgp.gaussian(0.3)
    # looked up at call time, as the workloads do, so the wrapper is used
    sol = t.run_op(0, lambda: solver.newton_solve(gauss, grid, 1.0, rho0))
    assert sol.converged
    assert (spectral.convolve, hydro.convolve, solver.rho_equation,
            nlgp.newton_solve, np.fft.fft) == originals
    s = t.summary()
    assert s["ops"] == 1 and s["self_sum_rel_err"] <= 1e-9
    m = s["metrics"]
    assert m["solver.newton_solve.calls"]["value"] == 1
    assert m["hydro.rho_equation.calls"]["value"] >= 1
    assert m["spectral.convolve.calls"]["value"] >= 1     # through hydro.convolve
    assert m["spectral.fft.calls"]["value"] >= 1
    assert m["solver.gmres.iters"]["value"] >= m["solver.gmres.calls"]["value"] >= 1
    assert m["solver.matvec.calls"]["value"] >= 1
    assert m["hydro.finalize_s"]["value"] > 0
    # the traced solve gives the same numbers as the plain one
    plain = solver.newton_solve(gauss, grid, 1.0, rho0)
    assert np.array_equal(plain.fields.rho, sol.fields.rho)
