"""nlgp benchmark: seeded workloads, op-level metrics, and a traced run.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Workloads (``bench/workloads.py`` records why each was chosen):
``catalog`` and ``wide`` time an in-process ``nlgp solve`` + ``nlgp verify``
round trip, ``branch`` times ``continue_branch`` and ``mpass`` times
``mountain_pass_bracket``.  Each run starts one fresh worker process
(``bench/worker.py``) with ``NLGP_GRID_N``/``NLGP_GRID_L`` removed from its
environment, so the grids are the ones the workload asks for.

End-to-end metrics (``--trace 0``), timed with tracing off:

* ``setup_s``: median time to import ``nlgp`` (the worker plus two probe
  processes), plus the median of three builds of the workload's specs, grids
  and certificates, plus one untimed warm-up op;
* ``ops_per_s``: ops that passed their oracle per second of timed op time;
* ``op_p50_s``: median op latency;
* ``op_tail_s``: latency at the highest percentile that leaves at least ten
  ops above it, reported with that percentile and ``n``; omitted when the run
  has fewer than eleven ops;
* ``fail_frac``: failed ops over attempted ops;
* ``peak_rss_mb``: ``ru_maxrss`` of the worker at the end.

``--trace 1`` runs every op plain and traced and prints the per-layer metrics
(per-op means of calls, self times and counts, see ``bench/tracer.py``) and
``trace.overhead_frac``.

Output: a ``record`` line (workload, machine, seed), a ``report`` line with
every metric, then the last line, which holds the metrics named in
``BENCHMARK.json`` for the chosen ``--trace``.  The run exits non-zero,
without that line, if the worker fails or a named metric is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
DEADLINE_S = 170.0
IMPORT_PROBES = 2
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
PROBE = ("import time; t = time.perf_counter(); import nlgp; "
         "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    """The caller's environment without the grid overrides, which would
    replace the workloads' --N/--L; BLAS pinned to one thread so that a
    second BLAS thread on the other core does not add noise."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("NLGP_GRID_N", "NLGP_GRID_L")}
    env.update(BLAS_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, deadline) -> str:
    """stdout of a child process; BenchError if it fails or overruns."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + argv[1])
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}")
    return proc.stdout


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(res: dict, setup_s: float) -> dict:
    m = {"setup_s": metric(setup_s, "s"),
         "ops_per_s": metric(res["ops_per_s"], "1/s"),
         "op_p50_s": metric(res["op_p50_s"], "s"),
         "fail_frac": metric(res["failed"] / res["attempted"], "ratio"),
         "peak_rss_mb": metric(res["peak_rss_mb"], "MB")}
    if res["tail"] is not None:
        pct, value = res["tail"]
        m["op_tail_s"] = dict(metric(value, "s"), percentile=pct,
                              n=len(res["latencies"]))
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="nlgp benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed op seconds to measure (whole kernel cycles)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one timed op; still checks that every metric is emitted")
    p.add_argument("--force-oracle-failure", action="store_true",
                   help="testing: mark the first timed op as failing its oracle")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(ROOT, "src", "nlgp", "__init__.py")):
            raise BenchError("no nlgp sources under src/nlgp")
        env = worker_env()
        imports = [float(run_child([sys.executable, "-c", PROBE], env, deadline))
                   for _ in range(IMPORT_PROBES)]
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--smoke"] * args.smoke
        cmd += ["--force-oracle-failure"] * args.force_oracle_failure
        lines = run_child(cmd, env, deadline).strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        res = json.loads(lines[-1])
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    setup_s = (statistics.median(imports + [res["import_s"]])
               + statistics.median(res["build_s"]) + res["warmup_s"])
    report = end_to_end(res, setup_s) if args.trace == 0 else {}
    correct = res["failed"] == 0 and res["warmup_ok"]
    if args.trace:
        report.update(res["trace"]["metrics"])
        correct = correct and res["trace"]["self_sum_rel_err"] <= 1e-9
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted
               if report.get(m["name"], {}).get("unit") != m["unit"]]
    if missing:
        print(f"bench: metrics missing or in the wrong unit: {missing}", file=sys.stderr)
        return 1

    record = {"workload": res["record"], "machine": res["machine"],
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "fft_cost": "computed from array sizes (5 N log2 N complex, "
                          "2.5 N log2 N real); no roofline, no peak was measured"}
    detail = {"attempted": res["attempted"], "failed": res["failed"],
              "problems": res["problems"], "timed_s": res["timed_s"],
              "import_s": imports + [res["import_s"]], "build_s": res["build_s"],
              "warmup_s": res["warmup_s"], "metrics": report}
    if args.trace:
        detail.update({k: res["trace"][k] for k in ("ops", "spans", "self_sum_rel_err")})
        detail["trace_file"] = res["trace_file"]
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"record": record, "report": detail, "latencies": res["latencies"]}, fh)
    print(json.dumps({"record": record}))
    print(json.dumps({"report": detail}))
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {m["name"]: report[m["name"]] for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
