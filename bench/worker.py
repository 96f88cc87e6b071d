"""One benchmark workload in one fresh process; prints its raw result as JSON.

``run.py`` starts this script with a clean environment and turns its output
into the benchmark's metrics; run that, not this.  The worker imports
``nlgp``, builds the workload three times, runs one untimed warm-up op, then
runs ops until their summed latency reaches ``--seconds`` (finishing the
current cycle over the kernels).  Each op is checked against its oracle
after its timed interval.

With ``--trace 1`` every op runs twice, once plain and once under the
tracer, alternating which goes first; the per-layer numbers come from the
traced copies and the plain copies give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
BUILDS = 3


def machine_record(seed: int) -> dict:
    """nproc, CPU model, library versions, BLAS/FFT thread counts, seed."""
    import ctypes
    import platform

    import numpy
    import scipy
    import scipy.fft

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas[os.path.basename(lib)] = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "fft_threads": {"numpy.fft": 1, "scipy.fft": scipy.fft.get_workers()},
        "processes": "one worker process, ops run one at a time, no pool",
        "seed": seed,
    }


def tail_latency(latencies):
    """(percentile, value) of the highest percentile with >= 10 ops above it."""
    n = len(latencies)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="exactly one timed op")
    p.add_argument("--force-oracle-failure", action="store_true",
                   help="mark the first timed op as failing its oracle")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import nlgp
    import_s = time.perf_counter() - t0
    expected = os.path.join(ROOT, "src", "nlgp")
    if os.path.dirname(os.path.abspath(nlgp.__file__)) != expected:
        sys.exit(f"nlgp imported from {nlgp.__file__}, not from {expected}")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        result = run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["import_s"] = import_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_record(args.seed)
    print(json.dumps(result))


def run(args, workloads, workdir) -> dict:
    w = workloads.WORKLOADS[args.workload](workdir)
    build_s = []
    for _ in range(BUILDS):
        t = time.perf_counter()
        state = w.build()
        build_s.append(time.perf_counter() - t)
    problems = []

    def attempt(op, call):
        """Time ``call``; check its result untimed.  Returns (latency, ok)."""
        t = time.perf_counter()
        try:
            out, err = call(), None
        except Exception:
            out, err = None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
        dt = time.perf_counter() - t
        if err is not None:
            found = [f"raised {err}"]
        else:
            try:
                found = w.check(state, op, out)
            except Exception:
                found = ["check raised "
                         + traceback.format_exc(limit=-1).strip().splitlines()[-1]]
        if args.force_oracle_failure and op.index == 0:
            found = found + ["forced oracle failure"]
        problems.extend(f"op {op.index} ({w.kernels[op.kernel].label()}, "
                        f"c={op.c:.6f}): {msg}" for msg in found)
        return dt, not found

    warm = w.warmup_op()
    warmup_s, warmup_ok = attempt(warm, lambda: w.run(state, warm))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    plain, traced, oks = [], [], []
    timed = 0.0
    cycle = len(w.kernels)
    for op in w.ops(args.seed):
        if args.smoke and op.index >= 1:
            break
        if op.index % cycle == 0 and timed >= args.seconds:
            break
        runs = [False, True] if tracer else [False]
        if tracer and (op.index // cycle) % 2:
            runs.reverse()
        for under_trace in runs:
            if under_trace:
                dt, ok = attempt(op, lambda: tracer.run_op(op.index, w.run, state, op))
                traced.append(dt)
            else:
                dt, ok = attempt(op, lambda: w.run(state, op))
                plain.append(dt)
            oks.append(ok)
            timed += dt

    attempted = len(oks)
    failed = attempted - sum(oks)
    result = {
        "record": dict(w.record(), layer_expectations=workloads.LAYER_EXPECTATIONS),
        "attempted": attempted,
        "failed": failed,
        "warmup_ok": warmup_ok,
        "problems": problems[:20],
        "build_s": build_s,
        "warmup_s": warmup_s,
        "timed_s": timed,
        "latencies": plain,
    }
    if tracer is None:
        result["ops_per_s"] = sum(oks) / timed
        result["op_p50_s"] = statistics.median(plain)
        result["tail"] = tail_latency(plain)
    else:
        summary = tracer.summary()
        p50 = statistics.median(plain)
        summary["metrics"]["trace.overhead_frac"] = {
            "value": (statistics.median(traced) - p50) / p50, "unit": "ratio"}
        result["trace"] = summary
        result["traced_latencies"] = traced
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.json.gz")
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
    return result


if __name__ == "__main__":
    main()
