"""Span tracer for the traced benchmark run.

The tracer rebinds the public functions of each ``nlgp`` layer, at every
module-level reference across the package, to wrappers that record a span
(name, start, end, parent span, op id) and a few counts.  Nothing under
``src/`` changes: the wrappers exist only inside the traced process, and only
while ``install`` is in effect.  Spans are kept in memory and written once,
when the run ends.

A span's self time is its duration minus the durations of its child spans,
so the self times of one op's spans sum to the op's traced duration.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator

ROOT = "bench.op"

# (module, attribute, span name): the layer functions the run wraps.
LAYER_FUNCTIONS = (
    ("nlgp.cli", "main", "cli.main"),
    ("nlgp.io", "write_solution", "io.write_solution"),
    ("nlgp.io", "read_solution", "io.read_solution"),
    ("nlgp.potentials", "decay_prediction", "potentials.decay_prediction"),
    ("nlgp.potentials", "certify", "potentials.certify"),
    ("nlgp.potentials", "sound_speed", "potentials.sound_speed"),
    ("nlgp.potentials", "mc_symbol", "potentials.mc_symbol"),
    ("nlgp.spectral", "derivative", "spectral.derivative"),
    ("nlgp.spectral", "convolve", "spectral.convolve"),
    ("nlgp.spectral", "cumulative_integral", "spectral.cumulative_integral"),
    ("nlgp.spectral", "integrate", "spectral.integrate"),
    ("nlgp.hydro", "rho_equation", "hydro.rho_equation"),
    ("nlgp.hydro", "assemble", "hydro.assemble"),
    ("nlgp.hydro", "identity_suite", "hydro.identity_suite"),
    ("nlgp.hydro", "energy", "hydro.energy"),
    ("nlgp.hydro", "momentum", "hydro.momentum"),
    ("nlgp.hydro", "action", "hydro.action"),
    ("nlgp.solver", "solve_auto", "solver.solve_auto"),
    ("nlgp.solver", "newton_solve", "solver.newton_solve"),
    ("nlgp.solver", "gmres", "solver.gmres"),
    ("nlgp.solver", "continue_branch", "solver.continue_branch"),
    ("nlgp.functionals", "functional_J", "functionals.functional_J"),
    ("nlgp.functionals", "grad_J", "functionals.grad_J"),
    ("nlgp.functionals", "sobolev_norm", "functionals.sobolev_norm"),
    ("nlgp.functionals", "build_phi_c", "functionals.build_phi_c"),
    ("nlgp.functionals", "mountain_pass_bracket", "functionals.mountain_pass_bracket"),
)

# Transform entry points of numpy.fft and scipy.fft; the value says whether
# the transform is real (2.5 N log2 N flops) rather than complex (5 N log2 N).
FFT_FUNCTIONS = {
    "fft": False, "ifft": False, "fft2": False, "ifft2": False,
    "fftn": False, "ifftn": False,
    "rfft": True, "irfft": True, "hfft": True, "ihfft": True,
    "rfft2": True, "irfft2": True, "rfftn": True, "irfftn": True,
}
SCIPY_ONLY_FFT = ("dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn")
SPAN_NAMES = ({name for _, _, name in LAYER_FUNCTIONS}
              | {"potentials.symbol", "spectral.fft", "solver.matvec", "solver.precond"})


def fft_cost(name: str, real: bool, a, out):
    """Computed (points, flops, bytes) of one transform, from array sizes.

    Flops are 5 N log2 N per complex and 2.5 N log2 N per real transform of
    length N; bytes are the input plus the output array.  Both are computed,
    not measured: cache traffic is ignored.
    """
    a = np.asarray(a)
    size = max(a.size, out.size)
    if name[-1] in "2n":          # one multi-dimensional transform
        n, count = size, 1
    else:
        n = max(a.shape[-1] if a.ndim else 1, out.shape[-1] if out.ndim else 1)
        count = size // max(n, 1)
    flops = (2.5 if real else 5.0) * count * n * math.log2(max(n, 2))
    return count * n, flops, a.nbytes + out.nbytes


class Tracer:
    """Records spans of the wrapped layer functions while an op runs."""

    def __init__(self):
        self.spans = []                    # [name, start, end, parent, op]
        self.counts = defaultdict(float)   # (op, key) -> value
        self.op = None
        self._stack = []
        self._bindings = self._make_bindings()

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span named ``name``; ``count(args, kwargs, out)``
        yields (key, value) pairs added to the current op's counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1], tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, out):
                    tracer.counts[tracer.op, key] += value
            return out
        return traced

    def _traced_gmres(self, gmres):
        """gmres with its operator and preconditioner matvecs in spans and a
        callback counting inner iterations.  ``callback_type='pr_norm'`` keeps
        the meaning of ``maxiter``, so the iterates are unchanged."""
        def run(A, b, *args, M=None, callback=None, callback_type=None, **kwargs):
            if callback is not None:
                return gmres(A, b, *args, M=M, callback=callback,
                             callback_type=callback_type, **kwargs)
            A = LinearOperator(A.shape, dtype=A.dtype,
                               matvec=self.wrap("solver.matvec", A.matvec))
            if M is not None:
                M = LinearOperator(M.shape, dtype=M.dtype,
                                   matvec=self.wrap("solver.precond", M.matvec))
            iters = [0]

            def tick(_):
                iters[0] += 1

            out = gmres(A, b, *args, M=M, callback=tick, callback_type="pr_norm",
                        **kwargs)
            self.counts[self.op, "solver.gmres.iters"] += iters[0]
            return out
        return run

    def _make_bindings(self):
        """(owner, attribute, original, wrapper) for every reference to rebind."""
        counts = {
            "io.write_solution": lambda a, k, out: [
                ("io.write_solution.bytes", os.path.getsize(a[0]))],
            "solver.newton_solve": lambda a, k, out: [
                ("solver.newton_solve.converged", float(out.converged)),
                ("solver.newton_iters", out.newton_iters)],
            "solver.continue_branch": lambda a, k, out: [
                ("solver.continue_branch.members", len(out.solutions))],
        }
        wrappers = {}       # id(original) -> (original, wrapper)
        for module, attr, name in LAYER_FUNCTIONS:
            fn = getattr(importlib.import_module(module), attr)
            if name == "solver.gmres":
                wrappers[id(fn)] = (fn, self.wrap(name, self._traced_gmres(fn)))
            else:
                wrappers[id(fn)] = (fn, self.wrap(name, fn, counts.get(name)))
        fft_owners = [np.fft, scipy.fft]
        for owner in fft_owners:
            names = list(FFT_FUNCTIONS) + (list(SCIPY_ONLY_FFT) if owner is scipy.fft else [])
            for fname in names:
                fn = getattr(owner, fname)
                real = FFT_FUNCTIONS.get(fname, True)
                wrappers[id(fn)] = (fn, self.wrap("spectral.fft", fn,
                                                  _fft_counter(fname, real)))
        bindings = []
        owners = fft_owners + [m for n, m in sorted(sys.modules.items())
                               if n == "nlgp" or n.startswith("nlgp.")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    bindings.append((owner, attr, value, hit[1]))
        spec_cls = importlib.import_module("nlgp.potentials").PotentialSpec
        symbol = spec_cls.__dict__["symbol"]
        bindings.append((spec_cls, "symbol", symbol, self.wrap(
            "potentials.symbol", symbol,
            lambda a, k, out: [("potentials.symbol.points", np.size(a[1]))])))
        return bindings

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span, with the wrappers installed."""
        self.install()
        try:
            self.op = op_id
            self._stack = [-1]
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.op = None
            self.uninstall()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-op means of the per-layer metrics, plus the self-time check."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        first_assemble = {}
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += t1 - t0
                if (name == "hydro.assemble" and parent not in first_assemble
                        and spans[parent][0] == "solver.newton_solve"):
                    first_assemble[parent] = t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        op_self = defaultdict(float)
        op_duration = {}
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            s = (t1 - t0) - child_time[i]
            calls[name] += 1
            self_s[name] += s
            op_self[op] += s
            if parent < 0:
                op_duration[op] = t1 - t0
        n_ops = max(len(op_duration), 1)
        totals = defaultdict(float)
        for (_, key), value in self.counts.items():
            totals[key] += value
        finalize = sum(spans[p][2] - t0 for p, t0 in first_assemble.items())
        worst = max((abs(op_self[op] - d) / d for op, d in op_duration.items()),
                    default=0.0)
        m = {}

        def put(key, value, unit):
            m[key] = {"value": value, "unit": unit}

        for name in sorted(SPAN_NAMES):
            put(f"{name}.calls", calls[name] / n_ops, "count/op")
            put(f"{name}.self_s", self_s[name] / n_ops, "s/op")
        for key, unit in (("io.write_solution.bytes", "B/op"),
                          ("potentials.symbol.points", "count/op"),
                          ("spectral.fft.points", "count/op"),
                          ("solver.newton_iters", "count/op"),
                          ("solver.gmres.iters", "count/op"),
                          ("solver.continue_branch.members", "count/op")):
            put(key, totals[key] / n_ops, unit)
        put("spectral.fft.gflop_computed", totals["spectral.fft.flops"] / n_ops / 1e9,
            "GFLOP/op")
        put("spectral.fft.mbytes_computed", totals["spectral.fft.bytes"] / n_ops / 1e6,
            "MB/op")
        put("hydro.finalize_s", finalize / n_ops, "s/op")
        solves = calls["solver.newton_solve"]
        # 1 when the op ran no solve, so the ratio never reads as a failure
        put("solver.newton_solve.converged_ratio",
            totals["solver.newton_solve.converged"] / solves if solves else 1.0, "ratio")
        return {"metrics": m, "ops": len(op_duration), "spans": len(spans),
                "self_sum_rel_err": worst}

    def write(self, path: str):
        """All spans and counts, gzipped JSON, written once at the end."""
        doc = {"fields": ["name", "start", "end", "parent", "op"],
               "spans": self.spans,
               "counts": [[op, key, v] for (op, key), v in self.counts.items()]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _fft_counter(name: str, real: bool):
    def count(args, kwargs, out):
        points, flops, nbytes = fft_cost(name, real, args[0], out)
        return [("spectral.fft.points", points), ("spectral.fft.flops", flops),
                ("spectral.fft.bytes", nbytes)]
    return count
