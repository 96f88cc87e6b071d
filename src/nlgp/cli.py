"""Command-line interface.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 verification failure,
5 out of regime (speed at or beyond the sound speed, or for mpass too slow
for the negative-action endpoint).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import analysis, config, functionals, io as nio, potentials, solver
from .errors import (ConfigError, NlgpError, NoSoundSpeedError, OutOfRegimeError,
                     SupersonicMultiplierError, UnderresolvedTailError)
from .hydro import (IDENTITY_TOL, assemble, identity_suite,
                    momentum_conditioning_warning, nonvanishing_check,
                    residual_amplitude, residual_tw)
from .spectral import LATTICE_MAX, Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_REGIME = 5

_PARAM_FLAGS = ("alpha", "beta", "lam", "kappa", "a", "b", "file")
_ALIASES = {"lambda": "lam"}


@functools.cache
def _build_parser():
    """The nlgp parser, built once per process: ``parse_args`` makes a fresh
    namespace per call, and every default is a constant."""
    # each subcommand takes only the flags it reads, from these parents
    kernel, grid, out, speed = (argparse.ArgumentParser(add_help=False)
                                for _ in range(4))
    kernel.add_argument("--potential", help="catalog kind, e.g. delta, gaussian")
    for f in _PARAM_FLAGS:
        kernel.add_argument(f"--{f}", default=None)
    kernel.add_argument("--lambda", dest="lam", default=None)
    grid.add_argument("--L", type=float, default=None, help="grid half-length")
    grid.add_argument("--N", type=int, default=None, help="grid size (power of two)")
    out.add_argument("--out", default=None)
    speed.add_argument("--c", type=float, default=None)

    p = argparse.ArgumentParser(prog="nlgp",
                                description="dark solitons of the 1-d nonlocal "
                                            "Gross-Pitaevskii equation")
    p.add_argument("--config", help="key-value config file (INI sections)")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("solve", parents=[kernel, grid, out, speed],
                   help="compute one soliton")
    sp = sub.add_parser("branch", parents=[kernel, grid, out],
                        help="continue a branch over a speed range")
    sp.add_argument("--c-from", type=float, default=None)
    sp.add_argument("--c-to", type=float, default=None)
    sp = sub.add_parser("verify", help="re-run the identity suite on a saved solution")
    sp.add_argument("input")
    sp.add_argument("--tol", type=float, default=IDENTITY_TOL)
    sp = sub.add_parser("dispersion", parents=[kernel, out, speed],
                        help="dispersion curve, multiplier, critical points")
    sp.add_argument("--xi-max", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sub.add_parser("certify", parents=[kernel],
                   help="sampled kernel-hypothesis certificates")
    sp = sub.add_parser("mpass", parents=[kernel, grid, out, speed],
                        help="mountain-pass bracket at one speed")
    sp.add_argument("--refine-steps", type=int, default=None,
                    help="at most this many string-method sweeps (default 200)")
    sub.add_parser("decay", parents=[kernel, grid, speed],
                   help="tail fit against the multiplier prediction")
    sub.add_parser("sonic", parents=[kernel, grid, out],
                   help="amplitude sweep toward the sonic speed")
    sp = sub.add_parser("report", help="aggregate emitted JSON files to Markdown")
    sp.add_argument("--dir", required=True)
    sp.add_argument("--out", default=None)
    return p


def _load_config(args) -> config.RunConfig:
    """The run's settings: flags override the config file, which overrides
    the defaults; a set command flag replaces its ``[command]`` key, which
    commands read alone."""
    cfg = config.parse_file(args.config) if args.config else config.RunConfig()
    pot = dict(cfg.potential)
    if getattr(args, "potential", None):
        pot = {"kind": args.potential}
    for f in _PARAM_FLAGS:
        v = getattr(args, f, None)
        if v is not None:
            pot[f] = v if f == "file" else config.parse_value(f"--{f}", v, float)
    cfg.potential = pot
    if getattr(args, "L", None) is not None:
        cfg.grid.half_length = args.L
    if getattr(args, "N", None) is not None:
        cfg.grid.size = args.N
    cfg.command.update({k: getattr(args, k) for k in config.COMMAND_KEYS
                        if getattr(args, k, None) is not None})
    # every float read must be finite: nan passes no range check and reaches a
    # solver.  The integer keys are counts; the dispersion slope needs two
    # positive frequencies besides xi = 0, so n counts at least three samples
    # and xi_max is positive
    named = [(f"--{k} ([potential] {k})", v) for k, v in pot.items()]
    named.append(("--L ([grid] half_length)", cfg.grid.half_length))
    for k, v in cfg.command.items():
        named.append((f"--{k.replace('_', '-')} ([command] {k})", v))
        least = 3 if k == "n" else 0
        if isinstance(v, int) and v < least:
            raise ConfigError(f"{named[-1][0]} must be >= {least}, got {v}")
        if k == "xi_max" and v <= 0.0:
            raise ConfigError(f"{named[-1][0]} must be > 0, got {v!r}")
    for where, v in named:
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{where} must be finite, got {v!r}")
    # every speed is squared, and c^2 overflows from |c| ~ 1.3e154
    for k in ("c", "c_from", "c_to"):
        v = cfg.command.get(k)
        if v is not None and not math.isfinite(v * v):
            raise ConfigError(f"--{k.replace('_', '-')} ([command] {k}) = {v!r}: "
                              "its square overflows")
    # the dispersion curve takes xi^4, as the grid's lattice does
    if cfg.command.get("xi_max", 0.0) >= LATTICE_MAX:
        raise ConfigError(f"--xi-max ([command] xi_max) must be below {LATTICE_MAX:.6g}, "
                          f"where xi^4 overflows, got {cfg.command['xi_max']!r}")
    return cfg


def _make_spec(pot: dict) -> potentials.PotentialSpec:
    params = {_ALIASES.get(k, k): v for k, v in pot.items() if k != "kind"}
    kind = pot.get("kind")
    if kind is None:
        raise ConfigError("no potential kind given")
    if kind == "tabulated":
        path = params.pop("file", None)
        if path is None:
            raise ConfigError("tabulated potential needs file = <csv path>")
        if params:
            raise ConfigError(f"unknown tabulated parameters {sorted(params)}")
        try:
            return potentials.tabulated_from_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read tabulated symbol {path}: {exc}") from exc
    try:
        return potentials.make_potential(kind, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    except ArithmeticError as exc:    # a finite parameter whose square overflows
        raise ConfigError(f"{kind} parameters {params} are out of float range") from exc


def _emit(args, doc: dict, text_lines):
    if args.json:
        print(json.dumps(doc))
    else:
        print("\n".join(text_lines))


def _recorded(fact) -> str:
    """A kernel fact as text; one the kernel does not record says so."""
    return "unknown (not recorded for this kernel)" if fact is None else f"{fact}"


def _check_subsonic(spec, c):
    cs = potentials.sound_speed(spec)
    if not (0.0 < c < cs):
        raise OutOfRegimeError(f"c = {c:g} outside (0, c*) with c* = {cs:g}")


def _one_speed(args, cfg, solve=True):
    """The prologue of solve, decay and mpass: (spec, c, solution, tail).

    --c is required and must be subsonic.  With ``solve``, ``solve_auto``
    solves from the configured grid, whose domain it may double; a solve
    that does not converge raises NlgpError.  Without, the solution and
    tail are None.
    """
    spec = _make_spec(cfg.potential)
    c = cfg.command.get("c")
    if c is None:
        raise ConfigError(f"{args.cmd} needs --c")
    _check_subsonic(spec, c)
    if not solve:
        return spec, c, None, None
    sol, tail = solver.solve_auto(spec, c, cfg.solver, cfg.grid.half_length,
                                  cfg.grid.size)
    if not sol.converged:
        raise NlgpError(f"{sol.status} (residual {sol.residual_sup:.3e})")
    return spec, c, sol, tail


def _cmd_solve(args, cfg):
    spec, c, sol, tail = _one_speed(args, cfg)
    # how the solve was seeded; the coarse level is a record, never a solution
    level, seeded = "contact seed", "the contact seed"
    if sol.coarse:
        level = dataclasses.asdict(sol.coarse)
        seeded = (f"the N = {level['size']}, L = {level['half_length']:g} level "
                  f"({level['newton_iters']} Newton, {level['krylov_iters']} Krylov "
                  "iterations)")
    mom_warn = momentum_conditioning_warning(sol.fields)
    extra = {"tail": tail, "coarse_level": level,
             "momentum_conditioning_warning": mom_warn}
    out = cfg.command.get("out")
    if out:
        doc = nio.write_solution(out, sol, extra=extra)
    else:
        doc = nio.solution_to_dict(sol, extra=extra)
    _emit(args, doc, [
        f"{spec.label()} at c = {c:g}: converged in {sol.newton_iters} Newton "
        f"iterations ({sol.krylov_iters} Krylov)",
        f"  seeded from {seeded}",
        f"  residual sup = {sol.residual_sup:.3e}, tail = {tail:.3e}",
        f"  E = {sol.E!r}, p = {sol.p!r}, J = {sol.J!r}",
        f"  identity suite: {'pass' if sol.identity_report.passed else 'FAIL'} "
        f"(max residual {sol.identity_report.max_residual:.3e})",
        f"  momentum conditioning: {mom_warn or 'ok'}",
    ] + ([f"  wrote {out}"] if out else []))
    return EXIT_OK if sol.identity_report.passed else EXIT_VERIFY


def _cmd_branch(args, cfg):
    spec = _make_spec(cfg.potential)
    c_from, c_to = cfg.command.get("c_from", 0.2), cfg.command.get("c_to", 1.35)
    _check_subsonic(spec, c_from)
    grid = Grid(cfg.grid.half_length, cfg.grid.size)
    branch = solver.continue_branch(spec, grid, c_from, c_to, cfg.solver)
    out = cfg.command.get("out")
    if out:
        nio.write_branch_csv(out, branch)
    failures, rejected = branch.identity_failures, branch.rejected_steps
    # near-vortex members, whose momentum is ill-conditioned
    near_vortex = [(s.c, s.fields.min_rho, warn) for s in branch.solutions
                   if (warn := momentum_conditioning_warning(s.fields))]
    doc = {"spec": spec.label(), "members": len(branch.solutions),
           "termination": branch.termination,
           "rows": branch.table().tolist(),
           "identity_failures": [{"c": c, "max_residual": r} for c, r in failures],
           "rejected_steps": [{"c": c, "status": st, "newton_iters": it}
                              for c, st, it in rejected],
           "momentum_conditioning_warnings": [{"c": c, "min_rho": m}
                                              for c, m, _ in near_vortex]}
    lines = [f"{spec.label()}: branch of {len(branch.solutions)} members, "
             f"terminated: {branch.termination}"]
    if rejected:
        lines.append(f"  {len(rejected)} rejected steps, each halving the step:")
        lines += [f"    c = {c:g}: {st} after {it} Newton iterations"
                  for c, st, it in rejected]
    if failures:
        lines.append(f"  {len(failures)} of {len(branch.solutions)} members "
                     "fail the identity suite:")
        lines += [f"    c = {c:g}: max residual {r:.3e}" for c, r in failures]
    lines += [f"  momentum conditioning at c = {c:g}: {warn}" for c, _, warn in near_vortex]
    # a dark soliton is stable iff dp/dc < 0; nan (no tangent) is flagged too
    rising = [(s.c, d) for s, d in zip(branch.solutions, branch.dp_dc) if not d < 0.0]
    if rising:
        lines.append(f"  {len(rising)} of {len(branch.solutions)} members have "
                     "dp/dc >= 0 (unstable):")
        lines += [f"    c = {c:g}: dp/dc = {d:.6g}" for c, d in rising]
    _emit(args, doc, lines + ([f"  wrote {out}"] if out else []))
    if branch.termination == "newton_failed" and not branch.solutions:
        return EXIT_SOLVER
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_verify(args, cfg):
    if not 0.0 < args.tol < math.inf:    # written so that NaN fails it
        raise ConfigError(f"--tol must be finite and positive, got {args.tol!r}")
    spec, grid, c, arrays, doc = nio.read_solution(args.input)
    _check_subsonic(spec, c)    # as solve does, before anything is assembled
    fields = assemble(grid, arrays["rho"], c, spec)
    report = identity_suite(fields, tol=args.tol)
    sup, l2 = residual_amplitude(fields)
    nv = nonvanishing_check(fields)
    ok = report.passed and sup <= max(10 * doc["residuals"]["sup"], 1e-9)
    # report-only checks of the paper's claims; the verdict ignores them
    tw_sup, tw_l2 = residual_tw(fields)
    pl = analysis.phase_limits(fields)
    try:
        strip = analysis.analyticity_strip(fields)
    except UnderresolvedTailError:
        strip = None
    mom_warn = momentum_conditioning_warning(fields)
    out_doc = {"input": args.input, "residual_sup": sup, "residual_l2": l2,
               "identity": report.as_dict(),
               "nonvanishing": {"weta_sup": nv.weta_sup, "bound": nv.bound,
                                "pass": nv.passed},
               "residual_tw": {"sup": tw_sup, "l2": tw_l2},
               "phase_limits": {"theta_minus": pl.theta_minus,
                                "theta_plus": pl.theta_plus, "jump": pl.jump,
                                "tail_warning": pl.tail_warning},
               "analyticity": {"strip": strip},
               "momentum_conditioning_warning": mom_warn,
               "pass": bool(ok)}
    lines = [f"verify {args.input}: residual sup = {sup:.3e}"]
    for e in report.entries:
        state = "pass" if e.passed else "FAIL"
        lines.append(f"  {e.name:18s} {state} residual = {e.residual_rel:.3e}"
                     + (" (holds by construction)" if e.by_construction else ""))
    lines.append(f"  nonvanishing bound: {'pass' if nv.passed else 'FAIL'} "
                 f"({nv.weta_sup:.4f} >= {nv.bound:.4f})")
    lines.append(f"  complex equation residual: sup = {tw_sup:.3e}, L2 = {tw_l2:.3e}")
    lines.append(f"  phase limits: theta- = {pl.theta_minus:.9f}, theta+ = {pl.theta_plus:.9f}, "
                 f"jump = {pl.jump:.9f}" + (" (tail warning)" if pl.tail_warning else ""))
    lines.append("  analyticity strip half-width (spectral fit): "
                 + (f"{strip:.6g}" if strip is not None else "underresolved"))
    lines.append(f"  momentum conditioning: {mom_warn or 'ok'}")
    lines.append("verification " + ("passed" if ok else "FAILED"))
    _emit(args, out_doc, lines)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_dispersion(args, cfg):
    spec = _make_spec(cfg.potential)
    cs = potentials.sound_speed(spec)
    n = cfg.command.get("n", 2048)
    # numpy refuses a huge n as "array is too big", from 2^63 on by an IndexError
    try:
        xi = np.linspace(0.0, cfg.command.get("xi_max", 8.0 * cs), n)
    except (MemoryError, ValueError, IndexError) as exc:
        raise ConfigError(f"--n ([command] n) = {n} is too large to allocate") from exc
    w = potentials.dispersion(spec, xi)
    imag = np.isnan(w)
    crit = potentials.roton_maxon(spec, xi)
    c = cfg.command.get("c")
    mc = potentials.mc_symbol(spec, c, xi) if c is not None else None
    out = cfg.command.get("out")
    if out:
        cols = [xi, w] + ([mc] if mc is not None else [])
        header = "xi,w" + (",Mc" if mc is not None else "")
        nio.write_csv(out, header, zip(*cols))
    doc = {"spec": spec.label(), "sound_speed": cs,
           "imaginary_branch_samples": int(imag.sum()),
           "critical_points": [{"xi": x, "w": wv, "type": t} for x, wv, t in crit]}
    lines = [f"{spec.label()}: sound speed c* = {cs:.6f}"]
    if crit:
        for x, wv, t in crit:
            lines.append(f"  dispersion {t} at xi = {x:.4f}, w = {wv:.4f}")
    else:
        lines.append("  dispersion is monotone on the sampled range")
    if imag.any():
        lines.append(f"  imaginary branch on {int(imag.sum())} samples")
    _emit(args, doc, lines + ([f"  wrote {out}"] if out else []))
    return EXIT_OK


def _cmd_certify(args, cfg):
    spec = _make_spec(cfg.potential)
    cert = potentials.certify(spec)
    doc = {"spec": spec.label(), "sigma": cert.sigma, "kappa": cert.kappa,
           "critical_sigma": cert.critical_sigma, "sigma_best": cert.sigma_best,
           "m": cert.m, "h3_full": cert.h3_full, "h2_class": cert.h2_class,
           "h4_norm": cert.h4_norm, "sound_speed": cert.sound_speed,
           "normalized": cert.normalized, "certified_speed": cert.certified_speed,
           "sampled": cert.sampled, "notes": list(cert.notes)}
    lines = [f"{spec.label()} (sampled certificates)",
             f"  quadratic bound: sigma = {cert.sigma:.6f} at kappa = {cert.kappa:.6f}"]
    if cert.critical_sigma is not None:
        lines.append(f"  critical route (kappa = 1/2, nonnegative symbol): "
                     f"sigma = {cert.critical_sigma:.6f}")
    lines.append(f"  certified subsonic interval: (0, {cert.certified_speed:.6f})")
    if cert.m is not None:
        lines.append(f"  derivative bound m = {cert.m:.6f} "
                     f"({'full' if cert.h3_full else 'slope only'})")
    lines.append(f"  second-derivative class: {cert.h2_class}; "
                 f"total variation: {_recorded(cert.h4_norm)}")
    for note in cert.notes:
        lines.append(f"  note: {note}")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_mpass(args, cfg):
    spec, c, _, _ = _one_speed(args, cfg, solve=False)
    cert = potentials.certify(spec)
    grid = Grid(cfg.grid.half_length, cfg.grid.size)
    refine_steps = cfg.command.get("refine_steps", 200)
    bracket = functionals.mountain_pass_bracket(c, spec, cert, grid, refine_steps=refine_steps)
    doc = bracket.as_dict()
    out = cfg.command.get("out")
    if out:
        nio.atomic_write_text(out, json.dumps(doc, indent=1))
    _emit(args, doc, [
        f"{spec.label()} at c = {c:g}: mountain-pass bracket",
        f"  lower (sphere bound) = {bracket.lower!r}",
        f"  upper (least path max) = {bracket.upper!r} after {bracket.sweeps} sweeps "
        f"(at most {refine_steps})",
        "  path max at each checkpoint: " + ", ".join(
            f"{u:.8g} ({n}/{len(bracket.path) - 1} segments sampled)"
            for u, n in zip(bracket.upper_history, bracket.segments_sampled)),
        f"  endpoint J = {bracket.endpoint_J!r} "
        f"(delta = {bracket.phi_delta:g}, r = {bracket.phi_r:g})",
    ] + ([f"  wrote {out}"] if out else []))
    return EXIT_OK


def _cmd_decay(args, cfg):
    spec, c, sol, tail = _one_speed(args, cfg)
    pred = potentials.decay_prediction(spec, c)
    grid = sol.grid
    fe, fa, chosen = analysis.select_model(grid, sol.fields.eta)
    doc = {"spec": spec.label(), "c": c,
           "grid": {"half_length": grid.half_length, "size": grid.size},
           "tail": tail, "prediction": {
               "model": pred.model, "value": pred.value, "censored": pred.censored},
           "fit_exponential": {"rate": fe.rate_or_power, "r2": fe.r_squared},
           "fit_algebraic": {"power": fa.rate_or_power, "r2": fa.r_squared},
           "selected": chosen}
    prediction = {"exponential": f"exponential rate {pred.value:.6f}",
                  "algebraic": f"algebraic every power below {pred.value:g}"}.get(
        pred.model, "none (the symbol has neither an analytic extension nor a kink)")
    lines = [f"{spec.label()} at c = {c:g}:",
             f"  solved on L = {grid.half_length:g}, N = {grid.size}, tail = {tail:.3e}",
             "  prediction: " + prediction,
             f"  fitted exponential rate = {fe.rate_or_power:.6f} (r2 = {fe.r_squared:.4f})",
             f"  fitted algebraic power = {fa.rate_or_power:.6f} (r2 = {fa.r_squared:.4f})",
             f"  selected model: {chosen}"]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_sonic(args, cfg):
    spec = _make_spec(cfg.potential)
    sweep = solver.sonic_sweep(spec, cfg.solver,
                               base_half_length=cfg.grid.half_length,
                               base_size=cfg.grid.size)
    out = cfg.command.get("out")
    if out:
        nio.write_csv(out, nio.SONIC_COLUMNS, sweep.rows)
    doc = {"spec": sweep.spec_label, "gamma": sweep.gamma,
           "d2_symbol_at_zero": sweep.d2_symbol_at_zero,
           "nonvanishing_ok": sweep.all_nonvanishing_ok,
           "rows": sweep.rows.tolist(),
           "skipped_gaps": list(sweep.skipped_gaps)}
    skipped = ", ".join(f"{gap:g}" for gap in sweep.skipped_gaps)
    _emit(args, doc, [
        f"{sweep.spec_label}: amplitude exponent gamma = {sweep.gamma:.4f} "
        f"(eta_max ~ (2 - c^2)^gamma)",
        f"  symbol curvature at 0: {_recorded(sweep.d2_symbol_at_zero)}",
        f"  nonvanishing bound held at every sample: {sweep.all_nonvanishing_ok}",
    ] + ([f"  skipped gaps (unconverged or failing the identity suite): {skipped}"]
         if skipped else [])
      + ([f"  wrote {out}"] if out else []))
    return EXIT_OK


def _report_row(name, doc):
    """One summary row of a solution document; None for another format."""
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    if doc.get("format") not in nio.SOLUTION_FORMATS:
        return None
    spec, ident = doc.get("spec"), doc.get("identity") or {}
    if not (isinstance(spec, dict) and isinstance(spec.get("kind"), str)
            and isinstance(ident, dict)):
        raise ValueError("malformed solution file (spec or identity)")
    return (name, spec["kind"], doc.get("c"), doc.get("E"), doc.get("p"),
            doc.get("J"), "pass" if ident.get("pass") else "FAIL")


def _cmd_report(args, cfg):
    import glob
    import os
    if not os.path.isdir(args.dir):
        raise ConfigError(f"--dir {args.dir}: not a directory")
    rows, skipped = [], []
    for path in sorted(glob.glob(os.path.join(args.dir, "*.json"))):
        name = os.path.basename(path)
        try:
            with open(path) as fh:
                row = _report_row(name, json.load(fh))
        except (OSError, ValueError) as exc:   # JSONDecodeError is a ValueError
            skipped.append(f"{name}: {exc}")
            continue
        if row is not None:
            rows.append(row)
    lines = ["# Soliton run summary", "",
             "| file | kernel | c | E | p | J | identities |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append("| " + " | ".join(
            f"{v:.6g}" if isinstance(v, float) else str(v) for v in r) + " |")
    if skipped:
        lines += ["", f"Skipped {len(skipped)} unreadable or malformed files:", ""]
        lines += [f"* {s}" for s in skipped]
    text = "\n".join(lines) + "\n"
    if args.out:
        nio.atomic_write_text(args.out, text)
    else:
        print(text)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve, "branch": _cmd_branch, "verify": _cmd_verify,
    "dispersion": _cmd_dispersion, "certify": _cmd_certify, "mpass": _cmd_mpass,
    "decay": _cmd_decay, "sonic": _cmd_sonic, "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.cmd](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OutOfRegimeError, SupersonicMultiplierError, NoSoundSpeedError) as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except NlgpError as exc:    # every other error is the solver's
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
