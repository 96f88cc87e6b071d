"""Command-line interface.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 verification failure,
5 out of regime (speed at or beyond the sound speed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, config, functionals, io as nio, potentials, solver
from .errors import (CertificationError, ConfigError, NlgpError,
                     NoSoundSpeedError, OutOfRegimeError,
                     SupersonicMultiplierError, VortexError)
from .hydro import (IDENTITY_TOL, assemble, identity_suite,
                    momentum_conditioning_warning, nonvanishing_check,
                    residual_rho, residual_tw)
from .spectral import Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_REGIME = 5

ANALYTICITY_MU = tuple(k / 5 for k in range(21))   # verify's proxy strip widths 0, 0.2, ..., 4

_PARAM_FLAGS = ("alpha", "beta", "lam", "kappa", "a", "b", "file")
_ALIASES = {"lambda": "lam"}


def _build_parser():
    p = argparse.ArgumentParser(prog="nlgp",
                                description="dark solitons of the 1-d nonlocal "
                                            "Gross-Pitaevskii equation")
    p.add_argument("--config", help="key-value config file (INI sections)")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, speed=True):
        sp.add_argument("--potential", help="catalog kind, e.g. delta, gaussian")
        for f in _PARAM_FLAGS:
            sp.add_argument(f"--{f}", default=None)
        sp.add_argument("--lambda", dest="lam", default=None)
        sp.add_argument("--L", type=float, default=None, help="grid half-length")
        sp.add_argument("--N", type=int, default=None, help="grid size (power of two)")
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=None)
        if speed:
            sp.add_argument("--c", type=float, default=None)

    sp = sub.add_parser("solve", help="compute one soliton")
    common(sp)
    sp = sub.add_parser("branch", help="continue a branch over a speed range")
    common(sp, speed=False)
    sp.add_argument("--c-from", type=float, default=None)
    sp.add_argument("--c-to", type=float, default=None)
    sp = sub.add_parser("verify", help="re-run the identity suite on a saved solution")
    sp.add_argument("input")
    sp.add_argument("--tol", type=float, default=IDENTITY_TOL)
    sp = sub.add_parser("dispersion", help="dispersion curve, multiplier, critical points")
    common(sp)
    sp.add_argument("--xi-max", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp = sub.add_parser("certify", help="sampled kernel-hypothesis certificates")
    common(sp, speed=False)
    sp = sub.add_parser("mpass", help="mountain-pass bracket at one speed")
    common(sp)
    sp.add_argument("--refine-steps", type=int, default=None)
    sp = sub.add_parser("decay", help="tail fit against the multiplier prediction")
    common(sp)
    sp = sub.add_parser("sonic", help="amplitude sweep toward the sonic speed")
    common(sp, speed=False)
    sp = sub.add_parser("report", help="aggregate emitted JSON files to Markdown")
    sp.add_argument("--dir", required=True)
    sp.add_argument("--out", default=None)
    return p


def _load_config(args) -> config.RunConfig:
    """Flags override the environment, which overrides the config file; a set
    command flag replaces its ``[command]`` key, which commands read alone."""
    cfg = config.parse_file(args.config) if args.config else config.parse("")
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
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    cfg.command.update({k: getattr(args, k) for k in config.COMMAND_KEYS
                        if getattr(args, k, None) is not None})
    # the integer keys are counts; the dispersion slope needs two positive
    # frequencies besides xi = 0, so n counts at least three samples
    for k, typ in config.COMMAND_KEYS.items():
        least = 3 if k == "n" else 0
        if typ is int and k in cfg.command and cfg.command[k] < least:
            raise ConfigError(f"--{k.replace('_', '-')} ([command] {k}) must be "
                              f">= {least}, got {cfg.command[k]}")
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


def _emit(args, doc: dict, text_lines):
    if args.json:
        print(json.dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _check_subsonic(spec, c):
    cs = potentials.sound_speed(spec)
    if not (0.0 < c < cs):
        raise OutOfRegimeError(f"c = {c:g} outside (0, c*) with c* = {cs:g}")


def _cmd_solve(args, cfg):
    spec = _make_spec(cfg.potential)
    c = cfg.command.get("c")
    if c is None:
        raise ConfigError("solve needs --c")
    _check_subsonic(spec, c)
    sol, tail = solver.solve_auto(spec, c, cfg.solver, cfg.grid.half_length,
                                  cfg.grid.size)
    if not sol.converged:
        print(f"solver failure: {sol.status} (residual {sol.residual_sup:.3e})",
              file=sys.stderr)
        return EXIT_SOLVER
    doc = nio.solution_to_dict(sol, seed=cfg.seed, extra={"tail": tail})
    out = cfg.command.get("out")
    if out:
        nio.write_solution(out, sol, seed=cfg.seed, extra={"tail": tail})
    _emit(args, doc, [
        f"{spec.label()} at c = {c:g}: converged in {sol.newton_iters} Newton "
        f"iterations ({sol.krylov_iters} Krylov)",
        f"  residual sup = {sol.residual_sup:.3e}, tail = {tail:.3e}",
        f"  E = {sol.E!r}, p = {sol.p!r}, J = {sol.J!r}",
        f"  identity suite: {'pass' if sol.identity_report.passed else 'FAIL'} "
        f"(max residual {sol.identity_report.max_residual:.3e})",
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
    doc = {"spec": spec.label(), "members": len(branch.solutions),
           "termination": branch.termination,
           "rows": branch.table().tolist(),
           "identity_failures": [{"c": c, "max_residual": r} for c, r in failures],
           "rejected_steps": [{"c": c, "status": st, "newton_iters": it}
                              for c, st, it in rejected]}
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
    _emit(args, doc, lines + ([f"  wrote {out}"] if out else []))
    if branch.termination == "newton_failed" and not branch.solutions:
        return EXIT_SOLVER
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_verify(args, cfg):
    if not 0.0 < args.tol < math.inf:    # written so that NaN fails it
        raise ConfigError(f"--tol must be finite and positive, got {args.tol!r}")
    spec, grid, c, arrays, doc = nio.read_solution(args.input)
    fields = assemble(grid, arrays["rho"], c, spec)
    report = identity_suite(fields, tol=args.tol)
    sup, l2 = residual_rho(grid, arrays["rho"], c, spec)
    nv = nonvanishing_check(fields)
    ok = report.passed and sup <= max(10 * doc["residuals"]["sup"], 1e-9)
    # report-only checks of the paper's claims; the verdict ignores them
    tw_sup, tw_l2 = residual_tw(fields)
    pl = analysis.phase_limits(fields)
    _, radius = analysis.analyticity_proxy(fields, ANALYTICITY_MU)
    mom_warn = momentum_conditioning_warning(fields)
    out_doc = {"input": args.input, "residual_sup": sup, "residual_l2": l2,
               "identity": report.as_dict(),
               "nonvanishing": {"weta_sup": nv.weta_sup, "bound": nv.bound,
                                "pass": nv.passed},
               "residual_tw": {"sup": tw_sup, "l2": tw_l2},
               "phase_limits": {"theta_minus": pl.theta_minus,
                                "theta_plus": pl.theta_plus, "jump": pl.jump,
                                "tail_warning": pl.tail_warning},
               "analyticity": {"radius": radius, "mu_max": ANALYTICITY_MU[-1]},
               "momentum_conditioning_warning": mom_warn,
               "pass": bool(ok)}
    lines = [f"verify {args.input}: residual sup = {sup:.3e}"]
    for e in report.entries:
        state = "skip" if e.skipped else ("pass" if e.passed else "FAIL")
        lines.append(f"  {e.name:18s} {state:4s} residual = {e.residual_rel:.3e}")
    lines.append(f"  nonvanishing bound: {'pass' if nv.passed else 'FAIL'} "
                 f"({nv.weta_sup:.4f} >= {nv.bound:.4f})")
    lines.append(f"  complex equation residual: sup = {tw_sup:.3e}, L2 = {tw_l2:.3e}")
    lines.append(f"  phase limits: theta- = {pl.theta_minus:.9f}, theta+ = {pl.theta_plus:.9f}, "
                 f"jump = {pl.jump:.9f}" + (" (tail warning)" if pl.tail_warning else ""))
    lines.append(f"  analyticity strip radius (proxy): {radius:g} "
                 f"(largest sampled {ANALYTICITY_MU[-1]:g})")
    lines.append(f"  momentum conditioning: {mom_warn or 'ok'}")
    lines.append("verification " + ("passed" if ok else "FAILED"))
    _emit(args, out_doc, lines)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_dispersion(args, cfg):
    spec = _make_spec(cfg.potential)
    cs = potentials.sound_speed(spec)
    xi = np.linspace(0.0, cfg.command.get("xi_max", 8.0 * cs),
                     cfg.command.get("n", 2048))
    w, imag = potentials.dispersion(spec, xi, with_flag=True)
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
                 f"total variation: {cert.h4_norm}")
    for note in cert.notes:
        lines.append(f"  note: {note}")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_mpass(args, cfg):
    spec = _make_spec(cfg.potential)
    c = cfg.command.get("c")
    if c is None:
        raise ConfigError("mpass needs --c")
    cert = potentials.certify(spec)
    grid = Grid(cfg.grid.half_length, cfg.grid.size)
    bracket = functionals.mountain_pass_bracket(
        c, spec, cert, grid, refine_steps=cfg.command.get("refine_steps", 200))
    doc = bracket.as_dict()
    doc["seed"] = cfg.seed
    del doc["upper_history"]
    out = cfg.command.get("out")
    if out:
        nio.atomic_write_text(out, json.dumps(doc, indent=1))
    _emit(args, doc, [
        f"{spec.label()} at c = {c:g}: mountain-pass bracket",
        f"  lower (sphere bound) = {bracket.lower!r}",
        f"  upper (best path max) = {bracket.upper!r}",
        f"  endpoint J = {bracket.endpoint_J!r} "
        f"(delta = {bracket.phi_delta:g}, r = {bracket.phi_r:g})",
    ] + ([f"  wrote {out}"] if out else []))
    return EXIT_OK


def _cmd_decay(args, cfg):
    spec = _make_spec(cfg.potential)
    c = cfg.command.get("c")
    if c is None:
        raise ConfigError("decay needs --c")
    _check_subsonic(spec, c)
    pred = potentials.decay_prediction(spec, c)
    if pred.model == "exponential" and not pred.censored:
        L = max(8.0, min(40.0, 24.0 / pred.value))
        grid = Grid(L, 1024)
    else:
        grid = Grid(cfg.grid.half_length, cfg.grid.size)
    sol = solver.newton_solve(spec, grid, c, solver.initial_guess(grid, c), cfg.solver)
    if not sol.converged:
        print(f"solver failure: {sol.status}", file=sys.stderr)
        return EXIT_SOLVER
    fe, fa, chosen = analysis.select_model(grid, sol.fields.eta)
    doc = {"spec": spec.label(), "c": c, "prediction": {
               "model": pred.model, "value": pred.value, "censored": pred.censored},
           "fit_exponential": {"rate": fe.rate_or_power, "r2": fe.r_squared},
           "fit_algebraic": {"power": fa.rate_or_power, "r2": fa.r_squared},
           "selected": chosen}
    lines = [f"{spec.label()} at c = {c:g}:",
             f"  prediction: {pred.model} "
             + (f"rate {pred.value:.6f}" if pred.model == 'exponential'
                else f"every power below {pred.value:g}"),
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
        nio.write_csv(out, "c,gap,eta_max,E,p,nonvanishing_margin", sweep.rows)
    doc = {"spec": sweep.spec_label, "gamma": sweep.gamma,
           "d2_symbol_at_zero": sweep.d2_symbol_at_zero,
           "nonvanishing_ok": sweep.all_nonvanishing_ok,
           "rows": sweep.rows.tolist(),
           "skipped_gaps": list(sweep.skipped_gaps)}
    skipped = ", ".join(f"{gap:g}" for gap in sweep.skipped_gaps)
    _emit(args, doc, [
        f"{sweep.spec_label}: amplitude exponent gamma = {sweep.gamma:.4f} "
        f"(eta_max ~ (2 - c^2)^gamma)",
        f"  symbol curvature at 0: {sweep.d2_symbol_at_zero}",
        f"  nonvanishing bound held at every sample: {sweep.all_nonvanishing_ok}",
    ] + ([f"  skipped gaps (no convergence): {skipped}"] if skipped else [])
      + ([f"  wrote {out}"] if out else []))
    return EXIT_OK


def _report_row(name, doc):
    """One summary row of a solution document; None for another format."""
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    if doc.get("format") != nio.SOLUTION_FORMAT:
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
    except (VortexError, CertificationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NlgpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
