"""Run configuration: a single human-editable key-value file (INI sections).

The schema is strict: unknown sections or keys are rejected so that a typo
never silently falls back to a default.  ``serialize`` followed by ``parse``
is the identity on RunConfig values.  Environment variables NLGP_GRID_L and
NLGP_GRID_N override the grid size only (batch sweeps on shared machines).
Precedence, highest first: command-line flags, environment, config file,
defaults.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field, fields as dc_fields

from .errors import ConfigError
from .solver import SolverOptions


@dataclass
class GridConfig:
    half_length: float = 128.0
    size: int = 4096
    auto_refine: bool = True


@dataclass
class RunConfig:
    potential: dict = field(default_factory=lambda: {"kind": "delta"})
    grid: GridConfig = field(default_factory=GridConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    command: dict = field(default_factory=dict)
    seed: int = 0


_SOLVER_FIELDS = {f.name: f.type for f in dc_fields(SolverOptions)}
_GRID_FIELDS = {"half_length": float, "size": int, "auto_refine": bool}
_RUN_KEYS = {"seed": int}
COMMAND_KEYS = {
    "c": float, "c_from": float, "c_to": float, "out": str,
    "refine_steps": int, "xi_max": float, "n": int,
}


def _parse_value(raw: str, typ):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    return raw


def parse(text: str) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = RunConfig()
    for section in cp.sections():
        items = dict(cp.items(section))
        if section == "potential":
            if "kind" not in items:
                raise ConfigError("[potential] needs a 'kind' key")
            pot = {"kind": items.pop("kind").strip()}
            for k, v in items.items():
                pot[k] = _parse_value(v, str if k == "file" else float)
            cfg.potential = pot
        elif section == "grid":
            for k, v in items.items():
                if k not in _GRID_FIELDS:
                    raise ConfigError(f"unknown key [grid] {k}")
                setattr(cfg.grid, k, _parse_value(v, _GRID_FIELDS[k]))
        elif section == "solver":
            kwargs = {}
            for k, v in items.items():
                if k not in _SOLVER_FIELDS:
                    raise ConfigError(f"unknown key [solver] {k}")
                typ = type(getattr(SolverOptions(), k))
                kwargs[k] = _parse_value(v, typ)
            try:
                cfg.solver = SolverOptions(**{**_solver_as_dict(cfg.solver), **kwargs})
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        elif section == "run":
            for k, v in items.items():
                if k not in _RUN_KEYS:
                    raise ConfigError(f"unknown key [run] {k}")
                setattr(cfg, k, _parse_value(v, _RUN_KEYS[k]))
        elif section == "command":
            for k, v in items.items():
                if k not in COMMAND_KEYS:
                    raise ConfigError(f"unknown key [command] {k}")
                cfg.command[k] = _parse_value(v, COMMAND_KEYS[k])
        else:
            raise ConfigError(f"unknown section [{section}]")
    _apply_env_overrides(cfg)
    return cfg


def _solver_as_dict(opts: SolverOptions) -> dict:
    return {f.name: getattr(opts, f.name) for f in dc_fields(SolverOptions)}


def _apply_env_overrides(cfg: RunConfig):
    L = os.environ.get("NLGP_GRID_L")
    N = os.environ.get("NLGP_GRID_N")
    if L is not None:
        cfg.grid.half_length = float(L)
    if N is not None:
        cfg.grid.size = int(N)


def serialize(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp["potential"] = {k: repr(v) if isinstance(v, float) else str(v)
                       for k, v in cfg.potential.items()}
    cp["grid"] = {k: repr(getattr(cfg.grid, k)) if isinstance(getattr(cfg.grid, k), float)
                  else str(getattr(cfg.grid, k)) for k in _GRID_FIELDS}
    cp["solver"] = {k: repr(v) if isinstance(v, float) else str(v)
                    for k, v in _solver_as_dict(cfg.solver).items()}
    cp["run"] = {"seed": str(cfg.seed)}
    if cfg.command:
        cp["command"] = {k: repr(v) if isinstance(v, float) else str(v)
                         for k, v in cfg.command.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_file(path) -> RunConfig:
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
