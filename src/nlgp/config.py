"""Run configuration: a single human-editable key-value file (INI sections).

The schema is strict: unknown sections or keys are rejected so that a typo
never silently falls back to a default, and a value that does not parse as
its key's type is rejected naming the section and key.  Comments start with
``;``, on a line of their own or after a value.  ``serialize`` followed by
``parse`` is the identity on RunConfig values.  Environment variables NLGP_GRID_L and
NLGP_GRID_N override the grid size only (batch sweeps on shared machines).
Precedence, highest first: command-line flags, environment, config file,
defaults.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import asdict, dataclass, field, fields as dc_fields, replace

from .errors import ConfigError
from .solver import SolverOptions


@dataclass
class GridConfig:
    half_length: float = 128.0
    size: int = 4096


@dataclass
class RunConfig:
    potential: dict = field(default_factory=lambda: {"kind": "delta"})
    grid: GridConfig = field(default_factory=GridConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    command: dict = field(default_factory=dict)
    seed: int = 0


_SOLVER_FIELDS = {f.name: type(f.default) for f in dc_fields(SolverOptions)}
_GRID_FIELDS = {"half_length": float, "size": int}
_RUN_KEYS = {"seed": int}
COMMAND_KEYS = {
    "c": float, "c_from": float, "c_to": float, "out": str,
    "refine_steps": int, "xi_max": float, "n": int,
}


def parse_value(where: str, raw: str, typ):
    """``raw`` as a ``typ``; ConfigError naming ``where`` it came from if it
    does not parse."""
    raw = raw.strip()
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {typ.__name__}, got {raw!r}") from None


def _typed(section: str, items: dict, schema: dict) -> dict:
    """The section's values parsed to the schema's types; unknown keys rejected."""
    for k in items:
        if k not in schema:
            raise ConfigError(f"unknown key [{section}] {k}")
    return {k: parse_value(f"[{section}] {k}", v, schema[k]) for k, v in items.items()}


def parse(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
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
                pot[k] = parse_value(f"[{section}] {k}", v, str if k == "file" else float)
            cfg.potential = pot
        elif section == "grid":
            cfg.grid = replace(cfg.grid, **_typed(section, items, _GRID_FIELDS))
        elif section == "solver":
            try:
                cfg.solver = replace(cfg.solver, **_typed(section, items, _SOLVER_FIELDS))
            except ValueError as exc:
                raise ConfigError(f"[solver] {exc}") from exc
        elif section == "run":
            cfg.seed = _typed(section, items, _RUN_KEYS).get("seed", cfg.seed)
        elif section == "command":
            cfg.command.update(_typed(section, items, COMMAND_KEYS))
        else:
            raise ConfigError(f"unknown section [{section}]")
    _apply_env_overrides(cfg)
    return cfg


def _apply_env_overrides(cfg: RunConfig):
    L = os.environ.get("NLGP_GRID_L")
    N = os.environ.get("NLGP_GRID_N")
    if L is not None:
        cfg.grid.half_length = parse_value("NLGP_GRID_L", L, float)
    if N is not None:
        cfg.grid.size = parse_value("NLGP_GRID_N", N, int)


def serialize(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    sections = {"potential": cfg.potential, "grid": asdict(cfg.grid),
                "solver": asdict(cfg.solver), "run": {"seed": cfg.seed},
                "command": cfg.command}
    for name, values in sections.items():
        if values:
            cp[name] = {k: repr(v) if isinstance(v, float) else str(v)
                        for k, v in values.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_file(path) -> RunConfig:
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
