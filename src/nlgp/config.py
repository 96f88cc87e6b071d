"""Run configuration: a single human-editable key-value file (INI sections).

The schema is strict: unknown sections or keys are rejected so that a typo
never silently falls back to a default, and a value that does not parse as
its key's type is rejected naming the section and key.  Comments start with
``;``, on a line of their own or after a value.  Precedence, highest first:
command-line flags, config file, defaults; nothing else, the environment
included, sets a run.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields as dc_fields, replace

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


_SOLVER_FIELDS = {f.name: type(f.default) for f in dc_fields(SolverOptions)}
_GRID_FIELDS = {"half_length": float, "size": int}
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
        # configparser puts each offending line on a line of its own
        message = "; ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed config: {message}") from exc
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
        elif section == "command":
            cfg.command.update(_typed(section, items, COMMAND_KEYS))
        else:
            raise ConfigError(f"unknown section [{section}]")
    return cfg


def parse_file(path) -> RunConfig:
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
