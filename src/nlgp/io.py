"""Solution and branch files: JSON header with a compact binary payload.

A solution's payload is rho alone, a base64-encoded little-endian float64
block, so it round-trips bit-exactly; theta and eta are functions of rho and
c (``hydro.assemble``).  Files of the first format, whose payload also holds
theta and eta, are still read, and those two are ignored.  All writes are
atomic (temp file plus rename).
"""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile

import numpy as np

from .analysis import fit_exponential
from .errors import ConfigError, UnderresolvedTailError
from .potentials import make_potential, tabulated
from .spectral import Grid

SOLUTION_FORMAT = "nlgp-solution-v2"
SOLUTION_FORMATS = (SOLUTION_FORMAT, "nlgp-solution-v1")   # the formats read


def atomic_write_text(path, text: str):
    """Write text to path through a temporary file in its directory; a path
    that cannot be written (a missing directory, say) raises ConfigError."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _encode(a: np.ndarray) -> str:
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode(s: str) -> np.ndarray:
    # b64decode takes the ASCII str as it is, and raises TypeError on any
    # other JSON value
    return np.frombuffer(base64.b64decode(s), dtype="<f8").copy()


def solution_to_dict(sol, extra=None) -> dict:
    f = sol.fields
    spec = {"kind": sol.spec.kind, "params": dict(sol.spec.params)}
    if sol.spec.table is not None:
        xs, ws = sol.spec.table
        spec["table"] = {"encoding": "base64/float64-le",
                         "xi": _encode(xs), "w": _encode(ws)}
    doc = {
        "format": SOLUTION_FORMAT,
        "spec": spec,
        "c": f.c,
        "grid": {"half_length": f.grid.half_length, "size": f.grid.size},
        "converged": sol.converged,
        "status": sol.status,
        "newton_iters": sol.newton_iters,
        "krylov_iters": sol.krylov_iters,
        "residuals": {"sup": sol.residual_sup, "l2": sol.residual_l2},
        "E": sol.E,
        "p": sol.p,
        "J": sol.J,
        "identity": sol.identity_report.as_dict() if sol.identity_report else None,
        "payload": {
            "encoding": "base64/float64-le",
            "rho": _encode(f.rho),
        },
    }
    if extra:
        doc.update(extra)
    return doc


def _solution_text(doc: dict) -> str:
    """json.dumps(doc, indent=1), with the payload's strings spliced in
    as they are: base64 needs no JSON escape, so they are never scanned.
    A JSON text holds no raw newline, so each other member is dumped alone
    and nested one level deeper by indenting each of its lines once more."""
    members = []
    for key, value in doc.items():
        if key == "payload":
            text = "{\n" + ",\n".join(f'  {json.dumps(k)}: "{v}"'
                                       for k, v in value.items()) + "\n }"
        else:
            text = json.dumps(value, indent=1).replace("\n", "\n ")
        members.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n}"


def write_solution(path, sol, extra=None) -> dict:
    """Write the solution file; returns the document written."""
    doc = solution_to_dict(sol, extra)
    atomic_write_text(path, _solution_text(doc))
    return doc


def _number(path, where: str, v) -> float:
    """The JSON value v at member ``where`` as a float; ConfigError unless it
    is a finite number (JSON's true is an int, float() would take a string,
    and an int may lie beyond float range)."""
    try:
        x = float(v) if type(v) in (int, float) else math.nan
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{path}: {where} must be a finite number, got {v!r}")
    return x


def read_solution(path):
    """Load a solution file: (spec, grid, c, {"rho": rho}, full document).

    Either format is read, and only its rho is decoded.  A file that is not
    a well-formed solution raises ConfigError; so do a kernel param (or an
    item of a list param), c, residuals.sup or grid.half_length that is not
    a finite number, and a grid.size that is not an integer.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read solution {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") not in SOLUTION_FORMATS:
        raise ConfigError(f"not a solution file: {path}")
    try:
        if doc["spec"]["kind"] == "tabulated":
            table = doc["spec"].get("table")
            if table is None:
                raise ConfigError(f"{path}: tabulated solution file has no symbol "
                                  "table (spec.table with the xi, W_hat samples)")
            spec = tabulated(_decode(table["xi"]), _decode(table["w"]))
        else:
            params = doc["spec"]["params"]
            for k, v in params.items():
                if type(v) is list:       # measure_combo's weights and shifts
                    for i, x in enumerate(v):
                        _number(path, f"spec.params.{k}[{i}]", x)
                else:
                    _number(path, f"spec.params.{k}", v)
            spec = make_potential(doc["spec"]["kind"], **params)
        size = doc["grid"]["size"]
        if type(size) is not int:
            raise ConfigError(f"{path}: grid.size must be an integer, got {size!r}")
        grid = Grid(_number(path, "grid.half_length", doc["grid"]["half_length"]), size)
        rho = _decode(doc["payload"]["rho"])
        # c and the reference residual of nlgp verify
        c = _number(path, "c", doc["c"])
        sup = _number(path, "residuals.sup", doc["residuals"]["sup"])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed solution file: {exc!r}") from exc
    if rho.size != grid.size:
        raise ConfigError(f"{path}: payload length differs from grid size {grid.size}")
    return spec, grid, c, {"rho": rho}, doc


BRANCH_COLUMNS = "c,E,p,J,eta_max,min_rho,decay_rate_fit,newton_iters,dp_dc"
SONIC_COLUMNS = "c,gap,eta_max,E,p,nonvanishing_margin"


def fmt_cell(v) -> str:
    """Full-precision text for one CSV cell (shortest round-trip repr)."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, header: str, rows):
    lines = [header] + [",".join(fmt_cell(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _decay_rate_fit(fields) -> float:
    """Fitted exponential tail rate of eta, nan when the tail is underresolved."""
    try:
        return fit_exponential(fields.grid, fields.eta).rate_or_power
    except UnderresolvedTailError:
        return float("nan")


def write_branch_csv(path, branch):
    rows = [(s.c, s.E, s.p, s.J, s.eta_max, s.fields.min_rho,
             _decay_rate_fit(s.fields), s.newton_iters, d)
            for s, d in zip(branch.solutions, branch.dp_dc)]
    write_csv(path, BRANCH_COLUMNS, rows)
