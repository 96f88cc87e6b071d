"""A standing fuzz test of the command line: random argv, random INI files and
solution files with one member mutated each reach a documented exit code
(0, 2, 3, 4 or 5); code 0 comes with no stderr output, and a non-zero code
with at most one stderr line.

Each argv is one that argparse accepts: every flag belongs to its command,
every typed flag gets a value of its type, and each value is joined to its
flag by "=", so that "-1e-5" is not read as a flag (argparse's own usage
errors are its two-line format, not the program's).  Grid sizes and sample
counts are drawn at most 1024, so a run stays small, or at least 2^60, which
no array can hold and which must be refused before anything is allocated;
never in between, where a run would allocate a huge array.
"""

import base64
import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from nlgp import Grid, cli, gaussian, initial_guess, newton_solve
from nlgp.io import write_solution

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER, cli.EXIT_VERIFY,
              cli.EXIT_REGIME}
FUZZ = settings(derandomize=True, max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# from 2^1024 on, 2L / N overflowed before N's range was checked (exit 1)
HUGE = [2 ** 2000, 2 ** 1100, 2 ** 1030, 2 ** 1024, 2 ** 1023, 2 ** 64, 2 ** 63, 2 ** 60]
sizes = st.one_of(st.sampled_from([1024, 256, 64, 4]), st.integers(-8, 1024),
                  st.sampled_from(HUGE), st.integers(2 ** 60, 2 ** 70))
# numbers as a user types them, for flags and keys of type float
floats = st.one_of(
    st.sampled_from(["0.8", "1.0", "1.2", "0.3", "1.4142", "1.5", "32", "64", "0",
                     "-0.8", "nan", "inf", "-inf", "1e300", "-1e300", "1e-320"]),
    st.floats(-2.0, 2.0, allow_nan=False).map(repr))
# what a kernel parameter, a path or a mistyped value may hold
texts = st.one_of(floats, st.sampled_from(["", "abc", "0x10", "1,2", "[0.5]", "true"]))
counts = st.integers(-3, 3).map(str)
samples = st.one_of(st.integers(-3, 64), sizes).map(str)
kinds = st.sampled_from(["delta", "exp_repulsive", "shifted_deltas", "gaussian",
                         "soft_core", "bochner_riesz", "berloff", "measure_combo",
                         "tabulated", "mystery"])
KERNEL_FLAGS = ["--alpha", "--beta", "--lambda", "--kappa", "--a", "--b", "--file"]
# kernels with valid parameters, so that runs also reach the solver
KERNELS = [{"kind": "delta"}, {"kind": "gaussian", "lambda": "0.3"},
           {"kind": "exp_repulsive", "alpha": "1", "beta": "3"},
           {"kind": "soft_core", "lambda": "1"},
           {"kind": "shifted_deltas", "lambda": "0.5"},
           {"kind": "bochner_riesz", "kappa": "0.4"},
           {"kind": "berloff", "a": "-36", "b": "2687", "lambda": "30"}]
# each command's optional flags and the strategy of each flag's value; the
# commands that need a speed always get one
COMMAND_FLAGS = {
    "solve": {},
    "branch": {"--c-from": floats, "--c-to": floats},
    "dispersion": {"--c": floats, "--xi-max": floats, "--n": samples},
    "certify": {},
    "mpass": {"--refine-steps": counts},
    "decay": {},
    "sonic": {},
}
GRID_COMMANDS = {"solve", "branch", "mpass", "decay", "sonic"}
SPEED_COMMANDS = {"solve", "mpass", "decay"}


def run(argv):
    """(exit code, stderr lines) of one in-process ``nlgp`` call under
    Python's default warning filter, as a shell runs it: a warning is printed
    to stderr and its lines count.  The warnings are recorded and formatted
    here, because pytest's own recorder would otherwise catch them."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("default")
        code = cli.main(argv)
    shown = [warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
             for w in caught]
    return code, "".join(shown).splitlines() + err.getvalue().splitlines()


def check(argv):
    code, err = run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert len(err) <= (0 if code == cli.EXIT_OK else 1), (argv, code, err)


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    if draw(st.booleans()):
        argv = [cmd] + [f"--{'potential' if k == 'kind' else k}={v}"
                        for k, v in draw(st.sampled_from(KERNELS)).items()]
    else:
        argv = [cmd, f"--potential={draw(kinds)}"]
        for flag in draw(st.lists(st.sampled_from(KERNEL_FLAGS), max_size=3, unique=True)):
            argv.append(f"{flag}={draw(texts)}")
    flags = dict(COMMAND_FLAGS[cmd])
    if cmd in SPEED_COMMANDS:
        argv.append(f"--c={draw(floats)}")
    if cmd in GRID_COMMANDS:
        argv.append(f"--N={draw(sizes)}")
        flags["--L"] = floats
    if flags:
        for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
            argv.append(f"{flag}={draw(flags[flag])}")
    return argv


@given(argvs())
@example(["solve", "--potential=delta", "--c=0.9", f"--N={2 ** 2000}"])
@example(["mpass", "--potential=delta", "--c=1.0", f"--N={2 ** 1030}"])
# lam^2 or beta^2 overflowed in the kernel constructor (a traceback)
@example(["certify", "--potential=soft_core", "--lambda=1e200"])
@example(["certify", "--potential=shifted_deltas", "--lambda=1e300"])
@example(["certify", "--potential=exp_repulsive", "--alpha=1e-300", "--beta=1e300"])
@example(["solve", "--potential=soft_core", "--lambda=1e200", "--c=0.9", "--N=1024", "--L=32"])
@example(["solve", "--potential=shifted_deltas", "--lambda=1e300", "--c=0.9", "--N=1024",
          "--L=32"])
@example(["solve", "--potential=exp_repulsive", "--alpha=1e-300", "--beta=1e300", "--c=0.9",
          "--N=1024", "--L=32"])
# berloff with lam < 0, an unbounded symbol (warning lines)
@example(["solve", "--potential=berloff", "--a=-36", "--b=2687", "--lambda=-1", "--c=0.9",
          "--N=1024", "--L=32"])
@example(["certify", "--potential=berloff", "--a=-36", "--b=2687", "--lambda=-1"])
# a symbol of inf * 0 on the certification lattice (a NaN certificate)
@example(["--json", "certify", "--potential=berloff", "--a=1e300", "--b=1e300", "--lambda=1"])
# lam xi^2 overflowed on the certification lattice (warning lines on exit 0)
@example(["certify", "--potential=gaussian", "--lambda=1e307"])
# xi^4 overflowed, or xi^2 underflowed and the slope divided by w = 0
# (warning lines on exit 0)
@example(["dispersion", "--potential=delta", "--xi-max=1e300"])
@example(["dispersion", "--potential=delta", "--xi-max=1e-320"])
@FUZZ
def test_random_argv(argv):
    check(argv)


SECTIONS = {
    "potential": {"kind": kinds, "lambda": texts, "alpha": texts, "beta": texts,
                  "kappa": texts, "file": texts},
    "grid": {"half_length": texts},
    "solver": {"tol_newton": texts, "max_iter": st.one_of(counts, texts),
               "dc_init": texts},
    "command": {"c": texts, "c_from": texts, "c_to": texts, "refine_steps": counts,
                "xi_max": texts, "n": samples},
    "mystery": {"x": texts},
}


@st.composite
def ini_files(draw):
    """An INI text whose [grid] size is drawn from ``sizes`` (a run's grid
    never takes the default N = 4096), with random keys, values and garbage."""
    lines = ["[grid]", f"size = {draw(sizes)}"]
    if draw(st.booleans()):
        lines.append("[potential]")
        lines += [f"{k} = {v}" for k, v in draw(st.sampled_from(KERNELS)).items()]
    for section in draw(st.lists(st.sampled_from(sorted(SECTIONS)), max_size=3,
                                 unique=True)):
        lines.append(f"[{section}]")
        keys = SECTIONS[section]
        for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=3, unique=True)):
            lines.append(f"{key} = {draw(keys[key].map(str))}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["garbage", "= 1", "[", "size", "[grid]"])))
    return "\n".join(lines) + "\n"


@given(ini_files(), st.sampled_from(sorted(COMMAND_FLAGS)))
@example(f"[grid]\nsize = {2 ** 1100}\n[command]\nc = 0.9\n", "solve")
@FUZZ
def test_random_config_file(tmp_path_factory, text, cmd):
    path = tmp_path_factory.mktemp("ini") / "run.ini"
    path.write_text(text)
    check(["--config", str(path), cmd])


@pytest.fixture(scope="module")
def solution_doc(tmp_path_factory):
    """The document of a valid gaussian(0.3) solution file."""
    grid = Grid(32.0, 1024)
    sol = newton_solve(gaussian(0.3), grid, 1.0, initial_guess(grid, 1.0))
    return write_solution(tmp_path_factory.mktemp("sol") / "sol.json", sol)


MEMBERS = ["format", "spec", "spec.kind", "spec.params", "spec.params.lam", "c",
           "grid", "grid.size", "grid.half_length", "residuals", "residuals.sup",
           "identity", "payload", "payload.rho", "payload.encoding"]
VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "abc", [], {}, [0.5], {"lam": 0.3},
                     float("nan"), float("inf"), -0.8, 0, 0.0, 5, 1e300, 4096.0,
                     "nlgp-solution-v1", "gaussian", "delta", "AAAA"]),
    sizes, st.floats(-2.0, 2.0))


def _replaced(doc, where, value):
    """doc with the member at the dotted path ``where`` set to value."""
    head, _, rest = where.partition(".")
    return {**doc, head: _replaced(doc[head], rest, value) if rest else value}


@given(st.sampled_from(MEMBERS), VALUES, st.sampled_from(["verify", "report"]))
@example("grid.size", 2 ** 2000, "verify")
@example("spec.params.lam", 2 ** 1023, "verify")   # lam xi^2 overflowed
@example("payload.rho", base64.b64encode(np.full(1024, np.inf, dtype="<f8").tobytes()).decode(),
         "verify")
@FUZZ
def test_mutated_solution_file(solution_doc, tmp_path_factory, where, value, cmd):
    folder = tmp_path_factory.mktemp("mutated")
    path = folder / "sol.json"
    path.write_text(json.dumps(_replaced(solution_doc, where, value)))
    check(["verify", str(path)] if cmd == "verify" else ["report", "--dir", str(folder)])
