"""Batch command line front end.

Every subcommand evaluates a deterministic experiment grid and emits one
table, as CSV (meta in ``# key=value`` header lines) or JSON
(``{"meta": .., "columns": .., "rows": ..}``). Options may come from a
``key = value`` config file (``--config``); explicit flags win over the
file, built-in defaults fill the rest. List-valued options take comma
separated values and expand as a Cartesian grid. ``--jobs`` parallelizes
over groups of grid points without changing results or row order: the
success grids hand their systems (the noisy position sets of ``noisy``,
the n list of ``firstmax``, the position classes of ``invariance``) to one
step loop per distinct weight-basis dimension d' <= 2(m + 1), which runs
every system of that d' against every (p, mu) pair at once, so a group is
one d' (in ``firstmax``, each n leaves its loop once its points have
passed their first maximum). The witness grids run every (p, mu) pair
that shares its bath as one witness call, whose runs of points each take
one batched step loop and one stacked pass of trace norms, so ``blp`` and
``cpdiv`` are one group each and ``thermal`` one group per temperature.

The command line is ``command`` and then ``--option value`` or
``--option=value`` pairs, read in one pass from the option table below:
a flag is spelled in full, as its config key is, a repeated flag keeps
its last value, and any other token is an error. ``-h``/``--help`` prints
the help of the command line or of one command, built from the same
table; ``--version`` prints the version.

Exit codes: 0 success, 1 invalid configuration or inputs, a run that
does not fit in memory, or a standard output that was closed before the
table was written, 2 a numeric invariant failed mid-run.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn, Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .collision import (
    _chunks,
    dilation_unitary,
    extract_m,
    kraus_from_dilation,
    kraus_step,
    thermal_weights,
    unitarity_defect,
    verify_dilation,
)
from .grover import GroverInstance, ideal_success_series, optimal_iterations
from .linalg import InvariantViolation, trace_distance
from .markov import (
    HISTORY_MAX_STEPS,
    _group_first_max,
    _group_series,
    _table,
    history_oracle,
    markov_evolve,
)
from .measures import n_blp, n_cp
from .noise import MarkovNoiseParams, SingleQubitUnitary, _weight_system
from .noise import _weight_class, _class_representatives, noise_spec, noise_unitary
from .noise import single_qubit_unitary


class ConfigError(ValueError):
    """Bad command line, config file, or option value."""


# Largest weight-basis dimension d' that dilation-check and oracle-check
# build their operators at, whatever n is. d' = 256 (n = 128, m = 127)
# gives dilation-check 8d' x 8d' unitaries of 64 MiB, 2-3 s a point on one
# core, and oracle-check 13 history sums of 1 MiB at 12 steps, about 0.5 s.
CHECK_MAX_DIM = 256


@dataclass
class ResultTable:
    """What every subcommand produces: ordered meta, column names, rows."""

    meta: dict
    columns: list[str]
    rows: list[list]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


# The rows of a json table in one pass of the C encoder, which json.dumps
# gives up once it indents: the item separator is the one json.dumps(indent=2)
# writes between the numbers of a row, and :func:`_json_rows` puts the
# breaks between rows in after.
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_rows(rows: list[list]) -> str:
    """``rows``, flat nonempty lists of numbers, as json.dumps(indent=2)
    writes them as the value of a top-level key. A string in a row could
    not hold the "],<newline>" that is cut here: json escapes a newline."""
    if not rows:
        return "[]"
    text = _ROWS_ENCODER.encode(rows)[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
    return "[\n    [\n      " + text + "\n    ]\n  ]"


def emit(table: ResultTable, fmt: str, stream: TextIO) -> None:
    """Write ``table`` to ``stream`` as csv or json (LF line endings), in one
    ``write`` call. The json text is that of json.dumps(indent=2) of
    {"meta", "columns", "rows"}; the rows go through :func:`_json_rows`."""
    if fmt == "csv":
        lines = [f"# {key}={_fmt(value)}" for key, value in table.meta.items()]
        lines.append(",".join(table.columns))
        lines += [",".join(_fmt(v) for v in row) for row in table.rows]
        stream.write("\n".join(lines) + "\n")
    elif fmt == "json":
        head = json.dumps({"meta": table.meta, "columns": table.columns}, indent=2)
        stream.write(head[:-2] + ',\n  "rows": ' + _json_rows(table.rows) + "\n}\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")


# ---------------------------------------------------------------- parsing
# A parser turns one option string into its value or raises ConfigError;
# _resolve_options puts the option's name in front of the message.

def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{text!r} is not an integer") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{text!r} is not a number") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(part) for part in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in text.split(","))


def _parse_natural(text: str) -> int:
    value = _parse_int(text)
    if value < 0:
        raise ConfigError(f"{value} is negative")
    return value


def _parse_positive(text: str) -> int:
    value = _parse_int(text)
    if value < 1:
        raise ConfigError(f"{value} is not positive")
    return value


def _parse_temperature(text: str) -> float:
    value = _parse_float(text)
    if not (math.isfinite(value) and value >= 0.0):  # 0 selects pure ancillas
        raise ConfigError(f"{text!r} is not finite and non-negative")
    return value


def _parse_temps(text: str) -> tuple[float, ...]:
    temps = _parse_float_list(text)
    if not all(math.isfinite(t) and t > 0.0 for t in temps):
        raise ConfigError(f"{text!r} has a temperature that is not finite and positive")
    return temps


def _parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ConfigError(f"{text!r} is not csv or json")
    return text


def _parse_noise(text: str) -> SingleQubitUnitary:
    """Preset name, or ``custom:A,B,THETA`` with complex literals A and B."""
    text = text.strip()
    if text.startswith("custom:"):
        parts = text[len("custom:"):].split(",")
        if len(parts) != 3:
            raise ConfigError(f"custom noise needs a,b,theta, got {text!r}")
        try:
            a = complex(parts[0])
            b = complex(parts[1])
            theta = float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"cannot parse custom noise {text!r}: {exc}") from None
        try:
            return single_qubit_unitary(a, b, theta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    try:
        return noise_unitary(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str) -> dict[str, str]:
    """Read a ``key = value`` file; ``#`` starts a comment, blanks ignored.
    A key may appear once, and a config file cannot name another."""
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                if key == "config":
                    raise ConfigError(f"{path}:{lineno}: a config file cannot name another")
                if key in entries:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} repeats an earlier line")
                entries[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return entries


class _Option(NamedTuple):
    dest: str  # the flag is --dest
    parse: Callable[[str], object]
    help: str


# Every option, declared once. A dest that takes one value on some
# subcommands and a comma list on others has one entry per shape.
_OPTIONS = {
    "n": _Option("n", _parse_int, "qubit count"),
    "n-list": _Option("n", _parse_int_list, "comma list of qubit counts"),
    "marked": _Option("marked", _parse_int, "marked basis index"),
    "noise": _Option("noise", _parse_noise, "preset (identity,x,y,z,hadamard) or custom:a,b,theta"),
    "m": _Option("m", _parse_int, "noisy-qubit count"),
    "m-list": _Option("m", _parse_int_list, "comma list of noisy-qubit counts"),
    "positions": _Option(
        "positions", _parse_int_list,
        "comma list of noisy positions, which fix m; a given --m must equal their number",
    ),
    "p": _Option("p", _parse_float, "fault probability"),
    "p-list": _Option("p", _parse_float_list, "comma list of fault probabilities"),
    "mu": _Option("mu", _parse_float, "memory parameter"),
    "mu-list": _Option("mu", _parse_float_list, "comma list of memory parameters"),
    "temperature": _Option("temperature", _parse_temperature, "ancilla temperature, 0 for pure"),
    "temps": _Option("temps", _parse_temps, "comma list of positive temperatures"),
    "steps": _Option("steps", _parse_natural, "Grover iterations (collisions) to evolve"),
    "trials": _Option("trials", _parse_positive, "random pure states per point"),
    "seed": _Option(
        "seed", _parse_natural,
        "RNG seed of the trial states, the same at every point and for the first and "
        "steady collisions",
    ),
    "format": _Option("format", _parse_format, "output format: csv or json"),
    "output": _Option("output", str, "output path, - for stdout"),
    "jobs": _Option("jobs", _parse_positive, "worker processes for grid points"),
}

# The options every subcommand takes besides its own and --config, and
# the defaults they share. An option with no default is required; a
# default of None leaves it unset.
_COMMON = ("format", "output", "jobs")
_DEFAULTS = {"marked": "0", "noise": "x", "m": "1", "format": "csv", "output": "-", "jobs": "1"}


class _Subcommand(NamedTuple):
    help: str
    handler: Callable[[SimpleNamespace, dict], ResultTable]
    options: tuple[str, ...]  # keys of _OPTIONS
    defaults: dict[str, Optional[str]]  # by dest, over _DEFAULTS


def _help(option: _Option, defaults: dict) -> str:
    if option.dest not in defaults:
        return f"{option.help} (required)"
    default = defaults[option.dest]
    return option.help if default is None else f"{option.help} (default {default})"


_HELP_FLAGS = ("-h", "--help")


def _section(title: str, rows: list[tuple[str, str]]) -> str:
    width = max(len(name) for name, _ in rows) + 2
    return f"{title}:\n" + "".join(f"  {name:<{width}}{text}\n" for name, text in rows)


def _top_help() -> str:
    options = [("-h, --help", "show this help message and exit"),
               ("--version", "show the version and exit")]
    return (
        "usage: noisygrover [-h] [--version] command [--option value ...]\n\n"
        + __doc__.split("\n\n")[0] + "\n\n"
        + _section("commands", [(name, sub.help) for name, sub in _SUBCOMMANDS.items()])
        + "\n" + _section("options", options)
        + "\nSee noisygrover command --help for the options of one command.\n"
    )


def _command_help(command: str) -> str:
    sub = _SUBCOMMANDS[command]
    defaults = {**_DEFAULTS, **sub.defaults}
    options = [_OPTIONS[key] for key in sub.options + _COMMON]
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(f"--{o.dest} {o.dest.upper()}", _help(o, defaults)) for o in options]
    rows.append(("--config CONFIG", "key = value option file; explicit flags override it"))
    return (
        f"usage: noisygrover {command} [-h] [--option value ...]\n\n{sub.help}\n\n"
        + _section("options", rows)
    )


def _exit_with(text: str) -> NoReturn:
    """Print ``text`` (a help or the version) and exit 0."""
    sys.stdout.write(text)
    raise SystemExit(0)


class _Reader:
    """The command line's reader, in one pass over argv: ``argv[0]`` names
    the command, and the rest are ``--dest value`` or ``--dest=value`` pairs
    of that command's options and ``--config``. A flag is spelled in full,
    as its config key is, and a repeated one keeps its last value. Any
    other token, a flag with no value and an unknown command raise
    ``ConfigError``."""

    def parse_args(self, argv: Optional[Sequence[str]] = None) -> SimpleNamespace:
        """The command and the text of each of its options and ``config``,
        None where no flag gave it; ``-h``/``--help`` and a top-level
        ``--version`` print and exit 0."""
        args = sys.argv[1:] if argv is None else list(argv)
        if not args:
            raise ConfigError("no command given; see --help")
        command = args[0]
        if command in _HELP_FLAGS:
            _exit_with(_top_help())
        if command == "--version":
            _exit_with(f"noisygrover {__version__}\n")
        if command not in _SUBCOMMANDS:
            raise ConfigError(f"unknown command {command!r}; see --help")
        sub = _SUBCOMMANDS[command]
        texts = dict.fromkeys([_OPTIONS[key].dest for key in sub.options + _COMMON] + ["config"])
        i = 1
        while i < len(args):
            token = args[i]
            if token in _HELP_FLAGS:
                _exit_with(_command_help(command))
            flag, has_value, value = token.partition("=")
            if not flag.startswith("--") or flag[2:] not in texts:
                raise ConfigError(f"{command}: unrecognized argument {token!r}; see --help")
            if not has_value:
                # A flag is no value; "-2" and "-" are.
                if i + 1 == len(args) or args[i + 1].startswith("--") or args[i + 1] == "-h":
                    raise ConfigError(f"{command}: {flag} expects a value")
                i += 1
                value = args[i]
            texts[flag[2:]] = value
            i += 1
        return SimpleNamespace(command=command, **texts)


def build_parser() -> _Reader:
    """The command line's reader; ``build_parser().parse_args(argv)`` gives
    the namespace :func:`run` takes."""
    return _Reader()


def _resolve_options(ns: SimpleNamespace) -> tuple[str, dict[str, str], SimpleNamespace]:
    """Merge flags > config file > defaults, then parse each value once.

    Returns the command, the merged strings of the options that are set
    (the table's meta) and their parsed values, with ``given``: the dests
    a flag or the config file set."""
    command = ns.command
    sub = _SUBCOMMANDS[command]
    options = [_OPTIONS[key] for key in sub.options + _COMMON]
    texts = {option.dest: getattr(ns, option.dest) for option in options}
    if ns.config is not None:
        for key, value in load_config(ns.config).items():
            if key not in texts:
                raise ConfigError(f"config key {key!r} is not an option of {command!r}")
            if texts[key] is None:
                texts[key] = value
    given = {dest for dest, text in texts.items() if text is not None}
    defaults = {**_DEFAULTS, **sub.defaults}
    values = {}
    for option in options:
        if option.dest not in given:
            if option.dest not in defaults:
                raise ConfigError(f"{command}: --{option.dest} is required")
            texts[option.dest] = defaults[option.dest]
        text = texts[option.dest]
        try:
            values[option.dest] = None if text is None else option.parse(text)
        except ConfigError as exc:
            raise ConfigError(f"{option.dest}: {exc}") from None
    texts = {dest: text for dest, text in texts.items() if text is not None}
    return command, texts, SimpleNamespace(given=given, **values)


# ------------------------------------------------------- grid workers
# Top-level functions so a process pool can pickle them. Each takes
# one tuple of inputs the handler has already built, so every bad input
# fails before any pool starts, and returns plain data; row order is the
# point order, independent of --jobs. The success grids hand out the
# d'-groups of markov._table through its own top-level readers.

def _blp_group(group) -> np.ndarray:
    """Backflow witness values, (len(params),), of the (p, mu) points of one
    group that shares n, the noisy positions, the bath and steps."""
    inst, spec, params, bath, steps = group
    return n_blp(inst, spec, params, steps, bath=bath).value


def _cpdiv_group(group) -> np.ndarray:
    """CP-divisibility witness values, (len(params),), of one group."""
    inst, spec, params, _, steps = group
    return n_cp(inst, spec, params, steps).value


def _check_dim(command: str, a, spec) -> int:
    """d' of the weight basis a verification subcommand builds on, from the
    (m, q) class of ``spec``; above ``CHECK_MAX_DIM`` it is refused before
    any operator or pool is built."""
    m, q, d = _weight_class(a.n, a.marked, spec.positions)
    if d > CHECK_MAX_DIM:
        raise ConfigError(
            f"{command} runs on the weight basis of dimension d'; d'={d} at n={a.n}, m={m}, "
            f"q={q} exceeds {CHECK_MAX_DIM}"
        )
    return d


def _dilation_row(params, g, gp, chi, trials, seed) -> list:
    """The checks of the first collision (the step at mu = 0) and of the
    steady step at ``params``, for D x D G, G' and chi: [unitarity, Kraus
    and dilation defects] of each, then the steady step's factorization.
    ``kraus_step`` serves the Kraus defect alone; the dilation deviation
    compares U with one step of the step loop
    (:func:`~noisygrover.collision.verify_dilation`).

    Both steps run as one stack when two 8D x 8D unitaries fit
    ``_BATCH_ENTRIES`` (D <= 11, :func:`~noisygrover.collision._chunks`), so
    they share the seeded probes and every batched product. Past that each
    runs as a stack of one, and the first collision's unitary is dropped
    before the steady one is built, so one is alive at a time."""
    steps = [MarkovNoiseParams(params.p, 0.0), params]
    checks = []
    for run in _chunks([(8 * g.shape[0]) ** 2] * len(steps)):
        u = None  # the previous run's unitaries die here
        u = dilation_unitary(steps[run], g, gp)
        kraus_defect = np.max([
            np.max(np.abs(a - b), axis=(-2, -1))
            for a, b in zip(kraus_step(steps[run], g, gp).ops, kraus_from_dilation(u).ops)
        ], axis=0)
        checks += zip(
            unitarity_defect(u), kraus_defect, verify_dilation(u, steps[run], g, gp, trials, seed)
        )
    fact = extract_m(u[-1], chi, g)  # the steady step's factorization
    # m_control is 1: the layout puts every G' block in grid rows 4-7, so CX
    # applies chi when the first ancilla is |1>.
    return [params.p, params.mu] + [float(v) for step in checks for v in step] + [
        fact.residual, fact.unitary_defect, 1
    ]


def _dilation_point(point):
    inst, spec, params, trials, seed = point
    # G, G' and chi on the weight basis B, d' x d', as the step loop runs
    # them. B holds |s> and is invariant under G and chi, so the register's
    # collision unitary U meets the one built from these, U_d', as
    # U (I_8 (x) B) = (I_8 (x) B) U_d'.
    chi, g, gp, _ = _weight_system(inst.n, inst.marked, spec.u, spec.positions)
    return _dilation_row(params, g, gp, chi, trials, seed)


def _run_grid(worker, points, jobs: int) -> list:
    if jobs <= 1 or len(points) <= 1:
        return [worker(pt) for pt in points]
    # Under fork the pool starts all its workers at once: none beyond the
    # points. Imported here, so a --jobs 1 run never loads concurrent.futures
    # (logging and threading with it), nor the pool class and
    # multiprocessing, which concurrent.futures loads on first use.
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
        return list(pool.map(worker, points))


def _success_table(read, systems, params, steps, jobs: int, bath=None) -> tuple:
    """``markov._table`` over ``systems``: one step loop per distinct d',
    and ``--jobs`` hands out those groups."""
    return _table(read, systems, params, steps, bath, functools.partial(_run_grid, jobs=jobs))


# ----------------------------------------------------------- handlers
# A handler takes the parsed options ``a`` and the table's meta, the
# options' strings, which it may add to.

def _meta(command: str, texts: dict) -> dict:
    meta = {"command": command, "version": __version__}
    meta.update((key, texts[key]) for key in sorted(texts) if key not in _COMMON)
    return meta


def _label(**kv) -> str:
    # Column labels stay comma-free so the CSV header parses cleanly.
    return "P[" + ";".join(f"{k}={_fmt(v)}" for k, v in kv.items()) + "]"


def _bath(temperature: float):
    return thermal_weights(temperature) if temperature > 0.0 else None


def _params(ps, mus) -> list[MarkovNoiseParams]:
    return [MarkovNoiseParams(p, mu) for p, mu in itertools.product(ps, mus)]


def _handle_ideal(a, meta: dict) -> ResultTable:
    inst = GroverInstance(a.n, a.marked)
    series = ideal_success_series(inst, a.steps)
    meta["optimal_iterations"] = optimal_iterations(inst.N) if inst.N >= 4 else 0
    rows = [[t, float(p)] for t, p in enumerate(series)]
    return ResultTable(meta, ["t", "P"], rows)


def _handle_noisy(a, meta: dict) -> ResultTable:
    inst = GroverInstance(a.n, a.marked)
    params = _params(a.p, a.mu)
    if a.positions is None:
        specs = [noise_spec(a.noise, m, a.n) for m in a.m]
    else:
        m = len(a.positions)
        if "m" in a.given and a.m != (m,):
            raise ConfigError(f"--m {meta['m']} is not the number of --positions, {m}")
        meta["m"] = str(m)
        specs = [noise_spec(a.noise, m, a.n, a.positions)]
    systems = [(inst, spec) for spec in specs]
    (all_series,) = _success_table(
        _group_series, systems, params, a.steps, a.jobs, _bath(a.temperature)
    )
    columns = all_series.reshape(-1, a.steps + 1).T.tolist()
    labels = [_label(m=len(spec.positions), p=par.p, mu=par.mu) for spec in specs for par in params]
    rows = [[t] + column for t, column in enumerate(columns)]
    return ResultTable(meta, ["t"] + labels, rows)


def _handle_invariance(a, meta: dict) -> ResultTable:
    inst = GroverInstance(a.n, a.marked)
    params = [MarkovNoiseParams(a.p, a.mu)]
    # Every nonempty subset shares its series with one of these position
    # sets, and (0,) is one of them.
    classes = _class_representatives(a.n, a.marked)
    systems = [(inst, noise_spec(a.noise, len(c), a.n, c)) for c in classes]
    all_series = _success_table(_group_series, systems, params, a.steps, a.jobs)[0][:, 0]
    reference = all_series[classes.index((0,))]
    deviations = np.max(np.abs(all_series - reference[None, :]), axis=0)
    meta["subsets"] = 2**a.n - 1
    rows = [[t, p, dev] for t, (p, dev) in enumerate(zip(reference.tolist(), deviations.tolist()))]
    return ResultTable(meta, ["t", "P", "max_dev"], rows)


def _handle_firstmax(a, meta: dict) -> ResultTable:
    params = _params(a.p, a.mu)
    systems = [(GroverInstance(n, a.marked), noise_spec(a.noise, a.m, n)) for n in a.n]
    t_star, p_star = _success_table(_group_first_max, systems, params, a.steps, a.jobs)
    rows = [
        [n, par.p, par.mu, t, height]
        for n, t_row, p_row in zip(a.n, t_star.tolist(), p_star.tolist())
        for par, t, height in zip(params, t_row, p_row)
    ]
    return ResultTable(meta, ["n", "p", "mu", "t_star", "P_star"], rows)


def _witness_table(a, meta: dict, worker, columns, temps=(0.0,)) -> ResultTable:
    """One witness value per (temperature, p, mu) point. The (p, mu) points
    of one temperature share operators and bath, so each temperature is one
    group and one batched witness call. Rows are (temperature, p, mu, value)
    cut to their last len(columns) entries, so blp and cpdiv leave the
    temperature out."""
    inst = GroverInstance(a.n, a.marked)
    params = _params(a.p, a.mu)
    spec = noise_spec(a.noise, a.m, a.n)
    groups = [(inst, spec, params, _bath(temp), a.steps) for temp in temps]
    values = _run_grid(worker, groups, a.jobs)
    rows = [
        [temp, par.p, par.mu, float(v)]
        for temp, block in zip(temps, values)
        for par, v in zip(params, block)
    ]
    meta["witness_only"] = "true"
    return ResultTable(meta, columns, [row[-len(columns):] for row in rows])


def _handle_blp(a, meta: dict) -> ResultTable:
    return _witness_table(a, meta, _blp_group, ["p", "mu", "N_backflow"], (a.temperature,))


def _handle_cpdiv(a, meta: dict) -> ResultTable:
    return _witness_table(a, meta, _cpdiv_group, ["p", "mu", "N_cpdiv"])


def _handle_thermal(a, meta: dict) -> ResultTable:
    columns = ["temperature", "p", "mu", "N_backflow"]
    return _witness_table(a, meta, _blp_group, columns, a.temps)


_DILATION_COLUMNS = [
    "p", "mu",
    "unitarity_initial", "kraus_defect_initial", "dilation_dev_initial",
    "unitarity_steady", "kraus_defect_steady", "dilation_dev_steady",
    "m_residual", "m_unitary_defect", "m_control",
]

# The one gate of the dilation columns: the checks return measurements,
# and a value above its bound (or NaN) fails the table.
_DILATION_TOLS = {
    "unitarity_initial": 1e-10, "unitarity_steady": 1e-10,
    "kraus_defect_initial": 0.0, "kraus_defect_steady": 0.0,
    "dilation_dev_initial": 1e-12, "dilation_dev_steady": 1e-12,
    "m_residual": 1e-8, "m_unitary_defect": 1e-8,
}


def _handle_dilation_check(a, meta: dict) -> ResultTable:
    inst = GroverInstance(a.n, a.marked)
    spec = noise_spec(a.noise, a.m, a.n)
    meta["dim"] = _check_dim("dilation-check", a, spec)
    points = [(inst, spec, params, a.trials, a.seed) for params in _params(a.p, a.mu)]
    rows = _run_grid(_dilation_point, points, a.jobs)
    for row in rows:
        for name, tol in _DILATION_TOLS.items():
            value = row[_DILATION_COLUMNS.index(name)]
            if not value <= tol:
                raise InvariantViolation(
                    f"dilation check failed at p={row[0]} mu={row[1]}: "
                    f"{name}={value:.3e} exceeds {tol:.1e}"
                )
    meta["all_within_tolerance"] = "true"
    return ResultTable(meta, list(_DILATION_COLUMNS), rows)


def _handle_oracle_check(a, meta: dict) -> ResultTable:
    if a.steps > HISTORY_MAX_STEPS:
        raise ConfigError(f"oracle-check is exponential in steps; {a.steps} > {HISTORY_MAX_STEPS}")
    inst = GroverInstance(a.n, a.marked)
    spec = noise_spec(a.noise, a.m, a.n)
    meta["dim"] = _check_dim("oracle-check", a, spec)
    params = MarkovNoiseParams(a.p, a.mu)
    evolved = markov_evolve(inst, spec, params, a.steps)
    # The history sums on the weight basis, where the evolution's d' x d'
    # label blocks live: G, G' and |s> at d' x d', with |w> as index 0.
    _, g, gp, s = _weight_system(a.n, a.marked, spec.u, spec.positions)
    sums = history_oracle(g, gp, s, params, a.steps)
    # The steps are compared in stacks of at most _BATCH_ENTRIES entries (at
    # least one step), one trace_distance call each.
    dists = np.concatenate([
        trace_distance(evolved.blocks[run].sum(axis=1), sums[run])
        for run in _chunks([g.size] * (a.steps + 1))
    ])
    prob_devs = np.abs(evolved.probabilities - sums[:, 0, 0].real)
    rows = [[t, float(dist), float(dev)] for t, (dist, dev) in enumerate(zip(dists, prob_devs))]
    worst = float(np.max(dists))  # a NaN distance stays the maximum
    if not worst <= 1e-10:
        raise InvariantViolation(
            f"collision evolution deviates from the history sum by {worst:.3e}"
        )
    meta["max_trace_distance"] = worst
    return ResultTable(meta, ["t", "trace_distance", "prob_deviation"], rows)


_SUBCOMMANDS = {
    "ideal": _Subcommand(
        "noiseless success probability series", _handle_ideal,
        ("n", "marked", "steps"), {"steps": "25"},
    ),
    "noisy": _Subcommand(
        "success series under correlated noise, over a parameter grid", _handle_noisy,
        ("n", "marked", "noise", "m-list", "positions", "p-list", "mu-list", "temperature",
         "steps"),
        {"positions": None, "p": "0.5", "mu": "0", "temperature": "0", "steps": "25"},
    ),
    "invariance": _Subcommand(
        "position-independence deviation over every position subset", _handle_invariance,
        ("n", "marked", "noise", "p", "mu", "steps"), {"p": "0.5", "mu": "0", "steps": "25"},
    ),
    "firstmax": _Subcommand(
        "location and height of the first success maximum on a grid; each n's run "
        "stops once its points have passed their first maximum", _handle_firstmax,
        ("n-list", "marked", "noise", "m", "p-list", "mu-list", "steps"),
        {"p": "0.5", "mu": "0", "steps": "25"},
    ),
    "blp": _Subcommand(
        "trace-distance backflow witness over a (p, mu) grid", _handle_blp,
        ("n", "marked", "noise", "m", "p-list", "mu-list", "temperature", "steps"),
        {"p": "0.5", "mu": "0.9", "temperature": "0", "steps": "45"},
    ),
    "cpdiv": _Subcommand(
        "CP-divisibility witness over a (p, mu) grid", _handle_cpdiv,
        ("n", "marked", "noise", "m", "p-list", "mu-list", "steps"),
        {"p": "0.5", "mu": "0.9", "steps": "20"},
    ),
    "thermal": _Subcommand(
        "backflow witness over a (temperature, p, mu) grid", _handle_thermal,
        ("n", "marked", "noise", "m", "p-list", "mu-list", "temps", "steps"),
        {"p": "0.5", "mu": "0.9", "temps": "0.5,1,2", "steps": "45"},
    ),
    "dilation-check": _Subcommand(
        "verify the collision unitaries against the Kraus step on a grid, on the weight "
        f"basis of dimension d'; d' <= {CHECK_MAX_DIM}",
        _handle_dilation_check,
        ("n", "marked", "noise", "m", "p-list", "mu-list", "trials", "seed"),
        {"p": "0.1,0.5,0.9", "mu": "0,0.5,1", "trials": "20", "seed": "1234"},
    ),
    "oracle-check": _Subcommand(
        "compare the collision evolution to the explicit history sum, on the weight basis "
        f"of dimension d'; d' <= {CHECK_MAX_DIM} and steps <= {HISTORY_MAX_STEPS}",
        _handle_oracle_check,
        ("n", "marked", "noise", "m", "p", "mu", "steps"), {"p": "0.5", "mu": "0.5", "steps": "8"},
    ),
}


def _tabulate(command: str, texts: dict[str, str], args: SimpleNamespace) -> ResultTable:
    try:
        return _SUBCOMMANDS[command].handler(args, _meta(command, texts))
    except ValueError as exc:
        # Domain validation (bad ranges etc.) is a configuration problem.
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def run(ns: SimpleNamespace) -> ResultTable:
    """Programmatic entry point: a namespace from ``build_parser`` to a table."""
    return _tabulate(*_resolve_options(ns))


def _emit_stdout(table: ResultTable, fmt: str) -> None:
    """``emit`` to standard output. Under ``python -u`` sys.stdout drops
    what a pipe does not take of one write; a buffered stream on the same
    descriptor writes the rest or raises BrokenPipeError."""
    if not isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        emit(table, fmt, sys.stdout)
        sys.stdout.flush()
        return
    with open(
        sys.stdout.fileno(), "w", encoding=sys.stdout.encoding, newline="\n", closefd=False
    ) as fh:
        emit(table, fmt, fh)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, texts, args = _resolve_options(build_parser().parse_args(argv))
        table = _tabulate(command, texts, args)
        if args.output == "-":
            try:
                _emit_stdout(table, args.format)
            except BrokenPipeError:
                # The reader closed the pipe (``... | head -1``). What is
                # still buffered goes to devnull, so the flush at exit
                # cannot fail a second time.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise ConfigError("cannot write output: standard output was closed") from None
        else:  # opened only now, so a failed run leaves an existing file alone
            try:
                with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                    emit(table, args.format, fh)
            except OSError as exc:
                raise ConfigError(f"cannot write output {args.output}: {exc}") from None
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation it refused, in one line
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
