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
step loop per distinct orbit dimension d, which runs every system of that
d against every (p, mu) pair at once, so a group is one d (in
``firstmax``, each n leaves its loop once its points have passed their
first maximum). The witness grids run every (p, mu) pair that shares its
bath as one batched witness call whose trace norms are one stacked pass,
so ``blp`` and ``cpdiv`` are one group each and ``thermal`` one group per
temperature.

Exit codes: 0 success, 1 invalid configuration or inputs, 2 a numeric
invariant failed mid-run.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .collision import (
    dilation_unitary,
    extract_m,
    kraus_from_dilation,
    kraus_step,
    thermal_weights,
    verify_dilation,
)
from .grover import GroverInstance, ideal_success_series, grover_operator, optimal_iterations
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
from .noise import MarkovNoiseParams, SingleQubitUnitary, _orbit_representatives, build_chi
from .noise import noise_spec, noise_unitary, noisy_grover, single_qubit_unitary


class ConfigError(ValueError):
    """Bad command line, config file, or option value."""


# Largest n of the subcommands that check against dense N x N references:
# dilation-check builds 8N x 8N unitaries (64 MiB each at n = 8), and
# oracle-check holds steps + 1 dense N x N history sums (16 MiB each at
# n = 10). Every other subcommand runs at a size set by the noisy qubits.
DILATION_MAX_N = 8
ORACLE_MAX_N = 10


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


def emit(table: ResultTable, fmt: str, stream: TextIO) -> None:
    """Write ``table`` to ``stream`` as csv or json (LF line endings)."""
    if fmt == "csv":
        for key, value in table.meta.items():
            stream.write(f"# {key}={_fmt(value)}\n")
        stream.write(",".join(table.columns) + "\n")
        for row in table.rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")
    elif fmt == "json":
        payload = {"meta": table.meta, "columns": table.columns, "rows": table.rows}
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")


# ---------------------------------------------------------------- parsing

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through ConfigError
    # instead so main() can map it to exit code 1.
    def error(self, message: str):  # noqa: D102
        raise ConfigError(message)


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name}: {text!r} is not an integer") from None


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{name}: {text!r} is not a number") from None


def _parse_steps(text: str) -> int:
    steps = _parse_int(text, "steps")
    if steps < 0:
        raise ConfigError("steps must be non-negative")
    return steps


def _parse_temperature(text: str) -> float:
    value = _parse_float(text, "temperature")
    if not (math.isfinite(value) and value >= 0.0):  # 0 selects pure ancillas
        raise ConfigError(f"temperature must be finite and non-negative, got {text!r}")
    return value


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    return tuple(_parse_int(part.strip(), name) for part in str(text).split(","))


def _parse_float_list(text: str, name: str) -> tuple[float, ...]:
    return tuple(_parse_float(part.strip(), name) for part in str(text).split(","))


def _parse_noise(text: str) -> SingleQubitUnitary:
    """Preset name, or ``custom:A,B,THETA`` with complex literals A and B."""
    text = str(text).strip()
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
    """Read a ``key = value`` file; ``#`` starts a comment, blanks ignored."""
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
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                entries[key.replace("-", "_")] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return entries


# Option inventory. Each entry: (flag, dest, help). Values stay strings
# until the handlers convert them, so config-file and flag inputs take the
# same path.
_COMMON = (
    ("--config", "config", "key = value option file; explicit flags override it"),
    ("--format", "format", "output format: csv or json (default csv)"),
    ("--output", "output", "output path, - for stdout (default -)"),
    ("--jobs", "jobs", "worker processes for grid points (default 1)"),
)

_SUBCOMMANDS: dict[str, dict] = {
    "ideal": {
        "help": "noiseless success probability series",
        "options": (
            ("--n", "n", "qubit count"),
            ("--marked", "marked", "marked basis index (default 0)"),
            ("--steps", "steps", "iterations to evolve (default 25)"),
        ),
        "defaults": {"marked": "0", "steps": "25"},
    },
    "noisy": {
        "help": "success series under correlated noise, over a parameter grid",
        "options": (
            ("--n", "n", "qubit count"),
            ("--marked", "marked", "marked basis index (default 0)"),
            ("--noise", "noise", "preset (identity,x,y,z,hadamard) or custom:a,b,theta"),
            ("--m", "m", "comma list of noisy-qubit counts (default 1)"),
            ("--positions", "positions", "explicit comma list of noisy positions (overrides --m)"),
            ("--p", "p", "comma list of fault probabilities (default 0.5)"),
            ("--mu", "mu", "comma list of memory parameters (default 0)"),
            ("--temperature", "temperature", "ancilla temperature, 0 for pure (default 0)"),
            ("--steps", "steps", "collisions to evolve (default 25)"),
        ),
        "defaults": {
            "marked": "0", "noise": "x", "m": "1", "p": "0.5", "mu": "0",
            "temperature": "0", "steps": "25",
        },
    },
    "invariance": {
        "help": "position-independence deviation over every position subset",
        "options": (
            ("--n", "n", "qubit count"),
            ("--marked", "marked", "marked basis index (default 0)"),
            ("--noise", "noise", "noise unitary (default x)"),
            ("--p", "p", "fault probability (default 0.5)"),
            ("--mu", "mu", "memory parameter (default 0)"),
            ("--steps", "steps", "collisions to evolve (default 25)"),
        ),
        "defaults": {"marked": "0", "noise": "x", "p": "0.5", "mu": "0", "steps": "25"},
    },
    "firstmax": {
        "help": "location and height of the first success maximum on a grid",
        "options": (
            ("--n", "n", "comma list of qubit counts"),
            ("--marked", "marked", "marked basis index (default 0)"),
            ("--noise", "noise", "noise unitary (default x)"),
            ("--m", "m", "noisy-qubit count (default 1)"),
            ("--p", "p", "comma list of fault probabilities"),
            ("--mu", "mu", "comma list of memory parameters"),
            ("--steps", "steps",
             "search horizon; a group's run stops at its last first maximum (default 25)"),
        ),
        "defaults": {"marked": "0", "noise": "x", "m": "1", "p": "0.5", "mu": "0", "steps": "25"},
    },
    "blp": {
        "help": "trace-distance backflow witness over a (p, mu) grid",
        "options": (
            ("--n", "n", "qubit count"),
            ("--marked", "marked", "marked basis index (default 0)"),
            ("--noise", "noise", "noise unitary (default x)"),
            ("--m", "m", "noisy-qubit count (default 1)"),
            ("--p", "p", "comma list of fault probabilities"),
            ("--mu", "mu", "comma list of memory parameters"),
            ("--temperature", "temperature", "ancilla temperature, 0 for pure (default 0)"),
            ("--steps", "steps", "horizon (default 45)"),
        ),
        "defaults": {
            "marked": "0", "noise": "x", "m": "1", "p": "0.5", "mu": "0.9",
            "temperature": "0", "steps": "45",
        },
    },
    "cpdiv": {
        "help": "CP-divisibility witness over a (p, mu) grid",
        "options": (
            ("--n", "n", "qubit count"),
            ("--marked", "marked", "marked basis index (default 0)"),
            ("--noise", "noise", "noise unitary (default x)"),
            ("--m", "m", "noisy-qubit count (default 1)"),
            ("--p", "p", "comma list of fault probabilities"),
            ("--mu", "mu", "comma list of memory parameters"),
            ("--steps", "steps", "horizon (default 20)"),
        ),
        "defaults": {"marked": "0", "noise": "x", "m": "1", "p": "0.5", "mu": "0.9", "steps": "20"},
    },
    "thermal": {
        "help": "backflow witness over a (temperature, p, mu) grid",
        "options": (
            ("--n", "n", "qubit count"),
            ("--marked", "marked", "marked basis index (default 0)"),
            ("--noise", "noise", "noise unitary (default x)"),
            ("--m", "m", "noisy-qubit count (default 1)"),
            ("--p", "p", "comma list of fault probabilities"),
            ("--mu", "mu", "comma list of memory parameters"),
            ("--temps", "temps", "comma list of temperatures (default 0.5,1,2)"),
            ("--steps", "steps", "horizon (default 45)"),
        ),
        "defaults": {
            "marked": "0", "noise": "x", "m": "1", "p": "0.5", "mu": "0.9",
            "temps": "0.5,1,2", "steps": "45",
        },
    },
    "dilation-check": {
        "help": "verify the collision unitaries against the Kraus step on a grid",
        "options": (
            ("--n", "n", f"qubit count, at most {DILATION_MAX_N}"),
            ("--marked", "marked", "marked basis index (default 0)"),
            ("--noise", "noise", "noise unitary (default x)"),
            ("--m", "m", "noisy-qubit count (default 1)"),
            ("--p", "p", "comma list of fault probabilities"),
            ("--mu", "mu", "comma list of memory parameters"),
            ("--trials", "trials", "random pure states per point, at least 1 (default 20)"),
            ("--seed", "seed", "RNG seed of the trial states, the same at every point "
             "and for both step kinds, non-negative (default 1234)"),
        ),
        "defaults": {
            "marked": "0", "noise": "x", "m": "1", "p": "0.1,0.5,0.9",
            "mu": "0,0.5,1", "trials": "20", "seed": "1234",
        },
    },
    "oracle-check": {
        "help": "compare the collision evolution to the explicit history sum",
        "options": (
            ("--n", "n", f"qubit count, at most {ORACLE_MAX_N}"),
            ("--marked", "marked", "marked basis index (default 0)"),
            ("--noise", "noise", "noise unitary (default x)"),
            ("--m", "m", "noisy-qubit count (default 1)"),
            ("--p", "p", "fault probability (default 0.5)"),
            ("--mu", "mu", "memory parameter (default 0.5)"),
            ("--steps", "steps", f"horizon, at most {HISTORY_MAX_STEPS} (default 8)"),
        ),
        "defaults": {"marked": "0", "noise": "x", "m": "1", "p": "0.5", "mu": "0.5", "steps": "8"},
    },
}


def build_parser() -> _Parser:
    parser = _Parser(prog="noisygrover", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command")
    for name, info in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=info["help"])
        for flag, dest, help_text in info["options"] + _COMMON:
            sub.add_argument(flag, dest=dest, default=None, help=help_text)
    return parser


def _resolve_options(ns) -> tuple[str, dict[str, str]]:
    """Check the command; merge flags > config file > defaults into strings."""
    if isinstance(ns, dict):
        ns = argparse.Namespace(**ns)
    if not getattr(ns, "command", None):
        raise ConfigError("no command given; see --help")
    if ns.command not in _SUBCOMMANDS:
        raise ConfigError(f"unknown command {ns.command!r}")
    info = _SUBCOMMANDS[ns.command]
    known = {dest for _, dest, _ in info["options"] + _COMMON}
    resolved: dict[str, Optional[str]] = {
        dest: getattr(ns, dest, None) for dest in known
    }
    if resolved.get("config"):
        for key, value in load_config(resolved["config"]).items():
            if key not in known:
                raise ConfigError(
                    f"config key {key!r} is not an option of {ns.command!r}"
                )
            if resolved[key] is None:
                resolved[key] = value
    for key, value in {**info["defaults"], "format": "csv", "output": "-", "jobs": "1"}.items():
        if resolved[key] is None:
            resolved[key] = value
    if resolved["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {resolved['format']!r}")
    if _parse_int(resolved["jobs"], "jobs") < 1:
        raise ConfigError(f"jobs must be at least 1, got {resolved['jobs']!r}")
    return ns.command, {k: v for k, v in resolved.items() if v is not None}


def _require(opts: dict, key: str, command: str) -> str:
    if key not in opts:
        raise ConfigError(f"{command}: --{key} is required")
    return opts[key]


# ------------------------------------------------------- grid workers
# Top-level functions so ProcessPoolExecutor can pickle them. Each takes
# one tuple of inputs the handler has already built, so every bad input
# fails before any pool starts, and returns plain data; row order is the
# point order, independent of --jobs. The success grids hand out the
# d-groups of markov._table through its own top-level readers.

def _blp_group(group) -> np.ndarray:
    """Backflow witness values, (len(params),), of the (p, mu) points of one
    group that shares n, the noisy positions, the bath and steps."""
    inst, spec, params, bath, steps = group
    return n_blp(inst, spec, params, steps, bath=bath).value


def _cpdiv_group(group) -> np.ndarray:
    """CP-divisibility witness values, (len(params),), of one group."""
    inst, spec, params, _, steps = group
    return n_cp(inst, spec, params, steps).value


def _dilation_point(point):
    inst, spec, params, trials, seed = point
    g = grover_operator(inst)
    chi = build_chi(inst.n, spec)
    gp = noisy_grover(g, chi)
    row = [params.p, params.mu]
    for kind in ("initial", "steady"):
        dil = dilation_unitary(kind, params, g, gp)
        ks = kraus_step(kind, params, g, gp)
        extracted = kraus_from_dilation(dil)
        kraus_defect = max(
            float(np.max(np.abs(a - b))) for a, b in zip(ks.ops, extracted.ops)
        )
        rep = verify_dilation(dil, ks, trials=trials, seed=seed)
        row += [dil.unitarity_defect(), kraus_defect, rep.max_deviation]
    fact = extract_m(dil, chi, g)  # steady-kind factorization
    row += [fact.residual, fact.unitary_defect, fact.control_value]
    return row


def _run_grid(worker, points, jobs: int) -> list:
    if jobs <= 1 or len(points) <= 1:
        return [worker(pt) for pt in points]
    # Under fork the pool starts all its workers at once: none beyond the points.
    with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
        return list(pool.map(worker, points))


def _success_table(read, systems, params, steps, opts: dict, bath=None) -> tuple:
    """``markov._table`` over ``systems``: one step loop per distinct d,
    and ``--jobs`` hands out those groups."""
    mapper = functools.partial(_run_grid, jobs=int(opts["jobs"]))
    return _table(read, systems, params, steps, bath, mapper)


# ----------------------------------------------------------- handlers

def _meta(command: str, opts: dict, skip=("config", "format", "output", "jobs")) -> dict:
    meta = {"command": command, "version": __version__}
    for key in sorted(opts):
        if key not in skip:
            meta[key] = opts[key]
    return meta


def _label(**kv) -> str:
    # Column labels stay comma-free so the CSV header parses cleanly.
    return "P[" + ";".join(f"{k}={_fmt(v)}" for k, v in kv.items()) + "]"


def _bath(temperature: float):
    return thermal_weights(temperature) if temperature > 0.0 else None


def _params(ps, mus) -> list[MarkovNoiseParams]:
    return [MarkovNoiseParams(p, mu) for p, mu in itertools.product(ps, mus)]


def _handle_ideal(opts: dict) -> ResultTable:
    n = _parse_int(_require(opts, "n", "ideal"), "n")
    marked = _parse_int(opts["marked"], "marked")
    steps = _parse_steps(opts["steps"])
    inst = GroverInstance(n, marked)
    series = ideal_success_series(inst, steps)
    meta = _meta("ideal", opts)
    meta["optimal_iterations"] = optimal_iterations(inst.N) if inst.N >= 4 else 0
    rows = [[t, float(p)] for t, p in enumerate(series)]
    return ResultTable(meta, ["t", "P"], rows)


def _noisy_grid(opts: dict, command: str):
    n = _parse_int(_require(opts, "n", command), "n")
    inst = GroverInstance(n, _parse_int(opts["marked"], "marked"))
    u = _parse_noise(opts["noise"])
    params = _params(_parse_float_list(opts["p"], "p"), _parse_float_list(opts["mu"], "mu"))
    return inst, u, params, _parse_steps(opts["steps"])


def _handle_noisy(opts: dict) -> ResultTable:
    inst, u, params, steps = _noisy_grid(opts, "noisy")
    bath = _bath(_parse_temperature(opts["temperature"]))
    if "positions" in opts:
        positions = _parse_int_list(opts["positions"], "positions")
        specs = [noise_spec(u, len(positions), inst.n, positions)]
    else:
        specs = [noise_spec(u, m, inst.n) for m in _parse_int_list(opts["m"], "m")]
    (all_series,) = _success_table(
        _group_series, [(inst, spec) for spec in specs], params, steps, opts, bath
    )
    all_series = all_series.reshape(-1, steps + 1)
    labels = [_label(m=len(spec.positions), p=par.p, mu=par.mu) for spec in specs for par in params]
    rows = [[t] + [float(x) for x in all_series[:, t]] for t in range(steps + 1)]
    return ResultTable(_meta("noisy", opts), ["t"] + labels, rows)


def _handle_invariance(opts: dict) -> ResultTable:
    n = _parse_int(_require(opts, "n", "invariance"), "n")
    marked = _parse_int(opts["marked"], "marked")
    inst = GroverInstance(n, marked)
    u = _parse_noise(opts["noise"])
    params = [MarkovNoiseParams(_parse_float(opts["p"], "p"), _parse_float(opts["mu"], "mu"))]
    steps = _parse_steps(opts["steps"])
    # Every nonempty subset shares its series with one of these position
    # sets, and (0,) is one of them.
    classes = _orbit_representatives(n, marked)
    systems = [(inst, noise_spec(u, len(c), n, c)) for c in classes]
    all_series = _success_table(_group_series, systems, params, steps, opts)[0][:, 0]
    reference = all_series[classes.index((0,))]
    deviations = np.max(np.abs(all_series - reference[None, :]), axis=0)
    meta = _meta("invariance", opts)
    meta["subsets"] = 2**n - 1
    rows = [
        [t, float(reference[t]), float(deviations[t])] for t in range(steps + 1)
    ]
    return ResultTable(meta, ["t", "P", "max_dev"], rows)


def _handle_firstmax(opts: dict) -> ResultTable:
    ns_list = _parse_int_list(_require(opts, "n", "firstmax"), "n")
    marked = _parse_int(opts["marked"], "marked")
    u = _parse_noise(opts["noise"])
    m = _parse_int(opts["m"], "m")
    params = _params(_parse_float_list(opts["p"], "p"), _parse_float_list(opts["mu"], "mu"))
    steps = _parse_steps(opts["steps"])
    systems = [(GroverInstance(n, marked), noise_spec(u, m, n)) for n in ns_list]
    t_star, p_star = _success_table(_group_first_max, systems, params, steps, opts)
    rows = [
        [n, par.p, par.mu, int(t), float(height)]
        for n, t_row, p_row in zip(ns_list, t_star, p_star)
        for par, t, height in zip(params, t_row, p_row)
    ]
    return ResultTable(_meta("firstmax", opts), ["n", "p", "mu", "t_star", "P_star"], rows)


def _witness_table(opts: dict, command: str, worker, columns, temps=(0.0,)) -> ResultTable:
    """One witness value per (temperature, p, mu) point. The (p, mu) points
    of one temperature share operators and bath, so each temperature is one
    group and one batched witness call. Rows are (temperature, p, mu, value)
    cut to their last len(columns) entries, so blp and cpdiv leave the
    temperature out."""
    inst, u, params, steps = _noisy_grid(opts, command)
    spec = noise_spec(u, _parse_int(opts["m"], "m"), inst.n)
    groups = [(inst, spec, params, _bath(temp), steps) for temp in temps]
    values = _run_grid(worker, groups, int(opts["jobs"]))
    rows = [
        [temp, par.p, par.mu, float(v)]
        for temp, block in zip(temps, values)
        for par, v in zip(params, block)
    ]
    meta = _meta(command, opts)
    meta["witness_only"] = "true"
    return ResultTable(meta, columns, [row[-len(columns):] for row in rows])


def _handle_blp(opts: dict) -> ResultTable:
    temps = (_parse_temperature(opts["temperature"]),)
    return _witness_table(opts, "blp", _blp_group, ["p", "mu", "N_backflow"], temps)


def _handle_cpdiv(opts: dict) -> ResultTable:
    return _witness_table(opts, "cpdiv", _cpdiv_group, ["p", "mu", "N_cpdiv"])


def _handle_thermal(opts: dict) -> ResultTable:
    temps = _parse_float_list(opts["temps"], "temps")
    if not all(math.isfinite(t) and t > 0.0 for t in temps):
        raise ConfigError(f"temps must be finite and positive, got {opts['temps']!r}")
    columns = ["temperature", "p", "mu", "N_backflow"]
    return _witness_table(opts, "thermal", _blp_group, columns, temps)


_DILATION_COLUMNS = [
    "p", "mu",
    "unitarity_initial", "kraus_defect_initial", "dilation_dev_initial",
    "unitarity_steady", "kraus_defect_steady", "dilation_dev_steady",
    "m_residual", "m_unitary_defect", "m_control",
]

_DILATION_TOLS = {
    "unitarity_initial": 1e-10, "unitarity_steady": 1e-10,
    "kraus_defect_initial": 0.0, "kraus_defect_steady": 0.0,
    "dilation_dev_initial": 1e-12, "dilation_dev_steady": 1e-12,
    "m_residual": 1e-8, "m_unitary_defect": 1e-8,
}


def _handle_dilation_check(opts: dict) -> ResultTable:
    n = _parse_int(_require(opts, "n", "dilation-check"), "n")
    if n > DILATION_MAX_N:
        raise ConfigError(
            f"dilation-check builds dense 8N x 8N unitaries; n={n} > {DILATION_MAX_N}"
        )
    marked = _parse_int(opts["marked"], "marked")
    u = _parse_noise(opts["noise"])
    m = _parse_int(opts["m"], "m")
    ps = _parse_float_list(opts["p"], "p")
    mus = _parse_float_list(opts["mu"], "mu")
    trials = _parse_int(opts["trials"], "trials")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    seed = _parse_int(opts["seed"], "seed")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    inst = GroverInstance(n, marked)
    spec = noise_spec(u, m, n)
    points = [(inst, spec, params, trials, seed) for params in _params(ps, mus)]
    rows = _run_grid(_dilation_point, points, int(opts["jobs"]))
    for row in rows:
        for name, tol in _DILATION_TOLS.items():
            value = row[_DILATION_COLUMNS.index(name)]
            if not value <= tol:
                raise InvariantViolation(
                    f"dilation check failed at p={row[0]} mu={row[1]}: "
                    f"{name}={value:.3e} exceeds {tol:.1e}"
                )
    meta = _meta("dilation-check", opts)
    meta["all_within_tolerance"] = "true"
    return ResultTable(meta, list(_DILATION_COLUMNS), rows)


def _handle_oracle_check(opts: dict) -> ResultTable:
    n = _parse_int(_require(opts, "n", "oracle-check"), "n")
    if n > ORACLE_MAX_N:
        raise ConfigError(f"oracle-check sums dense N x N histories; n={n} > {ORACLE_MAX_N}")
    marked = _parse_int(opts["marked"], "marked")
    u = _parse_noise(opts["noise"])
    m = _parse_int(opts["m"], "m")
    p = _parse_float(opts["p"], "p")
    mu = _parse_float(opts["mu"], "mu")
    steps = _parse_steps(opts["steps"])
    if steps > HISTORY_MAX_STEPS:
        raise ConfigError(f"oracle-check is exponential in steps; {steps} > {HISTORY_MAX_STEPS}")
    inst = GroverInstance(n, marked)
    spec = noise_spec(u, m, n)
    params = MarkovNoiseParams(p, mu)
    evolved = markov_evolve(inst, spec, params, steps, keep_states=True)
    reference = history_oracle(inst, spec, params, steps)
    rows = []
    for t in range(steps + 1):
        dist = trace_distance(evolved.states[t], reference.states[t])
        prob_dev = abs(evolved.probabilities[t] - reference.probabilities[t])
        rows.append([t, float(dist), float(prob_dev)])
    worst = float(np.max([row[1] for row in rows]))  # a NaN distance stays the maximum
    if not worst <= 1e-10:
        raise InvariantViolation(
            f"collision evolution deviates from the history sum by {worst:.3e}"
        )
    meta = _meta("oracle-check", opts)
    meta["max_trace_distance"] = worst
    return ResultTable(meta, ["t", "trace_distance", "prob_deviation"], rows)


_HANDLERS = {
    "ideal": _handle_ideal,
    "noisy": _handle_noisy,
    "invariance": _handle_invariance,
    "firstmax": _handle_firstmax,
    "blp": _handle_blp,
    "cpdiv": _handle_cpdiv,
    "thermal": _handle_thermal,
    "dilation-check": _handle_dilation_check,
    "oracle-check": _handle_oracle_check,
}


def _tabulate(command: str, opts: dict[str, str]) -> ResultTable:
    try:
        return _HANDLERS[command](opts)
    except ValueError as exc:
        # Domain validation (bad ranges etc.) is a configuration problem.
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def run(options) -> ResultTable:
    """Programmatic entry point: a parsed namespace (or dict) to a table."""
    return _tabulate(*_resolve_options(options))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = build_parser()
        command, opts = _resolve_options(parser.parse_args(argv))
        table = _tabulate(command, opts)
        if opts["output"] == "-":
            emit(table, opts["format"], sys.stdout)
        else:  # opened only now, so a failed run leaves an existing file alone
            try:
                with open(opts["output"], "w", encoding="utf-8", newline="\n") as fh:
                    emit(table, opts["format"], fh)
            except OSError as exc:
                raise ConfigError(f"cannot write output {opts['output']}: {exc}") from None
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
