"""Output checks for the benchmark tables. None of this code is timed.

Every emitted table is checked against what its subcommand guarantees;
for the default seed it is also compared with ``reference.json`` to 1e-12
absolute (not byte equality, so a representation with different rounding
still passes). Each workload adds analytic checks that compute tables of
their own: the noiseless closed form at p = 0 and the perfect-memory curve
for ``series``, the start and sign of the backflow series for ``witness``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Optional

import workloads

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Absolute tolerance of every numeric comparison below; probabilities may
# leave [0, 1] by this much through rounding.
TOL = 1e-12
ORACLE_TOL = 1e-10

_WITNESS_COLUMN = {"blp": "N_backflow", "thermal": "N_backflow", "cpdiv": "N_cpdiv"}


def option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _column(table: dict, name: str) -> list:
    i = table["columns"].index(name)
    return [row[i] for row in table["rows"]]


def _probabilities(values, what: str) -> list[str]:
    bad = [v for v in values if not -TOL <= v <= 1.0 + TOL]
    return [f"{what}: {len(bad)} values outside [0, 1], e.g. {bad[0]!r}"] if bad else []


def check_table(argv: list[str], table: dict) -> list[str]:
    """Problems with one emitted table, judged by its subcommand alone."""
    command = argv[0]
    if table["meta"].get("command") != command:
        return [f"{command}: table reports command {table['meta'].get('command')!r}"]
    problems = []
    if command == "noisy":
        steps = int(option(argv, "--steps"))
        if len(table["rows"]) != steps + 1:
            problems.append(f"noisy: {len(table['rows'])} rows for {steps} steps")
        problems += _probabilities([v for row in table["rows"] for v in row[1:]], "noisy")
    elif command == "invariance":
        problems += _probabilities(_column(table, "P"), "invariance")
        if any(v < 0.0 for v in _column(table, "max_dev")):
            problems.append("invariance: negative max_dev")
    elif command == "firstmax":
        problems += _probabilities(_column(table, "P_star"), "firstmax")
    elif command in _WITNESS_COLUMN:
        values = _column(table, _WITNESS_COLUMN[command])
        if not values or any(not v >= 0.0 for v in values):
            problems.append(f"{command}: witness values {values} not all >= 0")
    elif command == "dilation-check":
        if table["meta"].get("all_within_tolerance") != "true":
            problems.append("dilation-check: not all_within_tolerance")
    elif command == "oracle-check":
        worst = table["meta"].get("max_trace_distance")
        if not isinstance(worst, float) or not worst <= ORACLE_TOL:
            problems.append(f"oracle-check: max_trace_distance {worst!r} > {ORACLE_TOL}")
    return problems


def _close(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isfinite(a) and abs(a - b) <= TOL
    return a == b


def compare_reference(expected: dict, table: dict) -> list[str]:
    """Columns equal and every cell within TOL of the stored table."""
    if expected["columns"] != table["columns"]:
        return [f"columns {table['columns']} differ from reference"]
    if len(expected["rows"]) != len(table["rows"]):
        return [f"{len(table['rows'])} rows, reference has {len(expected['rows'])}"]
    for i, (want, got) in enumerate(zip(expected["rows"], table["rows"])):
        if len(want) != len(got) or not all(_close(g, w) for g, w in zip(got, want)):
            return [f"row {i} {got} differs from reference {want}"]
    return []


def load_reference(workload: str, seed: int) -> Optional[dict]:
    """The stored tables of ``workload``, if ``seed`` is the default seed."""
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def check_pass(tables: list[list[str]], texts: list, errors: list,
               reference: Optional[dict]) -> list[list[str]]:
    """Problems of each table of one pass; a table that raised has its error."""
    out = []
    for i, (argv, text, error) in enumerate(zip(tables, texts, errors)):
        if text is None:
            out.append([error or f"{argv[0]}: no output"])
            continue
        table = json.loads(text)
        problems = check_table(argv, table)
        if reference is not None:
            if reference["tables"][i] != argv:
                problems.append(f"{argv[0]}: reference.json was made from other inputs")
            else:
                problems += compare_reference(reference["outputs"][i], table)
        out.append(problems)
    return out


# ------------------------------------------------------------ analytic


def _curve_check(cli, parser, argv, curve) -> list[str]:
    rows = cli.run(parser.parse_args(argv)).rows
    worst = max(abs(row[1] - curve(row[0])) for row in rows)
    return [] if worst <= TOL else [f"{' '.join(argv)}: off analytic curve by {worst:.3e}"]


def _ideal_check(cli, parser, tables) -> list[str]:
    """The first noisy table at p = 0 is the noiseless closed form."""
    from noisygrover import ideal_success_closed_form

    argv = list(tables[0])
    argv[argv.index("--p") + 1] = "0"
    N = 2 ** int(option(argv, "--n"))
    return _curve_check(cli, parser, argv, lambda t: ideal_success_closed_form(N, t))


def _memory_check(cli, parser, tables) -> list[str]:
    """Pure ancillas, p = mu = 1, x on all n qubits: the perfect-memory curve."""
    from noisygrover import perfect_memory_analytic

    noisy = tables[0]
    n = option(noisy, "--n")
    argv = [
        "noisy", "--n", n, "--steps", option(noisy, "--steps"),
        "--marked", option(noisy, "--marked"),
        "--noise", "x", "--m", n, "--p", "1", "--mu", "1",
    ]
    N = 2 ** int(n)
    return _curve_check(cli, parser, argv, lambda t: perfect_memory_analytic(N, t))


def _blp_series_check(cli, parser, tables) -> list[str]:
    """The first blp point's series starts at 1 and stays >= 0."""
    from noisygrover import GroverInstance, MarkovNoiseParams, n_blp, noise_spec

    blp = tables[0]
    n = int(option(blp, "--n"))
    result = n_blp(
        GroverInstance(n, int(option(blp, "--marked"))),
        noise_spec(cli._parse_noise(option(blp, "--noise")), int(option(blp, "--m")), n),
        MarkovNoiseParams(float(option(blp, "--p")), float(option(blp, "--mu"))),
        int(option(blp, "--steps")),
    )
    problems = []
    if abs(result.series[0] - 1.0) > TOL:
        problems.append(f"blp series starts at {result.series[0]!r}, not 1")
    if min(result.series) < 0.0 or not result.value >= 0.0:
        problems.append("blp series or value negative")
    return problems


_ANALYTIC = {"series": (_ideal_check, _memory_check), "witness": (_blp_series_check,)}


def analytic_checks(workload: str, tables: list[list[str]]) -> list[list[str]]:
    """Problems of each extra table the workload's analytic checks compute."""
    from noisygrover import cli

    parser = cli.build_parser()
    out = []
    for check in _ANALYTIC.get(workload, ()):
        try:
            out.append(check(cli, parser, tables))
        except Exception as exc:  # the check's table counts as failed
            out.append([f"{check.__name__} raised {type(exc).__name__}: {exc}"])
    return out
