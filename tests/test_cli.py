import concurrent.futures
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noisygrover import cli, collision, measures
from noisygrover.cli import ConfigError, ResultTable, emit, load_config, main
from noisygrover.grover import GroverInstance, ideal_success_closed_form
from noisygrover.markov import HISTORY_MAX_STEPS, MarkovNoiseParams, markov_evolve
from noisygrover.noise import noise_spec, noise_unitary

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def test_ideal_csv(capsys):
    code, out, err = run_cli(capsys, "ideal", "--n", "3", "--steps", "4")
    assert code == 0 and err == ""
    meta, columns, rows = parse_csv(out)
    assert meta["command"] == "ideal"
    assert meta["optimal_iterations"] == "2"
    assert columns == ["t", "P"]
    assert len(rows) == 5
    assert float(rows[0][1]) == pytest.approx(0.125)
    assert float(rows[2][1]) == pytest.approx(0.9453125, abs=1e-12)


def test_noisy_grid_columns_and_position_independence(capsys):
    code, out, _ = run_cli(
        capsys, "noisy", "--n", "3", "--noise", "x",
        "--m", "1,3", "--p", "0.5", "--mu", "0,0.9", "--steps", "6",
    )
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert len(columns) == 5  # t + 2 m-values x 2 mu-values
    assert columns[1] == "P[m=1;p=0.5;mu=0]"
    for row in rows:
        # bit-flip noise: success series independent of how many qubits are hit
        assert float(row[1]) == pytest.approx(float(row[3]), abs=1e-9)
        assert float(row[2]) == pytest.approx(float(row[4]), abs=1e-9)


def test_noisy_explicit_positions(capsys):
    code, out, _ = run_cli(
        capsys, "noisy", "--n", "3", "--positions", "1,2", "--steps", "3",
    )
    assert code == 0
    meta, columns, _ = parse_csv(out)
    assert columns[1].startswith("P[m=2")
    assert meta["m"] == "2"  # the m that ran, not the default


@pytest.mark.parametrize("source", ["flag", "config"])
def test_noisy_m_must_match_the_positions(tmp_path, capsys, source):
    argv = ["noisy", "--n", "3", "--positions", "0", "--steps", "2"]
    if source == "flag":
        argv += ["--m", "3"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 3\n")
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "positions" in err
    code, out, _ = run_cli(capsys, *argv[:-2], "--m", "1")
    assert code == 0 and parse_csv(out)[0]["m"] == "1"


def test_json_output_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "blp", "--n", "2", "--p", "0.5", "--mu", "0,0.9",
        "--steps", "15", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["p", "mu", "N_backflow"]
    assert payload["meta"]["witness_only"] == "true"
    assert len(payload["rows"]) == 2
    assert payload["rows"][0][1] == 0.0


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nnoise = y\np = 0.25\nmu = 0.5  # comment\nsteps = 2\n")
    code, out, _ = run_cli(capsys, "noisy", "--config", str(cfg), "--mu", "0.9")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["mu"] == "0.9"      # flag wins
    assert meta["p"] == "0.25"      # file fills the rest
    assert len(rows) == 3


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nbogus = 1\n")
    code, _, err = run_cli(capsys, "noisy", "--config", str(cfg))
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize("key", ["jobs", "format"])
def test_config_rejects_an_empty_value(tmp_path, capsys, key):
    # An empty value is a bad value, not a request for the default.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 3\n{key} =\n")
    code, out, err = run_cli(capsys, "ideal", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text,what",
    [("n = 3\nn = 4\n", "repeats"), ("n = 3\nconfig = nowhere.cfg\n", "cannot name another")],
    ids=["repeated-key", "nested-config"],
)
def test_config_file_fails_loudly(tmp_path, capsys, text, what):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "ideal", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error:") and what in err


@pytest.mark.parametrize("flag", [("--config", ""), ("--config=",)], ids=["spaced", "joined"])
def test_an_empty_config_path_exits_one(capsys, flag):
    # An empty path names no file that can be read; it is not "no config".
    code, out, err = run_cli(capsys, "ideal", "--n", "2", "--steps", "1", *flag)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "cannot read config" in err


def test_load_config_syntax_error(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("n @@ 3\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg))


@pytest.mark.parametrize(
    "argv",
    [
        ("noisy", "--n", "3", "--p", "1.5"),
        ("noisy", "--n", "3", "--steps", "abc"),
        ("noisy",),                              # n missing
        ("thermal", "--n", "2", "--temps", "0"),  # temperature must be positive
        ("oracle-check", "--n", "2", "--steps", str(HISTORY_MAX_STEPS + 1)),
        ("nonsense",),
        pytest.param(("noisy", "--n", "2", "--temperature", "nan"), id="temperature-nan"),
        pytest.param(("noisy", "--n", "2", "--temperature", "inf"), id="temperature-inf"),
        pytest.param(("blp", "--n", "2", "--temperature", "-0.5"), id="temperature-negative"),
        pytest.param(("thermal", "--n", "2", "--temps", "1,inf"), id="temps-inf"),
        pytest.param(("noisy", "--n", "2", "--jobs", "0"), id="jobs-zero"),
        pytest.param(("noisy", "--n", "2", "--jobs", "-2"), id="jobs-negative"),
        pytest.param(("ideal", "--n", "3", "--jobs", ""), id="jobs-empty"),
        pytest.param(("dilation-check", "--n", "2", "--trials", "0"), id="trials-zero"),
        pytest.param(("dilation-check", "--n", "2", "--trials", "-3"), id="trials-negative"),
        pytest.param(
            ("noisy", "--n", "3", "--m", "1,2", "--positions", "0,1"), id="m-list-with-positions"
        ),
        pytest.param(("noisy", "--n", "3", "--temp", "0.5", "--st", "1"), id="abbreviated-flags"),
        # d' = 258 (m = 128 of n = 129) at 12 steps, above CHECK_MAX_DIM
        pytest.param(
            ("oracle-check", "--n", "129", "--m", "128", "--steps", "12"),
            id="oracle-work-n10-steps12",
        ),
    ],
)
def test_invalid_inputs_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


class _Accepted(Exception):
    pass


@pytest.mark.parametrize(
    "n,steps,accepted",
    [
        (7, 12, True), (10, 3, True), (8, 12, True), (9, 12, True), (10, 11, True),
        (10, 12, True), (30, 12, True), (128, 12, True), (129, 12, False),
    ],
)
def test_oracle_check_caps_its_work(capsys, monkeypatch, n, steps, accepted):
    # Every qubit noisy, with the marked index's top n - n // 2 bits set:
    # 0 < q = n - n // 2 < n, so d' = 2n, from 14 at n = 7 to 20 at
    # n = 10, 60 at n = 30, 256 (the cap) at n = 128 and 258 at n = 129.
    # The evolution is stubbed, so nothing runs: reaching it means the
    # inputs were accepted.
    def stub(*args, **kwargs):
        raise _Accepted

    monkeypatch.setattr(cli, "markov_evolve", stub)
    marked = 2**n - 2 ** (n // 2)
    argv = ("oracle-check", "--n", str(n), "--m", str(n), "--marked", str(marked),
            "--steps", str(steps))
    if accepted:
        with pytest.raises(_Accepted):
            main(list(argv))
        return
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"d'=258 at n={n}, m={n}, q=65 exceeds 256" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", ["a", "b", "theta"])
def test_non_finite_custom_noise_exits_one(capsys, slot, bad):
    values = {"a": "1", "b": "0", "theta": "0"}
    values[slot] = bad
    noise = "custom:" + ",".join(values[k] for k in ("a", "b", "theta"))
    code, out, err = run_cli(
        capsys, "noisy", "--n", "3", "--steps", "3", "--noise", noise,
        "--m", "1", "--p", "0.3", "--mu", "0.5",
    )
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_bad_temperature_rejected_before_any_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool created before validation")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, _, err = run_cli(
        capsys, "noisy", "--n", "2", "--p", "0.2,0.8", "--temperature", "nan", "--jobs", "2",
    )
    assert code == 1
    assert err.startswith("error:") and "temperature" in err


def test_bad_trials_rejected_before_any_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool created before validation")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, _, err = run_cli(
        capsys, "dilation-check", "--n", "2", "--trials", "0", "--jobs", "2", "--p", "0.1,0.2",
    )
    assert code == 1
    assert err.startswith("error:") and "trials" in err


def test_main_reads_config_once(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nsteps = 3\n")
    calls = []

    def counting_load_config(path):
        calls.append(path)
        return load_config(path)

    monkeypatch.setattr(cli, "load_config", counting_load_config)
    code, _, _ = run_cli(capsys, "ideal", "--config", str(cfg))
    assert code == 0
    assert calls == [str(cfg)]


def _readme_cli_examples():
    # Every "noisygrover ..." line of the fenced block under "## Command line".
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("noisygrover ")
    ]


def test_readme_cli_examples_run(tmp_path, capsys):
    # Each example gives the same bytes from its flags, through --output
    # and from a config file that holds its flags.
    examples = _readme_cli_examples()
    assert examples
    for i, argv in enumerate(examples):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out, (argv, err)
        target = tmp_path / f"example{i}.out"
        assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode(), argv
        cfg = tmp_path / f"example{i}.cfg"
        pairs = zip(argv[1::2], argv[2::2])
        cfg.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in pairs))
        assert run_cli(capsys, argv[0], "--config", str(cfg)) == (0, out, ""), argv


def test_readme_quick_start_runs(capsys):
    # The Python block under "## Quick start" runs as written against the
    # public API and prints its two lines.
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    peak, at = lines[0].split()
    assert 0.0 < float(peak) <= 1.0 and 0 <= int(at) <= 25
    assert float(lines[1]) > 0.0  # a memory effect: some backflow


def _option_lines(help_text):
    # The option lines of a subcommand's --help, each joined onto one line.
    lines = []
    for line in help_text.split("options:", 1)[1].splitlines():
        if line.startswith("  -"):
            lines.append(line)
        elif line.strip():
            lines[-1] += line
    return {line.split()[0]: " ".join(line.split()) for line in lines}


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
def test_subcommand_help_shows_the_defaults_in_use(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    lines = _option_lines(capsys.readouterr().out)
    # The strings a run with only the required --n fills in.
    _, texts, _ = cli._resolve_options(cli.build_parser().parse_args([command, "--n", "3"]))
    assert lines["--n"].endswith("(required)")
    assert set(lines) == {"-h,", "--config"} | {f"--{dest}" for dest in texts} | (
        {"--positions"} if command == "noisy" else set()
    )
    for dest, text in texts.items():
        if dest != "n":
            assert lines[f"--{dest}"].endswith(f"(default {text})"), lines[f"--{dest}"]


def _joined(values):
    return st.lists(values, min_size=1, max_size=2).map(lambda v: ",".join(map(str, v)))


_PROB = st.floats(0.0, 1.0).map(repr)

# A text each option accepts that, with --n 2, keeps a table to milliseconds.
# --output and --jobs stay at their defaults' values: the tables go to
# standard output, and no pool starts.
_VALID = {
    "n": st.just("2"),
    "n-list": st.sampled_from(["2", "2,3"]),
    "marked": st.integers(0, 3).map(str),
    "noise": st.sampled_from(["identity", "x", "y", "z", "hadamard", "custom:0.6,0.8j,1.1"]),
    "m": st.integers(1, 2).map(str),
    "m-list": _joined(st.integers(1, 2)),
    "positions": st.sampled_from(["0", "1", "0,1"]),
    "p": _PROB,
    "p-list": _joined(_PROB),
    "mu": _PROB,
    "mu-list": _joined(_PROB),
    "temperature": st.one_of(st.just("0"), st.floats(0.1, 5.0).map(repr)),
    "temps": _joined(st.floats(0.1, 5.0).map(repr)),
    "steps": st.integers(0, 6).map(str),
    "trials": st.integers(1, 3).map(str),
    "seed": st.integers(0, 2**32).map(str),
    "format": st.sampled_from(["csv", "json"]),
    "output": st.just("-"),
    "jobs": st.just("1"),
}

# Texts each parser refuses; str, the parser of --output, takes any text.
_INVALID = {
    cli._parse_int: ["x", "1.5", ""],
    cli._parse_int_list: ["1,x", "", "1,,2"],
    cli._parse_float: ["x", ""],
    cli._parse_float_list: ["0.5,y", ""],
    cli._parse_natural: ["-1", "x"],
    cli._parse_positive: ["0", "-2", "x"],
    cli._parse_temperature: ["nan", "inf", "-0.5"],
    cli._parse_temps: ["0", "1,inf", "x"],
    cli._parse_format: ["yaml", ""],
    cli._parse_noise: ["bogus", "custom:1,2", "custom:nan,0,0"],
    str: [],
}


def _no_pool(*args, **kwargs):
    raise AssertionError("process pool created before validation")


def _exits_one_naming(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "", argv
    assert err.startswith("error:") and err.count("\n") == 1 and name in err, (argv, err)


def _flag(key):
    return "--" + cli._OPTIONS[key].dest


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
@settings(
    max_examples=8, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_the_command_line_reads_its_option_table(tmp_path, capsys, command, data):
    # Every argv comes from the option table: the options of ``command``,
    # a text each accepts (_VALID) and the texts its parser refuses
    # (_INVALID).
    assert set(_VALID) == set(cli._OPTIONS)
    assert {option.parse for option in cli._OPTIONS.values()} == set(_INVALID)
    keys = cli._SUBCOMMANDS[command].options + cli._COMMON
    flags = [_flag(key) for key in keys] + ["--config", "--help"]
    cfg = tmp_path / "run.cfg"

    # A valid argv gives the same bytes as --flag value pairs in any order,
    # as --flag=value pairs after a refused value of the first flag, which
    # its last value overrides, and from a config file.
    chosen = data.draw(st.lists(st.sampled_from(keys), unique=True), label="options")
    if "positions" in chosen and "m-list" in chosen:
        chosen.remove("m-list")  # the positions fix m
    texts = {key: data.draw(_VALID[key], label=key) for key in chosen}
    n_key = "n-list" if "n-list" in keys else "n"
    texts.setdefault(n_key, data.draw(_VALID[n_key], label=n_key))
    pairs = data.draw(st.permutations(sorted(texts.items())), label="order")
    spaced = [token for key, text in pairs for token in (_flag(key), text)]
    code, out, err = run_cli(capsys, command, *spaced)
    assert code == 0 and out and err == "", (spaced, err)
    overridden = (_INVALID[cli._OPTIONS[pairs[0][0]].parse] or ["any"])[0]
    joined = [f"{_flag(pairs[0][0])}={overridden}"] + [f"{_flag(k)}={text}" for k, text in pairs]
    assert run_cli(capsys, command, *joined) == (0, out, ""), joined
    cfg.write_text("".join(f"{cli._OPTIONS[key].dest} = {text}\n" for key, text in pairs))
    assert run_cli(capsys, command, "--config", str(cfg)) == (0, out, ""), pairs

    # For each option, a text its parser refuses exits 1 with one error
    # line that names the option, before any pool starts, in each of the
    # three spellings.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        for key in keys:
            if not _INVALID[cli._OPTIONS[key].parse]:
                continue
            bad = data.draw(st.sampled_from(_INVALID[cli._OPTIONS[key].parse]), label=key)
            flag, name = _flag(key), f"error: {cli._OPTIONS[key].dest}: "
            rest = [token for k, text in pairs if k != key for token in (_flag(k), text)]
            rest += [] if key == "jobs" else ["--jobs", "2"]
            _exits_one_naming(capsys, [command, flag, bad, *rest], name)
            _exits_one_naming(capsys, [command, *rest, f"{flag}={bad}"], name)
            cfg.write_text(f"{flag[2:]} = {bad}\n")
            _exits_one_naming(capsys, [command, *rest, "--config", str(cfg)], name)

    # So does every proper prefix of a flag that is not itself a flag, an
    # unknown flag, a flag with no value and a flag followed by another.
    valid = [command, _flag(n_key), texts[n_key]]
    for flag in flags:
        for prefix in (flag[:k] for k in range(1, len(flag))):
            if prefix not in flags:
                _exits_one_naming(capsys, valid + [prefix, "1"], repr(prefix))
                _exits_one_naming(capsys, valid + [prefix + "=1"], repr(prefix + "=1"))
        if flag != "--help":
            _exits_one_naming(capsys, valid + [flag], flag)
            _exits_one_naming(capsys, [command, flag, *valid[1:]], flag)
    unknown = data.draw(
        st.from_regex(r"--[a-z][a-z-]{0,10}", fullmatch=True).filter(lambda f: f not in flags),
        label="unknown",
    )
    _exits_one_naming(capsys, valid + [unknown, "1"], repr(unknown))


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "2", "--steps", "6")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert float(meta["max_trace_distance"]) < 1e-10
    assert meta["dim"] == "4"  # m = 1 < n = 2: d' = 2(m + 1)
    assert len(rows) == 7
    assert max(float(row[2]) for row in rows) < 1e-12  # prob_deviation, read at |w>


def test_oracle_check_reads_exactly_zero_at_the_start(capsys):
    # Both sides start from |s><s|: the two label blocks are |s><s| / 2
    # exactly, so their sum is the history sum at t = 0, bit for bit.
    code, out, _ = run_cli(
        capsys, "oracle-check", "--n", "10", "--m", "3", "--noise", "hadamard", "--steps", "12",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"][0] == [0, 0.0, 0.0]


def test_oracle_check_runs_on_the_orbit_space_at_forty_qubits():
    # n = 40 with marked index 0, m = 30 < n: d' = 2(m + 1) = 62. The
    # noise u is not symmetric, so a history sum built from u^T would miss
    # the evolution. The table holds the kept label blocks (2 (steps + 1) d^2
    # complex entries), the history sums ((steps + 1) d^2) and, while the
    # walk runs, one batch of at most 2^14 entries per depth; it peaks at
    # 5.9 (steps + 1) d^2.
    ns = cli.build_parser().parse_args(
        ["oracle-check", "--n", "40", "--m", "30", "--marked", "0",
         "--noise", "custom:0.6,0.8j,1.1", "--steps", "12"]
    )
    tracemalloc.start()
    try:
        table = cli.run(ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.meta["dim"] == 62 and len(table.rows) == 13
    assert table.meta["max_trace_distance"] < 1e-10
    assert peak < 8 * 16 * 13 * 62**2, peak / (16 * 13 * 62**2)


def test_dilation_check_passes_and_is_reproducible(capsys):
    argv = (
        "dilation-check", "--n", "2", "--p", "0.1,0.5,1",
        "--mu", "0,0.5,1", "--trials", "5",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    meta, columns, rows = parse_csv(out1)
    assert meta["all_within_tolerance"] == "true"
    assert meta["dim"] == "4"  # m = 1 < n = 2: d' = 2(m + 1)
    assert "m_residual" in columns
    assert len(rows) == 9


def _nan_on_member(real, which):
    # trace_distance on stacks that gives NaN for the ``which``-th value
    # (0-based) over all its calls, each call's values taken in the order
    # of its array's entries
    seen = [0]

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        first, seen[0] = seen[0], seen[0] + out.size
        if first <= which < seen[0]:
            out.flat[which - first] = np.nan
        return out

    return patched


@pytest.mark.parametrize("which", [0, 3, 4])
def test_dilation_check_fails_on_a_nan_deviation(capsys, monkeypatch, which):
    # At n = 2 (d = 4) both steps run as one stack. A NaN at (which, which)
    # in the first collision's |00> columns (the first 2d = 8) of the
    # unitary that verify_dilation reads makes its deviation NaN; the
    # unitarity and Kraus defects read the unitary without it, and pass.
    real = cli.verify_dilation

    def nan_in_u(u, *args):
        u = u.copy()
        u[0, which, which] = np.nan
        return real(u, *args)

    monkeypatch.setattr(cli, "verify_dilation", nan_in_u)
    code, out, err = run_cli(
        capsys, "dilation-check", "--n", "2", "--p", "0.3", "--mu", "0.5", "--trials", "5",
    )
    assert code == 2 and out == ""
    assert "dilation_dev_initial=nan" in err


def _nudged(kset, member):
    # the stacked set with the first nonzero entry of one member's first
    # operator moved up by one ulp
    op = kset.ops[0].copy()
    entries = op[member].reshape(-1)
    i = np.flatnonzero(entries)[0]
    entries[i] = complex(np.nextafter(entries[i].real, np.inf), entries[i].imag)
    return collision.KrausSet((op,) + kset.ops[1:])


def _with(values, member, v):
    # a copy of the stacked measurements with one member's set to v
    values = values.copy()
    values[member] = v
    return values


# The measurement that feeds each gated dilation-check column and how to set
# the column to a value v from the real result. A one-point run at d = 4
# makes one call of each, which the stub changes: the checks of both steps
# take one stack, member 0 the first collision and member 1 the steady
# step, and extract_m takes the steady step alone.
_GATE_STUBS = {
    "unitarity_initial": ("unitarity_defect", lambda out, v: _with(out, 0, v)),
    "unitarity_steady": ("unitarity_defect", lambda out, v: _with(out, 1, v)),
    "kraus_defect_initial": ("kraus_from_dilation", lambda out, v: _nudged(out, 0) if v else out),
    "kraus_defect_steady": ("kraus_from_dilation", lambda out, v: _nudged(out, 1) if v else out),
    "dilation_dev_initial": ("verify_dilation", lambda out, v: _with(out, 0, v)),
    "dilation_dev_steady": ("verify_dilation", lambda out, v: _with(out, 1, v)),
    "m_residual": ("extract_m", lambda out, v: replace(out, residual=v)),
    "m_unitary_defect": ("extract_m", lambda out, v: replace(out, unitary_defect=v)),
}


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
@pytest.mark.parametrize("column", sorted(cli._DILATION_TOLS))
def test_dilation_check_gates_each_column_at_its_tolerance(capsys, monkeypatch, column, above):
    # One value just above a column's tolerance fails the table; a value
    # exactly at it passes. A Kraus operator one ulp off its dilation column
    # is the smallest defect above that gate's 0.0.
    assert set(_GATE_STUBS) == set(cli._DILATION_TOLS)
    tol = cli._DILATION_TOLS[column]
    value = np.nextafter(tol, np.inf) if above else tol
    name, put = _GATE_STUBS[column]
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: put(real(*args), value))
    code, out, err = run_cli(
        capsys, "dilation-check", "--n", "2", "--p", "0.3", "--mu", "0.5", "--trials", "2",
    )
    if above:
        assert code == 2 and out == ""
        assert f"{column}=" in err
    else:
        assert code == 0, err
        _, columns, rows = parse_csv(out)
        assert float(rows[0][columns.index(column)]) == tol


@pytest.mark.parametrize("op", range(4))
def test_dilation_check_fails_on_a_nan_kraus_operator(capsys, monkeypatch, op):
    # A NaN entry in any one of the steady step's four extracted operators
    # reaches its Kraus column: the largest defect over the operators keeps
    # a NaN wherever it sits.
    real = cli.kraus_from_dilation

    def nan_in_steady(u):
        ops = [k.copy() for k in real(u).ops]
        ops[op][1].flat[np.flatnonzero(ops[op][1])[0]] = np.nan
        return collision.KrausSet(tuple(ops))

    monkeypatch.setattr(cli, "kraus_from_dilation", nan_in_steady)
    code, out, err = run_cli(
        capsys, "dilation-check", "--n", "2", "--p", "0.3", "--mu", "0.5", "--trials", "2",
    )
    assert code == 2 and out == ""
    assert "kraus_defect_steady=nan" in err


def test_dilation_check_without_memory_repeats_the_first_step(capsys):
    # The first collision is the steady step at mu = 0, built from the same
    # numbers and checked on the same seeded states, so at mu = 0 each
    # *_initial cell has the bytes of its *_steady cell.
    code, out, err = run_cli(
        capsys, "dilation-check", "--n", "3", "--m", "2", "--noise", "hadamard",
        "--p", "0,0.3,1", "--mu", "0", "--trials", "5",
    )
    assert code == 0, err
    _, columns, rows = parse_csv(out)
    pairs = [(columns.index(name), columns.index(name.replace("_initial", "_steady")))
             for name in columns if name.endswith("_initial")]
    assert len(pairs) == 3 and len(rows) == 3
    for row in rows:
        assert all(row[first] == row[steady] for first, steady in pairs), row


def test_dilation_check_drops_the_initial_unitary_before_the_steady_one(capsys, monkeypatch):
    # Up to d' = 11 two 8d' x 8d' unitaries fit the entry budget, and at
    # d' = 8 one stacked call builds both steps. From d' = 12 on one unitary is
    # alive at a time: when the steady step's U is built, nothing holds the
    # first collision's.
    real, built, shapes, alive_at_build = cli.dilation_unitary, [], [], []

    def tracked(*args):
        alive_at_build.append([ref() is not None for ref in built])
        dil = real(*args)
        built.append(weakref.ref(dil))
        shapes.append(dil.shape)
        return dil

    monkeypatch.setattr(cli, "dilation_unitary", tracked)
    for argv, dim, stacks, alive in (
        (("--n", "8", "--m", "3"), "8", [(2, 64, 64)], [[]]),
        (("--n", "6", "--m", "5"), "12", [(1, 96, 96)] * 2, [[], [False]]),
    ):
        for record in (built, shapes, alive_at_build):
            record.clear()
        code, out, err = run_cli(
            capsys, "dilation-check", *argv, "--noise", "hadamard", "--p", "0.3", "--mu", "0.5",
            "--trials", "2",
        )
        assert code == 0, err
        assert parse_csv(out)[0]["dim"] == dim
        assert shapes == stacks
        assert alive_at_build == alive


def test_dilation_row_stacks_both_steps_up_to_eleven(monkeypatch):
    # Two 8D x 8D unitaries fit the entry budget up to D = 11, one from
    # D = 12 on.
    real, stacks = cli.dilation_unitary, []

    def spy(params, g, gp):
        stacks.append(len(params))
        return real(params, g, gp)

    monkeypatch.setattr(cli, "dilation_unitary", spy)
    for n_dim in range(1, 15):
        stacks.clear()
        eye = np.eye(n_dim)
        cli._dilation_row(MarkovNoiseParams(0.3, 0.5), eye, eye.astype(complex), eye, 1, 7)
        assert stacks == ([2] if n_dim <= 11 else [1, 1]), n_dim


@pytest.mark.parametrize("which", [0, 3, 6])
def test_oracle_check_fails_on_a_nan_distance(capsys, monkeypatch, which):
    # At n = 2 (d = 4) the 7 steps are compared as one stack.
    monkeypatch.setattr(cli, "trace_distance", _nan_on_member(cli.trace_distance, which))
    code, out, err = run_cli(capsys, "oracle-check", "--n", "2", "--steps", "6")
    assert code == 2 and out == ""
    assert "by nan" in err


def test_invariance_command(capsys):
    code, out, _ = run_cli(
        capsys, "invariance", "--n", "3", "--p", "0.4", "--mu", "0.5", "--steps", "8",
    )
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert meta["subsets"] == "7"
    assert columns == ["t", "P", "max_dev"]
    assert max(float(row[2]) for row in rows) < 1e-9


@pytest.mark.parametrize("marked", [0, 6, 15])
def test_invariance_equals_the_subset_enumeration(capsys, marked):
    # Reference: one evolve per nonempty position subset, as the table is
    # defined; the command runs one per (m, q) class.
    n, noise = 4, "custom:0.6,0.8j,0.7"
    code, out, _ = run_cli(
        capsys, "invariance", "--n", str(n), "--marked", str(marked), "--noise", noise,
        "--p", "0.4", "--mu", "0.7", "--steps", "10",
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    inst = GroverInstance(n, marked)
    u = cli._parse_noise(noise)
    params = MarkovNoiseParams(0.4, 0.7)
    series = np.array([
        markov_evolve(inst, noise_spec(u, m, n, positions), params, 10).probabilities
        for m in range(1, n + 1)
        for positions in itertools.combinations(range(n), m)
    ])
    assert meta["subsets"] == str(len(series))
    deviation = np.max(np.abs(series - series[0]), axis=0)
    assert np.max(np.abs([float(r[1]) for r in rows] - series[0])) < 1e-12
    assert np.max(np.abs([float(r[2]) for r in rows] - deviation)) < 1e-12
    assert deviation.max() > 1e-3  # this noise is not position independent


def test_noisy_columns_equal_single_evolves(capsys):
    code, out, _ = run_cli(
        capsys, "noisy", "--n", "4", "--marked", "9", "--noise", "hadamard", "--m", "1,3",
        "--p", "0.2,1", "--mu", "0,0.6", "--temperature", "0.8", "--steps", "7",
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    inst = GroverInstance(4, 9)
    bath = collision.thermal_weights(0.8)
    for i, (m, p, mu) in enumerate(itertools.product((1, 3), (0.2, 1.0), (0.0, 0.6)), start=1):
        assert columns[i] == f"P[m={m};p={p:.15g};mu={mu:.15g}]"
        spec = noise_spec(noise_unitary("hadamard"), m, 4)
        want = markov_evolve(inst, spec, MarkovNoiseParams(p, mu), 7, bath=bath).probabilities
        assert np.max(np.abs([float(r[i]) for r in rows] - want)) < 1e-13


def test_firstmax_row_shape(capsys):
    code, out, _ = run_cli(
        capsys, "firstmax", "--n", "3", "--p", "0.2,0.8", "--mu", "0,1",
        "--steps", "20",
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["n", "p", "mu", "t_star", "P_star"]
    assert len(rows) == 4
    # memory helps: at fixed p the first peak is at least as high with mu=1
    assert float(rows[1][4]) >= float(rows[0][4])


def test_jobs_do_not_change_output(capsys):
    argv = (
        "noisy", "--n", "2", "--m", "1,2", "--p", "0.2,0.8",
        "--mu", "0,0.5", "--steps", "5",
    )
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("noisy", "--n", "4", "--marked", "5", "--noise", "hadamard", "--m", "1,2,4",
         "--p", "0,0.3,1", "--mu", "0.5,1", "--steps", "6"),
        ("noisy", "--n", "4", "--marked", "5", "--noise", "hadamard", "--positions", "1,3",
         "--p", "0.2,0.8", "--mu", "0,0.5", "--temperature", "0.7", "--steps", "6"),
        ("firstmax", "--n", "2,3,4", "--marked", "1", "--noise", "y", "--m", "2",
         "--p", "0.3,1", "--mu", "0,0.9", "--steps", "8"),
        ("invariance", "--n", "4", "--marked", "6", "--noise", "hadamard", "--p", "0.4",
         "--mu", "0.7", "--steps", "6"),
        ("blp", "--n", "3", "--marked", "3", "--noise", "hadamard", "--m", "2",
         "--p", "0.3,0.6", "--mu", "0.2,0.9", "--steps", "8"),
        ("thermal", "--n", "3", "--noise", "hadamard", "--m", "2", "--p", "0.3,0.6",
         "--mu", "0.9", "--temps", "0.5,2", "--steps", "8"),
        ("cpdiv", "--n", "3", "--marked", "2", "--noise", "hadamard", "--m", "2",
         "--p", "0.3,0.6", "--mu", "0.2,0.9", "--steps", "8"),
    ],
    ids=["noisy-m", "noisy-positions", "firstmax", "invariance", "blp", "thermal", "cpdiv"],
)
def test_grid_tables_do_not_depend_on_jobs(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code3, out3, _ = run_cli(capsys, *argv, "--jobs", "3")
    assert code1 == code3 == 0
    assert out1 == out3


_WITNESS_GRIDS = {
    "blp": ("blp", "--n", "4", "--marked", "5", "--noise", "hadamard", "--m", "2",
            "--p", "0.3,0.6", "--mu", "0.2,0.9", "--steps", "8"),
    "thermal": ("thermal", "--n", "4", "--noise", "hadamard", "--m", "2", "--p", "0.3,0.6",
                "--mu", "0.9", "--temps", "0.5,1,2", "--steps", "8"),
    "cpdiv": ("cpdiv", "--n", "4", "--marked", "2", "--noise", "hadamard", "--m", "2",
              "--p", "0.3,0.6", "--mu", "0.2,0.9", "--steps", "8"),
}


@pytest.mark.parametrize("command,groups,rows", [("blp", 1, 4), ("thermal", 3, 6), ("cpdiv", 1, 4)])
def test_witness_group_is_one_run_and_one_eigvalsh(capsys, monkeypatch, command, groups, rows):
    calls = {"evolve": 0, "eigvalsh": 0}

    def counted(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(measures, "collision_evolve", counted("evolve", measures.collision_evolve))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    code, out, err = run_cli(capsys, *_WITNESS_GRIDS[command])
    assert code == 0, err
    assert len(parse_csv(out)[2]) == rows
    assert calls == {"evolve": groups, "eigvalsh": groups}


@pytest.mark.parametrize("command", sorted(_WITNESS_GRIDS))
def test_a_nan_mid_run_in_a_witness_exits_two(capsys, monkeypatch, command):
    # One kept label block of the last member turns NaN halfway through the run.
    def poisoned(*args, **kwargs):
        trace = collision.collision_evolve(*args, **kwargs)
        blocks = trace.blocks.copy()
        blocks[-1, 4, 0, 0, 0] = np.nan
        return replace(trace, blocks=blocks)

    monkeypatch.setattr(measures, "collision_evolve", poisoned)
    code, out, err = run_cli(capsys, *_WITNESS_GRIDS[command])
    assert code == 2 and out == ""
    assert err.startswith("invariant violation:") and "not finite" in err and "step 4" in err


@pytest.mark.parametrize(
    "argv,what",
    [
        # Classes over the d' <= 256 cap: m = 128 < n (d' = 258), and
        # q = 65 of m = 129 = n (d' = 258), the smallest refused d' of each.
        (("dilation-check", "--n", "129", "--m", "128"), "dilation-check"),
        (("dilation-check", "--n", "129", "--m", "129", "--marked", str(2**129 - 2**64),
          "--p", "0.1,0.2"), "dilation-check"),
        (("oracle-check", "--n", "129", "--m", "128"), "oracle-check"),
        (("oracle-check", "--n", "129", "--m", "129", "--marked", str(2**129 - 2**64)),
         "oracle-check"),
        (("ideal", "--n", "1024"), "finite"),
        (("noisy", "--n", "1100", "--p", "0.1,0.2"), "finite"),
        (("firstmax", "--n", "3,1024", "--p", "0.1,0.2"), "finite"),
        (("invariance", "--n", "1024"), "finite"),
        (("cpdiv", "--n", "1024", "--p", "0.1,0.2"), "finite"),
        (("blp", "--n", "1024", "--p", "0.1,0.2"), "finite"),
        # Any other bad grid input fails the same way.
        (("blp", "--n", "3", "--m", "4", "--p", "0.1,0.2"), "m=4"),
        (("cpdiv", "--n", "3", "--m", "4", "--p", "0.1,0.2"), "m=4"),
        (("thermal", "--n", "3", "--m", "4"), "m=4"),
        (("dilation-check", "--n", "3", "--m", "4"), "m=4"),
        (("noisy", "--n", "3", "--m", "1,4"), "m=4"),
        (("firstmax", "--n", "2,3", "--m", "3"), "m=3"),
        (("blp", "--n", "3", "--p", "0.1,1.5"), "p=1.5"),
        (("cpdiv", "--n", "3", "--mu", "0.1,2"), "mu=2.0"),
        (("dilation-check", "--n", "3", "--p", "0.1,7"), "p=7.0"),
        (("invariance", "--n", "3", "--p", "1.5"), "p=1.5"),
        (("cpdiv", "--n", "3", "--p", "0.1,0.2", "--steps", "-1"), "steps"),
        (("firstmax", "--n", "2,3", "--steps", "-1"), "steps"),
        (("thermal", "--n", "3", "--steps", "-1"), "steps"),
        (("invariance", "--n", "3", "--steps", "-1"), "steps"),
        (("dilation-check", "--n", "2", "--seed", "-1", "--p", "0.1,0.2"), "seed"),
    ],
)
def test_unrunnable_n_exits_one_before_any_pool(capsys, monkeypatch, argv, what):
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool created before validation")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, err = run_cli(capsys, *argv, "--jobs", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and what in err


def test_dense_subcommands_run_at_their_caps(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--n", "5", "--steps", "3")
    assert code == 0, err
    code, _, err = run_cli(
        capsys, "dilation-check", "--n", "4", "--trials", "1", "--p", "0.3", "--mu", "0.5"
    )
    assert code == 0, err


def test_dilation_check_admits_the_cap_exactly(capsys, monkeypatch):
    # m = 127 < n = 128 gives d' = 2(m + 1) = 256, the cap: admitted, and
    # recorded as dim. The point itself (about 3 s) is stubbed; CI runs it.
    def zeros(point):
        params = point[2]
        return [params.p, params.mu] + [0.0] * (len(cli._DILATION_COLUMNS) - 2)

    monkeypatch.setattr(cli, "_dilation_point", zeros)
    code, out, err = run_cli(
        capsys, "dilation-check", "--n", "128", "--m", "127", "--p", "0.3", "--mu", "0.5",
    )
    assert code == 0, err
    meta, _, rows = parse_csv(out)
    assert meta["dim"] == "256" and meta["all_within_tolerance"] == "true" and len(rows) == 1


def test_dilation_check_runs_on_the_orbit_space_at_forty_qubits(capsys):
    # n = 40 with marked index 0, m = 30 < n: d' = 2(m + 1) = 62.
    code, out, err = run_cli(
        capsys, "dilation-check", "--n", "40", "--m", "30", "--marked", "0",
        "--noise", "hadamard", "--p", "0.3", "--mu", "0.5", "--trials", "5",
    )
    assert code == 0, err
    meta, columns, rows = parse_csv(out)
    assert meta["dim"] == "62" and meta["all_within_tolerance"] == "true"
    assert len(rows) == 1 and len(columns) == len(cli._DILATION_COLUMNS)


def test_grids_run_at_forty_qubits(capsys):
    N = 2**40
    code, out, err = run_cli(capsys, "ideal", "--n", "40", "--steps", "3")
    assert code == 0, err
    _, _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == pytest.approx(
        [ideal_success_closed_form(N, t) for t in range(4)], abs=1e-15
    )
    code, out, err = run_cli(
        capsys, "noisy", "--n", "40", "--m", "1,5,40", "--p", "0,0.5", "--mu", "0.5", "--steps", "4"
    )
    assert code == 0, err
    _, columns, rows = parse_csv(out)
    assert len(columns) == 7 and len(rows) == 5
    for col in (1, 3, 5):  # p = 0 is the noiseless walk for every m
        assert [float(r[col]) for r in rows] == pytest.approx(
            [ideal_success_closed_form(N, t) for t in range(5)], abs=1e-15
        )
    code, out, err = run_cli(
        capsys, "firstmax", "--n", "30,40", "--p", "1", "--mu", "1", "--m", "1", "--steps", "5"
    )
    assert code == 0, err
    code, out, err = run_cli(capsys, "cpdiv", "--n", "40", "--p", "0.5", "--mu", "0.9")
    assert code == 0, err
    code, out, err = run_cli(capsys, "invariance", "--n", "40", "--steps", "5")
    assert code == 0, err
    meta, _, rows = parse_csv(out)
    assert meta["subsets"] == str(N - 1)
    assert max(float(r[2]) for r in rows) < 1e-12  # sigma_x noise is position independent


def test_output_file(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, out, _ = run_cli(
        capsys, "ideal", "--n", "2", "--steps", "3", "--output", str(target)
    )
    assert code == 0 and out == ""
    data = target.read_bytes()
    assert b"\r" not in data
    assert data.decode().splitlines()[-1].startswith("3,")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_one(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, "ideal", "--n", "3", "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write output {target}:")


def test_failed_run_leaves_an_existing_output_alone(tmp_path, capsys):
    target = tmp_path / "kept.csv"
    target.write_text("kept\n")
    code, out, err = run_cli(capsys, "noisy", "--n", "2", "--p", "2", "--output", str(target))
    assert code == 1 and out == "" and err.startswith("error:")
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("thermal", "--n", "3", "--temps", "1,2", "--steps", "5"),
        ("noisy", "--n", "3", "--m", "1,2", "--p", "0.3", "--mu", "0.5", "--steps", "5"),
    ],
    ids=["thermal", "noisy"],
)
def test_jobs_start_at_most_one_worker_per_group(capsys, monkeypatch, argv):
    # A stand-in pool that records its size and maps in this process, so no
    # worker starts, however many --jobs asks for. Both tables have 2 groups.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    code, out, err = run_cli(capsys, *argv, "--jobs", "64")
    assert code == 0, err
    assert sizes == [2]
    assert run_cli(capsys, *argv, "--jobs", "1")[1] == out


def test_emit_rejects_unknown_format(tmp_path):
    table = ResultTable({"command": "x"}, ["a"], [[1.0]])
    with pytest.raises(ConfigError):
        with open(tmp_path / "t.txt", "w") as fh:
            emit(table, "yaml", fh)


@pytest.mark.parametrize("rows", [
    [], [[0]], [[0, 0.5, -1e-300, 1.0]], [[1, float("nan")], [2, float("inf")], [3, -0.0]],
])
def test_json_rows_are_what_json_dumps_writes(rows):
    table = ResultTable({"command": "x", "steps": "3"}, ["a", "b"], rows)
    stream = io.StringIO()
    emit(table, "json", stream)
    payload = {"meta": table.meta, "columns": table.columns, "rows": rows}
    assert stream.getvalue() == json.dumps(payload, indent=2) + "\n"


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_emit_writes_each_table_in_one_call():
    # oracle-check's meta holds a float, max_trace_distance.
    table = cli.run(cli.build_parser().parse_args(
        ["oracle-check", "--n", "3", "--m", "2", "--noise", "hadamard", "--steps", "3"]
    ))
    assert isinstance(table.meta["max_trace_distance"], float)
    texts = {}
    for fmt in ("csv", "json"):
        stream = _CountingStream()
        emit(table, fmt, stream)
        assert stream.writes == 1, fmt
        texts[fmt] = stream.getvalue()
    want = io.StringIO()
    json.dump({"meta": table.meta, "columns": table.columns, "rows": table.rows}, want, indent=2)
    assert texts["json"] == want.getvalue() + "\n"
    lines = [f"# {key}={cli._fmt(value)}" for key, value in table.meta.items()]
    lines += [",".join(table.columns)] + [",".join(cli._fmt(v) for v in row) for row in table.rows]
    assert texts["csv"] == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_closed_stdout_exits_one_buffered_or_not(fmt, unbuffered):
    # Under python -u a table's one write may reach the pipe only in part;
    # the rest must still be written or fail, never vanish with exit 0.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
        [sys.executable, *(["-u"] if unbuffered else []), "-m", "noisygrover.cli", "noisy",
         "--n", "6", "--steps", "20000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert first == ("# command=noisy\n" if fmt == "csv" else "{\n")
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_closed_stdout_exits_one_with_one_error_line(fmt):
    # Far more output than a pipe holds, so the writer is still writing
    # when its reader closes after one line, as ``| head -1`` does.
    with subprocess.Popen(
        [sys.executable, "-m", "noisygrover.cli", "noisy", "--n", "6", "--steps", "20000",
         "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert first == ("# command=noisy\n" if fmt == "csv" else "{\n")
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["ideal", "noisy", "blp", "cpdiv"])
def test_out_of_memory_exits_one_with_one_error_line(capsys, command):
    # 10^15 steps ask numpy for 7.11 PiB, more than any address space
    # holds, so the request fails before anything is allocated.
    code, out, err = run_cli(capsys, command, "--n", "5", "--steps", "1000000000000000")
    assert code == 1 and out == ""
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


def test_cli_does_not_import_the_process_pool():
    # concurrent.futures loads ProcessPoolExecutor, and multiprocessing with
    # it, on first use; a --jobs 1 run never needs them.
    code = (
        "import sys, noisygrover.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', "
        "'concurrent.futures.process'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_does_not_import_concurrent_futures():
    # It costs a few ms of every start (logging and threading come with
    # it), and only a run with --jobs above 1 uses it.
    code = "import sys, noisygrover.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_reads_argv_without_argparse():
    # The reader is built from the option table, so neither building it
    # nor a run pays for importing argparse, or gettext, which argparse
    # loads.
    code = (
        "import os, sys, noisygrover.cli as cli; cli.build_parser(); "
        "assert cli.main(['ideal', '--n', '2', '--steps=1', '--output', os.devnull]) == 0; "
        "print(sorted(m for m in ('argparse', 'gettext') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_script_help_and_version():
    for flag in ("--help", "--version"):
        proc = subprocess.run(
            [sys.executable, "-m", "noisygrover.cli", flag],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "noisygrover" in proc.stdout
