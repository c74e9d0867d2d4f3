import concurrent.futures
import itertools
import json
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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
        # N^2 2^steps above its value at n = 10, 11 steps
        pytest.param(("oracle-check", "--n", "10", "--steps", "12"), id="oracle-work-n10-steps12"),
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
    [(7, 12, True), (10, 3, True), (8, 12, True), (9, 12, True), (10, 11, True), (10, 12, False)],
)
def test_oracle_check_caps_its_work(capsys, monkeypatch, n, steps, accepted):
    # The evolution is stubbed, so nothing runs: reaching it means the
    # inputs were accepted.
    def stub(*args, **kwargs):
        raise _Accepted

    monkeypatch.setattr(cli, "markov_evolve", stub)
    argv = ("oracle-check", "--n", str(n), "--steps", str(steps))
    if accepted:
        with pytest.raises(_Accepted):
            main(list(argv))
        return
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"work N^2 2^steps = 2^{2 * n + steps}" in err


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


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "2", "--steps", "6")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert float(meta["max_trace_distance"]) < 1e-10
    assert len(rows) == 7


def test_oracle_check_lifts_one_step_at_a_time():
    # The table holds the 13 dense history sums (13 N^2 complex entries at
    # 12 steps) and, beside them, a few N x N temporaries: one lifted state,
    # the history walk's rank-one product, trace_distance's difference and
    # its eigvalsh work. Holding all 13 lifted states at once as well peaks
    # at 31.5 N^2; lifting one step at a time peaks at 19.2 N^2.
    ns = cli.build_parser().parse_args(
        ["oracle-check", "--n", "8", "--m", "3", "--noise", "hadamard", "--steps", "12"]
    )
    tracemalloc.start()
    try:
        table = cli.run(ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.meta["max_trace_distance"] < 1e-10
    assert peak < 23 * 16 * 256**2, peak / (16 * 256**2)


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
    assert "m_residual" in columns
    assert len(rows) == 9


def _nan_on_call(real, which):
    # trace_distance that returns NaN on its ``which``-th call (0-based)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        return float("nan") if len(calls) - 1 == which else real(*args, **kwargs)

    return patched


def _nan_on_member(real, which):
    # trace_distance on stacks that gives NaN for the ``which``-th member
    # (0-based) over all its calls
    seen = [0]

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        first, seen[0] = seen[0], seen[0] + len(out)
        if first <= which < seen[0]:
            out[which - first] = np.nan
        return out

    return patched


@pytest.mark.parametrize("which", [0, 3, 4])
def test_dilation_check_fails_on_a_nan_deviation(capsys, monkeypatch, which):
    # 5 trials per kind, one stack each at n = 2: members 0-4 check the
    # initial step, 5-9 the steady one
    monkeypatch.setattr(collision, "trace_distance", _nan_on_member(collision.trace_distance, which))
    code, out, err = run_cli(
        capsys, "dilation-check", "--n", "2", "--p", "0.3", "--mu", "0.5", "--trials", "5",
    )
    assert code == 2 and out == ""
    assert "dilation_dev_initial=nan" in err


def test_dilation_check_drops_the_initial_unitary_before_the_steady_one(capsys, monkeypatch):
    # One 8N x 8N unitary alive at a time: when the steady kind's U is
    # built, nothing holds the initial kind's any more.
    real, built, alive_at_build = cli.dilation_unitary, [], []

    def tracked(kind, *args):
        alive_at_build.append([ref() is not None for ref in built])
        dil = real(kind, *args)
        built.append(weakref.ref(dil))
        return dil

    monkeypatch.setattr(cli, "dilation_unitary", tracked)
    code, out, err = run_cli(
        capsys, "dilation-check", "--n", "2", "--p", "0.3", "--mu", "0.5", "--trials", "2",
    )
    assert code == 0, err
    assert alive_at_build == [[], [False]]


@pytest.mark.parametrize("which", [0, 3, 6])
def test_oracle_check_fails_on_a_nan_distance(capsys, monkeypatch, which):
    monkeypatch.setattr(cli, "trace_distance", _nan_on_call(cli.trace_distance, which))
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
        (("dilation-check", "--n", str(cli.DILATION_MAX_N + 1)), "dilation-check"),
        (("dilation-check", "--n", "30", "--p", "0.1,0.2"), "dilation-check"),
        (("oracle-check", "--n", str(cli.ORACLE_MAX_N + 1)), "oracle-check"),
        (("oracle-check", "--n", "40"), "oracle-check"),
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


def test_console_script_help_and_version():
    for flag in ("--help", "--version"):
        proc = subprocess.run(
            [sys.executable, "-m", "noisygrover.cli", flag],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "noisygrover" in proc.stdout
