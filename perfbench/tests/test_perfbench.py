"""Tests of the benchmark's own code: generator, tracer and output checks.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from noisygrover import cli  # noqa: E402
from worker import run_pass  # noqa: E402

# Options whose value the seed must not change; list options only by length.
_FIXED = ("--n", "--steps", "--trials", "--temperature", "--temps", "--m", "--format", "--jobs")
_LISTS = ("--p", "--mu", "--positions")


def _shape(tables):
    out = []
    for argv in tables:
        flags = argv[1::2]
        values = dict(zip(flags, argv[2::2]))
        out.append((
            argv[0],
            flags,
            {f: values[f] for f in _FIXED if f in values},
            {f: len(values[f].split(",")) for f in _LISTS if f in values},
        ))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seed_keeps_the_work(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    a, b = workloads.generate(workload, 7), workloads.generate(workload, 8)
    assert a != b
    assert _shape(a) == _shape(b)


def test_generated_noise_and_positions_are_valid():
    parser = cli.build_parser()
    for seed in range(50):
        for workload in workloads.WORKLOADS:
            for argv in workloads.generate(workload, seed):
                cli._parse_noise(checks.option(argv, "--noise"))
                ns = parser.parse_args(argv)
                if getattr(ns, "positions", None) is not None:
                    positions = [int(q) for q in ns.positions.split(",")]
                    assert len(set(positions)) == len(positions)
                    assert all(0 <= q < int(ns.n) for q in positions)
                for text in (ns.p + "," + ns.mu).split(","):
                    assert not text or 0.0 < float(text) < 1.0


_TINY = [
    ["noisy", "--n", "3", "--steps", "3", "--p", "0.3", "--mu", "0.4", "--temperature", "1"],
    ["blp", "--n", "2", "--steps", "3", "--p", "0.3", "--mu", "0.6"],
    ["cpdiv", "--n", "2", "--steps", "3", "--p", "0.3", "--mu", "0.6"],
    ["dilation-check", "--n", "2", "--trials", "2", "--p", "0.3", "--mu", "0.6"],
    ["oracle-check", "--n", "2", "--steps", "3"],
]


def _bindings():
    return {
        (name, attr): id(value)
        for name, mod in sys.modules.items()
        if name == "noisygrover" or name.startswith("noisygrover.")
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_every_patched_name_and_sees_every_layer():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert id(cli.markov_evolve) != before[("noisygrover.cli", "markov_evolve")]
        texts, errors, _, _ = run_pass(cli, cli.build_parser(), _TINY)
    assert _bindings() == before
    assert errors == [None] * len(_TINY)

    layers = {span.name.split(".")[0] for span in tracer.spans}
    assert layers == set(tracing.LAYERS)
    for i, span in enumerate(tracer.spans):
        assert span.end >= span.start
        assert span.parent is None or span.parent < i
    metrics = tracer.layer_metrics()
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)
    assert metrics["collision.useful_flop_ratio"] == pytest.approx(0.125)
    assert metrics["measures.cp_lift_mb"] > 0.0
    assert metrics["linalg.trace_distance_calls"] > 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("markov.markov_evolve", 0.0, 10.0, None),
        tracing.Span("collision.apply_kraus", 1.0, 4.0, 0),
        tracing.Span("collision.apply_kraus", 5.0, 9.0, 0),
    ]
    assert tracer.self_time("markov.markov_evolve") == pytest.approx(3.0)
    assert tracer.total("collision.apply_kraus") == pytest.approx(7.0)
    assert tracer.calls("collision.apply_kraus") == 2


def _reference_pass(workload):
    reference = checks.load_reference(workload, workloads.DEFAULT_SEED)
    tables = workloads.generate(workload, workloads.DEFAULT_SEED)
    texts = [json.dumps(t) for t in reference["outputs"]]
    return reference, tables, texts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_tables_pass_their_checks(workload):
    reference, tables, texts = _reference_pass(workload)
    outcomes = checks.check_pass(tables, texts, [None] * len(texts), reference)
    assert outcomes == [[]] * len(tables)


def test_corrupted_tables_count_as_failed():
    reference, tables, texts = _reference_pass("series")
    off = copy.deepcopy(reference["outputs"][0])
    off["rows"][3][1] += 1e-9  # still a probability, but off the reference
    bad = copy.deepcopy(reference["outputs"][1])
    bad["rows"][5][1] = 1.5
    texts[0], texts[1] = json.dumps(off), json.dumps(bad)
    texts[2], errors = None, [None, None, "noisy: InvariantViolation: boom"] + [None] * (len(texts) - 3)
    outcomes = checks.check_pass(tables, texts, errors, reference)
    assert [bool(p) for p in outcomes] == [True, True, True] + [False] * (len(texts) - 3)
    # Without the reference only the out-of-range probability is caught.
    outcomes = checks.check_pass(tables, texts, errors, None)
    assert [bool(p) for p in outcomes[:3]] == [False, True, True]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
