"""Timed passes of one workload, in a fresh interpreter.

``run.py`` starts this script with a JSON job on stdin::

    {"src": ..., "tables": [[argv...], ...], "seconds": S, "trace": false}

A pass computes every table through ``noisygrover.cli.run`` and emits it
with ``cli.emit``. One untimed warm-up pass runs first; then passes repeat
until ``seconds`` have elapsed. A fixed numpy calibration kernel runs
before the first table of a pass and after every table, so each table's
time can be divided by the machine's speed around it. Without ``trace``,
each pass is followed by one set-up sample: a fresh interpreter timing
``import noisygrover`` plus ``cli.build_parser()``, so the samples spread
over the run like the passes do. With ``trace`` the passes come in pairs,
one untraced and one traced, in alternating order. The result is one JSON line on stdout, including
this process's peak resident set size.
"""

import os

# Pin BLAS to one thread before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

# The calibration kernel: pure numpy, no noisygrover code. The machine's
# speed drifts, and not alike for every kind of work, so the kernel mixes
# the kinds a pass does: a complex 256 x 256 product (the state at n = 7),
# a loop of 16 x 16 products (interpreter-bound, like the small points and
# the history sum), a Hermitian spectrum and a Kronecker product. Each part
# takes the median of _CAL_REPS timings, which ignores interruptions.
_CAL_REPS = 5

# Set-up samples taken at least, if the run has fewer passes.
_SETUP_MIN = 5

_SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import noisygrover
from noisygrover import cli
cli.build_parser()
print(time.perf_counter() - start)
"""


def calibration_kernel():
    """A function returning the kernel's time in seconds."""
    rng = np.random.default_rng(0)

    def square(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    big, small, herm, anc = square(256), square(16), square(128), square(4)
    herm = herm + herm.conj().T
    out = np.empty_like(big)

    def small_products():
        for _ in range(200):
            small @ small

    parts = (
        lambda: np.matmul(big, big, out=out),
        small_products,
        lambda: np.linalg.eigvalsh(herm),
        lambda: np.kron(anc, herm),
    )

    def run() -> float:
        total = 0.0
        for part in parts:
            times = []
            for _ in range(_CAL_REPS):
                start = time.perf_counter()
                part()
                times.append(time.perf_counter() - start)
            total += statistics.median(times)
        return total

    return run


def measure_setup(src: str) -> float:
    """Seconds a fresh interpreter takes to import noisygrover and build the parser."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(cli, parser, tables, calibrate=None):
    """Emit every table; per table its text (None and an error if it raised)
    and wall time, plus the calibration times around the tables."""
    texts, errors, walls = [], [], []
    cals = [calibrate()] if calibrate else []
    for argv in tables:
        start = time.perf_counter()
        try:
            table = cli.run(parser.parse_args(argv))
            buf = io.StringIO()
            cli.emit(table, "json", buf)
            texts.append(buf.getvalue())
            errors.append(None)
        except Exception as exc:  # a failed table is counted, the pass goes on
            texts.append(None)
            errors.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
        walls.append(time.perf_counter() - start)
        if calibrate:
            cals.append(calibrate())
    return texts, errors, walls, cals


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    from noisygrover import cli
    import tracer as tracing

    parser = cli.build_parser()
    calibrate = calibration_kernel()
    tracer = tracing.Tracer() if job["trace"] else None
    passes, spans, setup = [], [], []

    def one_pass(traced: bool, timed: bool) -> None:
        with tracer if traced else contextlib.nullcontext():
            texts, errors, walls, cals = run_pass(cli, parser, job["tables"], calibrate)
        record = {
            "timed": timed, "traced": traced, "walls": walls, "cals": cals,
            "tables": texts, "errors": errors,
        }
        if traced:
            record["layers"] = tracer.layer_metrics()
            spans.append(tracer.dump())
            tracer.reset()
        passes.append(record)

    one_pass(traced=False, timed=False)
    deadline = time.perf_counter() + float(job["seconds"])
    while True:
        if tracer is None:
            one_pass(traced=False, timed=True)
            setup.append(measure_setup(job["src"]))
        else:
            # Alternate the order within pairs so neither kind always goes first.
            first = len(passes) % 4 == 1
            one_pass(traced=first, timed=True)
            one_pass(traced=not first, timed=True)
        if time.perf_counter() >= deadline:
            break
    while tracer is None and len(setup) < _SETUP_MIN:
        setup.append(measure_setup(job["src"]))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(
        {"passes": passes, "maxrss_kb": maxrss_kb, "spans": spans, "setup": setup},
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
