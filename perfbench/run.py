"""The noisygrover benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload series --seed 1 --seconds 20 --trace 0

and for every workload::

    for w in series witness verify; do python3 perfbench/run.py --workload $w; done

The workload's tables (see ``workloads.py``) are generated from the seed
and computed through ``noisygrover.cli.run`` + ``cli.emit`` with
``--jobs 1`` and BLAS pinned to one thread, in a fresh child process
(``worker.py``) that repeats whole passes for ``--seconds``. Outputs are
checked afterwards (``checks.py``); a table that raises or fails a check
counts as failed.

With ``--trace 0`` the result line holds the end-to-end metrics:

``wall_norm``    median over passes of the pass wall in units of a fixed
                 numpy calibration kernel; each table is divided by the
                 kernel time measured just before and after it
``setup_s``      median, over fresh interpreters started between passes,
                 of the time to import noisygrover and build the CLI parser
``peak_rss_mb``  peak resident set size of the child running the passes

``wall_s``, the plain median pass wall, is printed with its quartiles but
is not in the result line: on a shared machine whose speed drifts, its
medians moved by 20-25% between sets of runs of the same code, more than
a regression bound can absorb, while ``wall_norm`` stayed within a few
percent.

With ``--trace 1`` passes alternate untraced and traced (``tracer.py``
wraps each module's public functions) and the result line holds the
per-layer metrics, medians over traced passes; ``trace.overhead_s`` is
the traced minus the untraced median pass, both in calibration-kernel
units, converted back to seconds at the run's median kernel time. Human-readable lines
(environment record, tables, quartiles, error rate, which counters are
computed from array shapes) precede the result line, and the whole
record, spans included, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in children.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

CHILD_TIMEOUT_S = 150


def run_worker(tables: list[list[str]], seconds: float, trace: bool) -> dict:
    job = {"src": SRC, "tables": tables, "seconds": seconds, "trace": trace}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: worker exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(args, calibration: list[float]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
        "workload": args.workload,
        "seed": args.seed,
        "calibration_s": {
            "median": statistics.median(calibration),
            "min": min(calibration),
            "max": max(calibration),
            "samples": len(calibration),
        },
    }


def _parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _normalized(walls: list[float], cals: list[float]) -> float:
    """Pass wall in calibration-kernel units, each table by the kernel around it."""
    return sum(w / (0.5 * (before + after)) for w, before, after in zip(walls, cals, cals[1:]))


def _summary(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import checks
    import tracer
    import workloads

    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "noisygrover", "__init__.py")):
        print(f"error: no noisygrover sources under {SRC}", file=sys.stderr)
        return 2
    tables = workloads.generate(args.workload, args.seed)
    result = run_worker(tables, args.seconds, bool(args.trace))
    setup = result["setup"]

    sys.path.insert(0, SRC)
    reference = checks.load_reference(args.workload, args.seed)
    outcomes = []
    for record in result["passes"]:
        outcomes += checks.check_pass(tables, record["tables"], record["errors"], reference)
    outcomes += checks.analytic_checks(args.workload, tables)
    failures = [problems for problems in outcomes if problems]

    timed = [r for r in result["passes"] if r["timed"]]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    walls = [sum(r["walls"]) for r in plain]
    calibration = [c for r in timed for c in r["cals"]]
    env = environment(args, calibration)

    metrics, lines = {}, []
    if args.trace:
        wall = statistics.median(sum(r["walls"]) for r in traced)
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in tracer.LAYER_METRICS if name != "trace.overhead_s"
        }
        # In kernel units first, as the machine's speed drifts between passes.
        values["trace.overhead_s"] = statistics.median(calibration) * (
            statistics.median(_normalized(r["walls"], r["cals"]) for r in traced)
            - statistics.median(_normalized(r["walls"], r["cals"]) for r in plain)
        )
        for name, (unit, computed) in tracer.LAYER_METRICS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            share = f"  ({values[name] / wall:6.1%} of a traced pass)" if unit == "s" else ""
            tag = "  [computed]" if computed else ""
            lines.append(f"{name:30s} {values[name]:14.6g} {unit:6s}{share}{tag}")
        lines.append(f"traced passes: {len(traced)}, untraced passes: {len(plain)}")
    else:
        norms = [_normalized(r["walls"], r["cals"]) for r in plain]
        peak = result["maxrss_kb"] / 1024.0
        metrics = {
            "wall_norm": {"value": statistics.median(norms), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
        }
        lines += [
            f"wall_s       [s]     {_summary(walls)}",
            f"wall_norm    [ratio] {_summary(norms)}",
            f"setup_s      [s]     {_summary(setup)}",
            f"peak_rss_mb  [MiB]   {peak:.6g}",
        ]
    lines.append(
        f"error_rate   [ratio] {len(failures) / len(outcomes):.6g}"
        f"  ({len(failures)} of {len(outcomes)} tables failed)"
    )
    for problems in failures:
        lines.append("FAILED: " + "; ".join(problems))

    record = {
        "environment": env,
        "tables": tables,
        "metrics": metrics,
        "passes": [{k: r[k] for k in ("traced", "walls", "cals")} for r in timed],
        "setup_samples": setup,
        "failures": failures,
        "spans": result["spans"],
    }
    if args.trace:
        record["computed"] = [n for n, (_, computed) in tracer.LAYER_METRICS.items() if computed]
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print("environment: " + json.dumps(env))
    for argv in tables:
        print("table: " + " ".join(argv))
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
