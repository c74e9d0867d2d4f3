"""Wall time and peak memory of single CLI runs at scale, one record per checkout.

Usage, from the root of a checkout::

    python3 bench/scaling.py --label change
    python3 bench/scaling.py --root /path/to/other/checkout --label parent

Each run in ``RUNS`` is one ``noisygrover`` command, started ``--repeats``
times, each time in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1``
and the ``src`` of ``--root`` first on ``sys.path``. A run records the
min and median wall time of those starts (interpreter start and imports
included) and the largest peak resident set size of one of them. Each
table is compared with ``bench/reference.json``: the largest absolute
difference of its float cells and the number of int cells that differ,
and the run is marked ``ok`` only if the first is at most 1e-12 and the
second 0. The record goes into ``BENCH_37.json`` at the root of this
checkout under ``--label``, next to the records already there.
``--write-reference`` stores the tables of ``--root`` as the reference
instead; the committed reference holds those of the orbit-basis success
tables, before the weight basis.

Nothing in the test suite or CI runs this script, and no bound here gates
anything: the d = 256 verification caps take seconds, and the orbit-basis
success tables took 5-7 s per `invariance` run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_PATH = os.path.join(ROOT, "BENCH_37.json")
TOL = 1e-12

# (name, argv): the success tables at scale, whose step loops run at the
# dimension the representation gives each system, and the two verification
# caps (d = 256 on the orbit space), which that representation leaves alone.
RUNS = (
    ("invariance-n40", ["invariance", "--n", "40", "--marked", "7", "--noise", "hadamard"]),
    ("invariance-n24", ["invariance", "--n", "24", "--marked", "4095"]),
    ("firstmax-n20-28", [
        "firstmax", "--n", "20,24,28", "--m", "4", "--p", "0,0.1", "--mu", "0,0.9",
        "--steps", "30000",
    ]),
    ("dilation-check-cap", [
        "dilation-check", "--n", "30", "--m", "30", "--marked", "1073709056",
        "--noise", "hadamard", "--p", "0.3", "--mu", "0.5",
    ]),
    ("oracle-check-cap", [
        "oracle-check", "--n", "30", "--m", "30", "--marked", "1073709056",
        "--noise", "hadamard", "--steps", "12",
    ]),
)

_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); from noisygrover.cli import main; " \
    "sys.exit(main(sys.argv[2:]))"


def run_once(src: str, argv: list[str], output: str) -> tuple[float, float]:
    """(wall seconds, peak RSS in MiB) of one fresh interpreter running
    ``argv`` with its JSON table written to ``output``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    command = [sys.executable, "-c", _SNIPPET, src, *argv, "--format", "json", "--output", output]
    start = time.perf_counter()
    proc = subprocess.Popen(command, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited with status {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def deviation(table: dict, reference: dict) -> tuple[float, int]:
    """(largest absolute difference of the float cells, number of int cells
    that differ) of two tables; (inf, 0) when their columns or shapes
    differ."""
    if table["columns"] != reference["columns"] or len(table["rows"]) != len(reference["rows"]):
        return float("inf"), 0
    worst, ints = 0.0, 0
    for row, want in zip(table["rows"], reference["rows"]):
        if len(row) != len(want):
            return float("inf"), 0
        for got, value in zip(row, want):
            if isinstance(value, int):
                ints += got != value
            else:
                worst = max(worst, abs(got - value))
    return worst, ints


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": "1",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="checkout whose src is run")
    parser.add_argument("--label", default="change", help="key of this record in BENCH_37.json")
    parser.add_argument("--repeats", type=int, default=3, help="fresh starts per run")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the tables of --root as bench/reference.json")
    args = parser.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")
    reference = {}
    if not args.write_reference:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    records, tables = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS:
            output = os.path.join(tmp, f"{name}.json")
            walls, peaks = [], []
            for _ in range(args.repeats):
                wall, peak = run_once(src, argv, output)
                walls.append(wall)
                peaks.append(peak)
            with open(output, encoding="utf-8") as fh:
                tables[name] = {key: value for key, value in json.load(fh).items() if key != "meta"}
            record = {
                "argv": argv,
                "wall_min_s": min(walls),
                "wall_median_s": statistics.median(walls),
                "walls_s": walls,
                "peak_rss_mib": max(peaks),
            }
            if name in reference:
                record["max_abs_dev"], record["int_mismatches"] = deviation(
                    tables[name], reference[name]
                )
                record["ok"] = record["max_abs_dev"] <= TOL and not record["int_mismatches"]
            records[name] = record
            print(f"{name}: min {record['wall_min_s']:.3f} s, median "
                  f"{record['wall_median_s']:.3f} s, peak {record['peak_rss_mib']:.1f} MiB, "
                  f"max |dev| {record.get('max_abs_dev', 'n/a')}, int cells differing "
                  f"{record.get('int_mismatches', 'n/a')}", flush=True)
    if args.write_reference:
        with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(tables, fh, indent=1)
            fh.write("\n")
        return 0
    bench = {}
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH, encoding="utf-8") as fh:
            bench = json.load(fh)
    bench.setdefault("description", (
        "bench/scaling.py records: each CLI run started --repeats times in a fresh "
        "interpreter with OPENBLAS_NUM_THREADS=1; wall times include interpreter start "
        "and imports; peak_rss_mib is the largest ru_maxrss of the starts; max_abs_dev "
        "and int_mismatches compare the table with bench/reference.json."
    ))
    bench.setdefault("records", {})[args.label] = {
        "environment": environment(), "repeats": args.repeats, "runs": records,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0 if all(r.get("ok", True) for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
