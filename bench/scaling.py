"""Wall time and peak memory of single CLI runs at scale, one record per checkout.

Usage, from the root of a checkout::

    python3 bench/scaling.py --label change
    python3 bench/scaling.py --root /path/to/other/checkout --label parent
    python3 bench/scaling.py --parent /path/to/parent/checkout

Each run in ``RUNS`` is one ``noisygrover`` command, started ``--repeats``
times, each time in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1``
and the ``src`` of ``--root`` first on ``sys.path``. With ``--parent``,
each start in ``--root`` follows one in the parent checkout, so the two
alternate, and both records are written, under ``parent`` and
``--label``. A run records the min and median wall time of those starts
(interpreter start and imports included) and the largest peak resident
set size of one of them. The starts of one checkout must write the same
table bytes: a run records the SHA-256 of every distinct table file its
starts wrote, and one with more than one is not ``ok``. Each table is
also compared with ``bench/reference.json``: the largest absolute
difference of its float cells and the number of int cells that differ,
and the run is marked ``ok`` only if the first is at most 1e-12 and the
second 0. The records go into ``BENCH_40.json`` at the root of this
checkout, next to the records already there; the script exits 1 unless
every run is ``ok``. ``--runs`` picks runs by name.
``--write-reference`` stores the tables of ``--root`` for those runs in
the reference, next to the ones already there. The committed reference
holds the tables of the orbit basis: the success tables from before the
weight basis, the witness tables from before the witnesses moved to it,
and the verification tables from before they moved too (the d' = 256
caps at n = 128, m = 127 and marked index 0 ran at orbit d = 256 as
well). The many-point ``firstmax`` grid's reference is the weight-basis
table of the step loop that still wrote into its caller's array.

The test suite does not run this script. CI runs its four verification
runs (``dilation-check`` and ``oracle-check`` at n = 30 and at the cap)
once each and fails unless each is ``ok``; no wall time or memory bound
here gates anything: the orbit-basis success tables took 5-7 s per
`invariance` run, and the orbit-basis witnesses at n = 30..40 took
6-11 s and 1.5-1.7 GiB per table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_PATH = os.path.join(ROOT, "BENCH_40.json")
TOL = 1e-12

# 20 values in (0, 1) for p and for mu: a 20 x 20 grid.
_GRID = ",".join(f"{0.025 + 0.05 * i:.3f}" for i in range(20))

# (name, argv): the success tables at scale, whose step loops run at the
# dimension the representation gives each system, and the verification
# subcommands at their d' = 256 cap and at the old orbit cap (n = 30,
# q = 15 of m = 30: orbit d = 256, d' = 60).
RUNS = (
    ("invariance-n40", ["invariance", "--n", "40", "--marked", "7", "--noise", "hadamard"]),
    ("invariance-n24", ["invariance", "--n", "24", "--marked", "4095"]),
    ("firstmax-n20-28", [
        "firstmax", "--n", "20,24,28", "--m", "4", "--p", "0,0.1", "--mu", "0,0.9",
        "--steps", "30000",
    ]),
    ("dilation-check-cap", [
        "dilation-check", "--n", "128", "--m", "127", "--noise", "hadamard",
        "--p", "0.3", "--mu", "0.5",
    ]),
    ("oracle-check-cap", [
        "oracle-check", "--n", "128", "--m", "127", "--noise", "hadamard", "--steps", "12",
    ]),
    ("dilation-check-n30", [
        "dilation-check", "--n", "30", "--m", "30", "--marked", "1073709056",
        "--noise", "hadamard", "--p", "0.3", "--mu", "0.5",
    ]),
    ("oracle-check-n30", [
        "oracle-check", "--n", "30", "--m", "30", "--marked", "1073709056",
        "--noise", "hadamard", "--steps", "12",
    ]),
    # The witnesses at scale: orbit d = 512 against d' = 62 for cpdiv, and
    # dim W = 440 against 80 for blp and each temperature of thermal.
    ("cpdiv-n40", [
        "cpdiv", "--n", "40", "--m", "30", "--marked", "1073709056", "--noise", "hadamard",
        "--p", "0.3,0.7", "--mu", "0.6,0.9", "--steps", "20",
    ]),
    ("blp-n30", [
        "blp", "--n", "30", "--m", "20", "--marked", "1048575", "--noise", "hadamard",
        "--p", "0.3", "--mu", "0.6", "--steps", "45",
    ]),
    ("thermal-n30", [
        "thermal", "--n", "30", "--m", "20", "--marked", "1048575", "--noise", "hadamard",
        "--p", "0.3", "--mu", "0.6", "--steps", "45", "--temps", "0.5,2",
    ]),
    # 400 (p, mu) points at small d, where the witnesses' kept blocks
    # over the whole grid set the peak memory.
    ("blp-grid-n6", [
        "blp", "--n", "6", "--m", "2", "--marked", "34", "--noise", "hadamard",
        "--p", _GRID, "--mu", _GRID, "--steps", "45",
    ]),
    ("cpdiv-grid-n6", [
        "cpdiv", "--n", "6", "--m", "2", "--marked", "34", "--noise", "hadamard",
        "--p", _GRID, "--mu", _GRID, "--steps", "45",
    ]),
    # 1,200 members at d' = 4 (three systems, 400 points each), where a
    # step's cost is one BLAS call per member and product.
    ("firstmax-grid-n10-14", [
        "firstmax", "--n", "10,12,14", "--m", "1", "--noise", "hadamard",
        "--p", _GRID, "--mu", _GRID, "--steps", "400",
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


def measure(src: str, argv: list[str], output: str) -> tuple[float, float, dict, str]:
    """(wall seconds, peak RSS in MiB, table without its meta, SHA-256 of
    the table file) of one start."""
    wall, peak = run_once(src, argv, output)
    with open(output, "rb") as fh:
        raw = fh.read()
    table = {key: value for key, value in json.loads(raw).items() if key != "meta"}
    return wall, peak, table, hashlib.sha256(raw).hexdigest()


def record(argv: list[str], starts: list, reference: Optional[dict]) -> dict:
    """The record of one run from its starts' (wall, peak, table, hash)."""
    walls = [start[0] for start in starts]
    digests = sorted({start[3] for start in starts})
    out = {
        "argv": argv,
        "wall_min_s": min(walls),
        "wall_median_s": statistics.median(walls),
        "walls_s": walls,
        "peak_rss_mib": max(start[1] for start in starts),
        "table_sha256": digests,
        "ok": len(digests) == 1,
    }
    if reference is not None:
        out["max_abs_dev"], out["int_mismatches"] = deviation(starts[-1][2], reference)
        out["ok"] &= out["max_abs_dev"] <= TOL and not out["int_mismatches"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="checkout whose src is run")
    parser.add_argument("--label", default="change", help="key of this record in BENCH_40.json")
    parser.add_argument("--parent", help="checkout whose starts alternate with those of --root")
    parser.add_argument("--repeats", type=int, default=3, help="fresh starts per run")
    parser.add_argument("--runs", help="comma-separated names of the runs to start (default all)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the tables of --root in bench/reference.json")
    args = parser.parse_args()
    runs = RUNS
    if args.runs:
        names = args.runs.split(",")
        unknown = sorted(set(names) - {name for name, _ in RUNS})
        if unknown:
            raise SystemExit(f"error: unknown runs {unknown}")
        runs = [(name, argv) for name, argv in RUNS if name in names]
    roots = {args.label: args.root}
    if args.parent and not args.write_reference:
        roots = {"parent": args.parent, args.label: args.root}
    srcs = {label: os.path.join(os.path.abspath(root), "src") for label, root in roots.items()}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    records = {label: {} for label in roots}
    with tempfile.TemporaryDirectory() as tmp:
        output = os.path.join(tmp, "table.json")
        for name, argv in runs:
            starts = {label: [] for label in roots}
            for _ in range(args.repeats):
                for label, src in srcs.items():
                    starts[label].append(measure(src, argv, output))
            for label in roots:
                rec = record(argv, starts[label], None if args.write_reference
                             else reference.get(name))
                records[label][name] = rec
                if args.write_reference:
                    reference[name] = starts[label][-1][2]
                print(f"{label} {name}: min {rec['wall_min_s']:.3f} s, median "
                      f"{rec['wall_median_s']:.3f} s, peak {rec['peak_rss_mib']:.1f} MiB, "
                      f"table hashes {len(rec['table_sha256'])}, "
                      f"max |dev| {rec.get('max_abs_dev', 'n/a')}, int cells differing "
                      f"{rec.get('int_mismatches', 'n/a')}", flush=True)
    ok = all(r["ok"] for recs in records.values() for r in recs.values())
    if args.write_reference:
        if not ok:
            raise SystemExit("error: starts of one checkout wrote different tables")
        with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1)
            fh.write("\n")
        return 0
    bench = {}
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH, encoding="utf-8") as fh:
            bench = json.load(fh)
    bench.setdefault("description", (
        "bench/scaling.py records: each CLI run started --repeats times in a fresh "
        "interpreter with OPENBLAS_NUM_THREADS=1, alternating with the parent checkout's "
        "starts when both are recorded; wall times include interpreter start and imports; "
        "peak_rss_mib is the largest ru_maxrss of the starts; max_abs_dev and "
        "int_mismatches compare the table with bench/reference.json; table_sha256 lists "
        "the distinct table files the starts wrote, one when they agree."
    ))
    for label, recs in records.items():
        bench.setdefault("records", {})[label] = {
            "environment": environment(), "repeats": args.repeats, "runs": recs,
        }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
