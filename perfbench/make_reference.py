"""Rewrite ``reference.json``: every table of every workload at the default seed.

Run from the root of a checkout after a change that is meant to alter the
tables (never to make a failing check pass)::

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402
from noisygrover import cli  # noqa: E402


def main() -> int:
    parser = cli.build_parser()
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        tables = workloads.generate(name, workloads.DEFAULT_SEED)
        texts, errors, _, _ = run_pass(cli, parser, tables)
        failed = [e for e in errors if e]
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 1
        outputs = [json.loads(text) for text in texts]
        out["workloads"][name] = {"tables": tables, "outputs": outputs}
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
