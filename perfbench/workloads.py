"""Seeded command lines for the benchmark workloads.

A workload is a fixed list of ``noisygrover`` subcommands, each producing
one table. The seed draws only values: the marked index, a Haar-random
single-qubit noise unitary (passed as ``custom:a,b,theta``), the noisy
positions, the (p, mu) points and the dilation check's RNG seed. It never
changes n, steps, grid sizes or subcommands, so the dense work of a pass
is the same for every seed.

Why each workload exists:

``series``
    The paper's success-probability tables. ``collision.apply_kraus`` is
    almost all of a pass; the many small points of ``invariance`` and
    ``firstmax`` give operator and channel building their largest share,
    so work moved into per-point set-up shows here.
``witness``
    The non-Markovianity tables (trace-distance backflow and the
    spectator CP-divisibility witness). Measurement (``eigvalsh``) and the
    spectator lift's memory matter most here.
``verify``
    The collision-model verification layer: the 8N x 8N dilation over a
    2 x 3 (p, mu) grid, ``verify_dilation``, ``extract_m`` and the 2^t
    history sum. The evolve hot path is a small share, so a hot-path
    change should leave it flat.

Only ``random.Random.random`` is used, whose output for a given seed is
stable across Python versions.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("series", "witness", "verify")

DEFAULT_SEED = 1

# Every table is emitted as JSON so the checks can read it back exactly.
_TAIL = ("--format", "json", "--jobs", "1")


def _index(rng: random.Random, k: int) -> int:
    return min(int(rng.random() * k), k - 1)


def _prob(rng: random.Random) -> str:
    # Strictly inside (0, 1), away from the edges where the chain degenerates.
    return repr(round(0.05 + 0.9 * rng.random(), 6))


def _positions(rng: random.Random, m: int, n: int) -> str:
    pool = list(range(n))
    for i in range(m):  # partial Fisher-Yates
        j = i + _index(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return ",".join(str(q) for q in sorted(pool[:m]))


def haar_noise(rng: random.Random) -> str:
    """``custom:a,b,theta`` for a Haar-random U(2) element.

    For Haar measure |a|^2 is uniform on [0, 1]; the phases of a and b and
    the determinant phase theta are uniform on [0, 2 pi).
    """
    weight = rng.random()
    a = math.sqrt(weight) * cmath.exp(2j * math.pi * rng.random())
    b = math.sqrt(1.0 - weight) * cmath.exp(2j * math.pi * rng.random())
    theta = 2.0 * math.pi * rng.random()
    return f"custom:{a!r},{b!r},{theta!r}"


def _series(rng: random.Random) -> list[list[str]]:
    noise = haar_noise(rng)
    points = [(_prob(rng), _prob(rng)) for _ in range(2)]
    tables = []
    for m in (1, 3):
        positions = _positions(rng, m, 7)
        for p, mu in points:
            tables.append([
                "noisy", "--n", "7", "--steps", "25", "--marked", str(_index(rng, 128)),
                "--noise", noise, "--positions", positions, "--p", p, "--mu", mu,
            ])
    tables.append([
        "noisy", "--n", "6", "--steps", "25", "--temperature", "1",
        "--marked", str(_index(rng, 64)), "--noise", noise,
        "--positions", _positions(rng, 2, 6), "--p", _prob(rng), "--mu", _prob(rng),
    ])
    tables.append([
        "invariance", "--n", "5", "--steps", "25", "--marked", str(_index(rng, 32)),
        "--noise", noise, "--p", _prob(rng), "--mu", _prob(rng),
    ])
    tables.append([
        "firstmax", "--n", "3,4,5", "--steps", "25", "--marked", str(_index(rng, 8)),
        "--noise", noise, "--m", "1",
        "--p", ",".join(_prob(rng) for _ in range(5)),
        "--mu", ",".join(_prob(rng) for _ in range(5)),
    ])
    return tables


def _witness(rng: random.Random) -> list[list[str]]:
    noise = haar_noise(rng)
    tables = []
    for _ in range(2):
        tables.append([
            "blp", "--n", "6", "--steps", "45", "--marked", str(_index(rng, 64)),
            "--noise", noise, "--m", "2", "--p", _prob(rng), "--mu", _prob(rng),
        ])
    tables.append([
        "thermal", "--n", "6", "--steps", "45", "--temps", "1",
        "--marked", str(_index(rng, 64)), "--noise", noise, "--m", "2",
        "--p", _prob(rng), "--mu", _prob(rng),
    ])
    tables.append([
        "cpdiv", "--n", "3", "--steps", "20", "--marked", str(_index(rng, 8)),
        "--noise", noise, "--m", "1",
        "--p", ",".join(_prob(rng) for _ in range(3)),
        "--mu", ",".join(_prob(rng) for _ in range(3)),
    ])
    return tables


def _verify(rng: random.Random) -> list[list[str]]:
    # The 2 x 3 (p, mu) dilation grid runs as one table per point: the
    # calibration kernel brackets each table, and shorter tables track the
    # machine's drifting speed more closely.
    noise = haar_noise(rng)
    marked = str(_index(rng, 32))
    ps = [_prob(rng) for _ in range(2)]
    mus = [_prob(rng) for _ in range(3)]
    seed = str(_index(rng, 2**31))
    tables = [
        [
            "dilation-check", "--n", "5", "--trials", "20", "--marked", marked,
            "--noise", noise, "--m", "2", "--p", p, "--mu", mu, "--seed", seed,
        ]
        for p in ps
        for mu in mus
    ]
    tables.append([
        "oracle-check", "--n", "4", "--steps", "12", "--marked", str(_index(rng, 16)),
        "--noise", noise, "--m", "2", "--p", _prob(rng), "--mu", _prob(rng),
    ])
    return tables


_TABLES_OF = {"series": _series, "witness": _witness, "verify": _verify}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The argv of every table of one pass of ``workload`` for ``seed``."""
    if workload not in _TABLES_OF:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return [argv + list(_TAIL) for argv in _TABLES_OF[workload](rng)]
