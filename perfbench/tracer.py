"""Spans around the public functions of each noisygrover module.

The tracer patches from the outside: every module namespace that binds a
traced function (``cli`` and ``measures`` from-import theirs, and
``markov_evolve`` re-imports ``channel_maps`` from ``collision`` on each
call) gets a wrapper, and :meth:`Tracer.restore` puts every original back.
Spans (name, start, end, parent) stay in memory until the run ends. A
span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

LAYERS = ("cli", "grover", "noise", "markov", "collision", "measures", "linalg")

# (module, function) pairs that get a span named "<module>.<function>".
TRACED = (
    ("cli", "run"),
    ("cli", "emit"),
    ("grover", "grover_operator"),
    ("noise", "build_chi"),
    ("noise", "noisy_grover"),
    ("markov", "markov_evolve"),
    ("markov", "history_oracle"),
    ("collision", "apply_kraus"),
    ("collision", "channel_maps"),
    ("collision", "kraus_step"),
    ("collision", "dilation_unitary"),
    ("collision", "thermal_kraus"),
    ("collision", "verify_dilation"),
    ("collision", "extract_m"),
    ("measures", "n_blp"),
    ("measures", "n_cp"),
    ("linalg", "trace_distance"),
    ("linalg", "partial_trace"),
)

# Per-pass metric -> (unit, computed). Computed ones are derived from array
# shapes, not timed. trace.overhead_s is added by run.py from the traced
# and untraced pass walls.
LAYER_METRICS = {
    "collision.apply_s": ("s", False),
    "collision.apply_calls": ("count", False),
    "collision.apply_gflop": ("GFLOP", True),
    "collision.useful_flop_ratio": ("ratio", True),
    "collision.kraus_mb": ("MiB", True),
    "measures.cp_lift_mb": ("MiB", True),
    "grover.operator_s": ("s", False),
    "noise.chi_s": ("s", False),
    "collision.channel_build_s": ("s", False),
    "markov.evolve_s": ("s", False),
    "markov.evolve_self_s": ("s", False),
    "measures.blp_self_s": ("s", False),
    "measures.cp_self_s": ("s", False),
    "linalg.trace_distance_s": ("s", False),
    "linalg.trace_distance_calls": ("count", False),
    "linalg.partial_trace_s": ("s", False),
    "collision.verify_s": ("s", False),
    "collision.factor_s": ("s", False),
    "markov.oracle_s": ("s", False),
    "cli.run_self_s": ("s", False),
    "cli.emit_s": ("s", False),
    "trace.overhead_s": ("s", False),
}

_MIB = 1024.0 * 1024.0
_COMPLEX_BYTES = 16


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans


def _complex_matmul_flop(d: int) -> float:
    return 8.0 * d ** 3


def _nonzero_blocks(op) -> int:
    h = op.shape[0] // 2
    return sum(
        bool(op[i * h : (i + 1) * h, j * h : (j + 1) * h].any())
        for i in (0, 1)
        for j in (0, 1)
    )


class Tracer:
    """Records spans and shape-derived counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # id(KrausSet) -> (the set, its nonzero walker blocks); holding the
        # set keeps the id from being reused. Cleared after each table, so
        # the sets are freed when an untraced run would free them.
        self._blocks: dict[int, tuple[object, int]] = {}
        self._hooks: dict[str, Callable] = {
            "collision.apply_kraus": self._count_apply,
            "collision.channel_maps": self._count_channel,
            "cli.run": lambda args, result: self._blocks.clear(),
        }

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every traced function in every noisygrover namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "noisygrover" or name.startswith("noisygrover.")
        ]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"noisygrover.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        """Put every patched name back to its original object."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def reset(self) -> None:
        """Drop recorded spans and counters, keep the patches."""
        self.spans.clear()
        self.counters.clear()
        self._blocks.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        hook = self._hooks.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # ------------------------------------------------------------ counters

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def _count_apply(self, args, result) -> None:
        # Dense cost of sum_k K R K^dagger: two d x d products per operator.
        # Useful cost: the same two products on each nonzero N x N walker block.
        kset, r = args
        d = r.shape[0]
        if id(kset) not in self._blocks:
            self._blocks[id(kset)] = (kset, sum(_nonzero_blocks(op) for op in kset.ops))
        dense = 2.0 * _complex_matmul_flop(d) * len(kset.ops)
        useful = 2.0 * _complex_matmul_flop(d // 2) * self._blocks[id(kset)][1]
        self._add("apply_flop", dense)
        self._add("apply_useful_flop", useful)

    def _count_channel(self, args, result) -> None:
        nbytes = sum(op.nbytes for kset in result for op in kset.ops)
        self._peak("kraus_bytes", nbytes)
        parent = self._stack[-1] if self._stack else None
        if parent is not None and self.spans[parent].name == "measures.n_cp":
            # n_cp lifts every operator of both sets by an N-dim spectator.
            lifted = sum(
                (op.shape[0] * op.shape[0] // 2) ** 2 * _COMPLEX_BYTES
                for kset in result
                for op in kset.ops
            )
            self._peak("cp_lift_bytes", lifted)

    # ------------------------------------------------------------- summary

    def _durations(self) -> list[float]:
        return [s.end - s.start for s in self.spans]

    def total(self, *names: str) -> float:
        """Time inside any of ``names``, nested calls among them counted once."""
        wanted = set(names)
        dur = self._durations()
        out = 0.0
        for i, span in enumerate(self.spans):
            if span.name not in wanted:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name not in wanted:
                parent = self.spans[parent].parent
            if parent is None:
                out += dur[i]
        return out

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their child spans."""
        dur = self._durations()
        out = 0.0
        for i, span in enumerate(self.spans):
            if span.name == name:
                out += dur[i]
            if span.parent is not None and self.spans[span.parent].name == name:
                out -= dur[i]
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of :data:`LAYER_METRICS` over the recorded spans."""
        flop = self.counters.get("apply_flop", 0.0)
        useful = self.counters.get("apply_useful_flop", 0.0)
        return {
            "collision.apply_s": self.total("collision.apply_kraus"),
            "collision.apply_calls": self.calls("collision.apply_kraus"),
            "collision.apply_gflop": flop / 1e9,
            "collision.useful_flop_ratio": useful / flop if flop else 0.0,
            "collision.kraus_mb": self.counters.get("kraus_bytes", 0.0) / _MIB,
            "measures.cp_lift_mb": self.counters.get("cp_lift_bytes", 0.0) / _MIB,
            "grover.operator_s": self.total("grover.grover_operator"),
            "noise.chi_s": self.total("noise.build_chi", "noise.noisy_grover"),
            "collision.channel_build_s": self.total(
                "collision.channel_maps", "collision.kraus_step",
                "collision.dilation_unitary", "collision.thermal_kraus",
            ),
            "markov.evolve_s": self.total("markov.markov_evolve"),
            "markov.evolve_self_s": self.self_time("markov.markov_evolve"),
            "measures.blp_self_s": self.self_time("measures.n_blp"),
            "measures.cp_self_s": self.self_time("measures.n_cp"),
            "linalg.trace_distance_s": self.total("linalg.trace_distance"),
            "linalg.trace_distance_calls": self.calls("linalg.trace_distance"),
            "linalg.partial_trace_s": self.total("linalg.partial_trace"),
            "collision.verify_s": self.total("collision.verify_dilation"),
            "collision.factor_s": self.total("collision.extract_m"),
            "markov.oracle_s": self.total("markov.history_oracle"),
            "cli.run_self_s": self.self_time("cli.run"),
            "cli.emit_s": self.total("cli.emit"),
        }

    def dump(self) -> list[dict]:
        """The spans as plain records, parents given by index."""
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]
