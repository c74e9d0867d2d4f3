"""Ideal Grover search on n qubits, in explicit matrix form.

The walk operator is assembled directly from its action on the uniform
superposition |s> and the marked state |w>:

    G = -I + 2|s><s| - (4/sqrt(N))|s><w| + 2|w><w|

which equals the usual diffusion-times-oracle product (2|s><s| - I)(I - 2|w><w|).
It is written once, in :func:`reduced_grover_operator`: G on the whole
register, and on any smaller space that holds |s> and |w>, where the
simulator runs. The ideal success probability after t iterations has the
closed form sin^2((2t + 1) asin(1/sqrt(N))), used throughout the tests as
an oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GroverInstance:
    """A search instance: ``n`` qubits, one marked basis index.

    ``n >= 2`` for anything search-like; ``n = 1`` is accepted because all
    operators below remain well defined there. N = 2**n must be a finite
    float (n <= 1023), since 1/sqrt(N) enters every amplitude.
    """

    n: int
    marked: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        if self.n >= sys.float_info.max_exp:
            raise ValueError(
                f"N = 2^{self.n} is not a finite float; n must be below {sys.float_info.max_exp}"
            )
        if not 0 <= self.marked < self.N:
            raise ValueError(f"marked index {self.marked} outside [0, {self.N})")

    @property
    def N(self) -> int:
        """Search space dimension N = 2**n."""
        return 2 ** self.n


def uniform_superposition(inst: GroverInstance) -> np.ndarray:
    """|s>: every amplitude 1/sqrt(N)."""
    N = inst.N
    return np.full(N, 1.0 / math.sqrt(N), dtype=complex)


def marked_state(inst: GroverInstance) -> np.ndarray:
    """|w>: the marked computational basis vector."""
    w = np.zeros(inst.N, dtype=complex)
    w[inst.marked] = 1.0
    return w


def grover_operator(inst: GroverInstance) -> np.ndarray:
    """Dense N x N Grover iteration operator: :func:`reduced_grover_operator`
    on the whole register, as a complex matrix."""
    s = uniform_superposition(inst).real
    return reduced_grover_operator(s, inst.marked, inst.N).astype(complex)


def reduced_grover_operator(s: np.ndarray, w: int, N) -> np.ndarray:
    """G = -I + 2|s><s| - (4/sqrt(N))|s><w| + 2|w><w| at the size of the
    real vector ``s``, on a space that holds |s> and |w> = e_w and is
    invariant under G; the faulty iteration there is chi G. ``s`` may be a
    stack (..., D) of such vectors, with ``N`` one size or an array of its
    leading shape, and G is then the stack (..., D, D), each member bitwise
    the G of that member alone."""
    s = np.asarray(s)
    g = 2.0 * (s[..., :, None] * s[..., None, :]) - np.eye(s.shape[-1])
    g[..., :, w] -= np.expand_dims(4.0 / np.sqrt(np.asarray(N, dtype=float)), -1) * s
    g[..., w, w] += 2.0
    return g


def ideal_success_series(inst: GroverInstance, steps: int) -> np.ndarray:
    """P(t) = |<w| G^t |s>|^2 for t = 0..steps, by repeated multiplication.

    G acts on span{|w>, |s>}, so the walk runs there as 2 x 2
    (:func:`reduced_grover_operator` in the basis |w>, the normalized rest
    of |s>) and costs the same at any n; |w> is coordinate 0.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    N = inst.N
    v = np.sqrt([1 / N, (N - 1) / N])
    g = reduced_grover_operator(v, 0, N)
    out = np.empty(steps + 1, dtype=float)
    out[0] = abs(v[0]) ** 2
    for t in range(1, steps + 1):
        v = g @ v
        out[t] = abs(v[0]) ** 2
    return out


def ideal_success_closed_form(N: int, t: int) -> float:
    """Closed-form P(t) = sin^2((2t + 1) asin(1/sqrt(N)))."""
    return math.sin((2 * t + 1) * math.asin(1.0 / math.sqrt(N))) ** 2


def optimal_iterations(N: int) -> int:
    """floor((pi/4) sqrt(N)), the standard iteration count for N >= 4."""
    if N < 4:
        raise ValueError(f"search space too small: N={N}")
    return int(math.floor(math.pi / 4.0 * math.sqrt(N)))
