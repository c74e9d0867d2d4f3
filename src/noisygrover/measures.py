"""Discrete-time non-Markovianity witnesses for the collision dynamics.

Two standard measures, adapted to discrete steps: the trace-distance
(information backflow) measure over a fixed orthogonal state pair, and a
trace-norm divisibility witness on the traceless operator |s><s| - |w><w|
of the system alone (no spectator register). Both sum the positive
increments of their monitored series, so both are lower-bound witnesses: a
positive value certifies memory effects, a zero does not certify their
absence (no optimization over inputs is performed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .collision import ThermalBathParams, collision_evolve, transfer_weights
from .grover import GroverInstance, grover_operator, marked_state, uniform_superposition
from .linalg import (
    ComplexMatrix,
    InvariantViolation,
    projector,
    tensor,
    trace_distance,
    trace_norm,
)
from .markov import _PLUS, MarkovNoiseParams, _orbit_operators, markov_evolve
from .noise import NoiseSpec, build_chi, noisy_grover

# Increments below this threshold count as numerical noise, not backflow.
INCREMENT_TOL = 1e-12

# Slack allowed on the joint-state contraction sanity check.
_MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class StatePair:
    """Initial system-state pair monitored by the backflow measure."""

    rho1: ComplexMatrix
    rho2: ComplexMatrix


def blp_pair(inst: GroverInstance) -> StatePair:
    """The fixed pair: |s><s| and an orthogonal-support rank-N/2 state.

    rho2 = (1/N) [[I, -I], [-I, I]] (blocks of size N/2) has eigenvalue
    2/N on the span of |i> - |i + N/2>, which is orthogonal to |s>, so the
    pair starts at trace distance exactly 1.
    """
    N = inst.N
    rho2 = np.kron(
        np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex) / N,
        np.eye(N // 2, dtype=complex),
    )
    return StatePair(projector(uniform_superposition(inst)), rho2)


@dataclass(frozen=True)
class MeasureResult:
    """A witness value plus the monitored series it was summed from."""

    value: float
    series: np.ndarray
    horizon: int
    witness_only: bool = True
    meta: dict = field(default_factory=dict)


def positive_increment_sum(series: Sequence[float], threshold: float = INCREMENT_TOL) -> float:
    """Sum of forward increments exceeding ``threshold``."""
    arr = np.asarray(series, dtype=float)
    steps = np.diff(arr)
    return float(np.sum(steps[steps > threshold]))


def n_blp(
    inst: GroverInstance,
    spec: NoiseSpec,
    params: MarkovNoiseParams,
    steps: int,
    bath: Optional[ThermalBathParams] = None,
) -> MeasureResult:
    """Trace-distance backflow of the system marginal over the fixed pair.

    Both pair members ride the same collision channel (walker prepared in
    |+><+|); the witness sums positive increments of D(rho1_t, rho2_t).
    As a sanity invariant the *joint* walker+system trace distance must be
    non-increasing from t = 1 on (each later step is one fixed completely
    positive map); violation beyond slack raises
    :class:`~noisygrover.linalg.InvariantViolation`. The |s><s| member is
    ``markov_evolve``'s run, lifted to N x N; the rank-N/2 partner runs on
    the full N x N G, G'.
    """
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(inst.n, spec))
    traces = [
        markov_evolve(inst, spec, params, steps, bath=bath, keep_states=True, keep_joint=True),
        collision_evolve(
            g,
            gp,
            *transfer_weights(params, bath),
            tensor(projector(_PLUS), blp_pair(inst).rho2),
            steps,
            marked=inst.marked,
            keep_states=True,
            keep_joint=True,
        ),
    ]
    d_sys = np.array(
        [trace_distance(a, b) for a, b in zip(traces[0].states, traces[1].states)]
    )
    # From t = 1 on both joints are diag(sigma_0, sigma_1), so their
    # distance is the sum of the two label-block distances; r0 has walker
    # coherences and takes the full one.
    n_dim = inst.N
    joints = list(zip(traces[0].joint_states, traces[1].joint_states))
    d_joint = np.array(
        [trace_distance(*joints[0])]
        + [
            trace_distance(a[:n_dim, :n_dim], b[:n_dim, :n_dim])
            + trace_distance(a[n_dim:, n_dim:], b[n_dim:, n_dim:])
            for a, b in joints[1:]
        ]
    )
    for t in range(1, steps):
        if d_joint[t + 1] > d_joint[t] + _MONOTONE_SLACK:
            raise InvariantViolation(
                f"joint trace distance grew at step {t} -> {t + 1}: "
                f"{d_joint[t]:.12e} -> {d_joint[t + 1]:.12e}"
            )
    value = positive_increment_sum(d_sys)
    meta = {
        "p": params.p,
        "mu": params.mu,
        "temperature": bath.temperature if bath is not None else 0.0,
        "joint_series": d_joint,
    }
    return MeasureResult(value, d_sys, steps, witness_only=True, meta=meta)


def n_cp(
    inst: GroverInstance,
    spec: NoiseSpec,
    params: MarkovNoiseParams,
    steps: int,
) -> MeasureResult:
    """Trace-norm witness on the pair (|s>, |w>).

    X = |s><s| - |w><w| (uniform superposition minus marked state) rides
    the collision channel with the walker in |+><+|; monitored is half the
    trace norm of its system image, sqrt(1 - 1/N) at t = 0. No spectator
    register appears. A positive trace preserving map cannot raise the
    trace norm of a traceless operator, so any increase shows that the
    intermediate map from t to t + 1 is not positive: the dynamics is
    neither P- nor CP-divisible (the criterion of Rivas, Huelga and Plenio
    on this one operator). Pure-ancilla channel only. X lies in the span
    of the orbit basis V (:func:`~noisygrover.noise.orbit_basis`), so the
    run and its trace norms stay at d x d, with ||V s V^dagger||_1 = ||s||_1.
    """
    v, g, gp = _orbit_operators(inst, spec)
    s, w = (v.T @ vec for vec in (uniform_superposition(inst), marked_state(inst)))
    r0 = tensor(projector(_PLUS), projector(s) - projector(w))
    trace = collision_evolve(g, gp, *transfer_weights(params), r0, steps, keep_states=True)
    series = np.array([0.5 * trace_norm(state) for state in trace.states])
    value = positive_increment_sum(series)
    meta = {"p": params.p, "mu": params.mu}
    return MeasureResult(value, series, steps, witness_only=True, meta=meta)
