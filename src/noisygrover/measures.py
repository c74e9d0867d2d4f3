"""Discrete-time non-Markovianity witnesses for the collision dynamics.

Two standard measures, adapted to discrete steps: the trace-distance
(information backflow) measure over a fixed orthogonal state pair, and a
trace-norm divisibility witness on the traceless operator |s><s| - |w><w|
of the system alone (no spectator register). Both sum the positive
increments of their monitored series, so both are lower-bound witnesses: a
positive value certifies memory effects, a zero does not certify their
absence (no optimization over inputs is performed). Neither builds
anything of size N: the divisibility witness runs in the span of the orbit
basis of :func:`~noisygrover.noise.orbit_basis`, the backflow pair in
qubit 0 times that of the other n - 1 qubits, both with G, G' and |s>
built there from the Dicke-basis closed forms of
:func:`~noisygrover.markov._orbit_chi`. The channel is linear and a trace
distance depends only on the difference of its two states, so the
backflow pair runs once, as that difference; its part outside the space
is fixed by a trace (:func:`n_blp`). The N x d bases themselves
(:func:`_split_basis`) serve only as test references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .collision import ThermalBathParams, collision_evolve, transfer_weights
from .grover import GroverInstance, uniform_superposition
from .linalg import (
    ComplexMatrix,
    InvariantViolation,
    projector,
    tensor,
    trace_norm,
)
from .markov import _PLUS, MarkovNoiseParams, _dicke_operators, _grover_pair, _orbit_chi
from .noise import NoiseSpec, orbit_basis

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

    rho2 = (1/N) [[I, -I], [-I, I]] (blocks of size N/2), that is
    (I - X_0)/N (x) I_rest with X on qubit 0, has eigenvalue 2/N on the
    span of |i> - |i + N/2>, which is orthogonal to |s>, so the pair starts
    at trace distance exactly 1. These are the dense N x N forms;
    :func:`n_blp` runs the same pair without building them.
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


def _split_basis(inst: GroverInstance, spec: NoiseSpec) -> np.ndarray:
    """V_W = I_2 (x) V_rest: the N x 2 d_rest isometry onto W = C^2 (x) W_rest.

    W_rest is the span of the orbit basis of the other n - 1 qubits (marked
    index ``marked % (N/2)``, noisy positions p - 1 for p != 0), one vector
    when n = 1. W holds |s> and |w>, is invariant under G and G', and is
    closed under every operator on qubit 0; G is -I on its complement.
    """
    if any(p >= inst.n for p in spec.positions):
        raise ValueError(f"positions {spec.positions} exceed qubit count {inst.n}")
    if inst.n == 1:
        return np.eye(2)
    rest = GroverInstance(inst.n - 1, inst.marked % (inst.N // 2))
    rest_spec = NoiseSpec(spec.u, tuple(p - 1 for p in spec.positions if p))
    return np.kron(np.eye(2), orbit_basis(rest, rest_spec))


def _split_operators(
    inst: GroverInstance, spec: NoiseSpec
) -> tuple[np.ndarray, ComplexMatrix, np.ndarray]:
    """(G, G', |s>) on W = C^2 (x) W_rest in the basis of :func:`_split_basis`,
    from scalars only: chi is u on qubit 0 when it is noisy (else I_2)
    times the Dicke-basis chi of the other n - 1 qubits
    (:func:`~noisygrover.markov._orbit_chi`), |s> = |+> (x) |s_rest>, and
    |w> = |b_0> (x) |w_rest> with b_0 the marked index's qubit-0 bit.
    """
    half = inst.N // 2
    u = spec.u.matrix
    chi, s = _orbit_chi(
        inst.n - 1, inst.marked % half, u, tuple(p - 1 for p in spec.positions if p)
    )
    chi = np.kron(u if 0 in spec.positions else np.eye(2), chi)
    s = np.kron(_PLUS.real, s)
    return (*_grover_pair(s, (inst.marked // half) * (s.size // 2), chi, inst.N), s)


def _half_norm(x: ComplexMatrix) -> float:
    """1/2 (||x||_1 + tr x) of a Hermitian matrix x."""
    return 0.5 * (trace_norm(x) + float(np.trace(x).real))


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
    :class:`~noisygrover.linalg.InvariantViolation`.

    The channel is linear and D(a, b) depends only on a - b, so one run
    carries |+><+| (x) delta, delta = rho1 - rho2. G and G' are block
    diagonal on W (+) W_perp (:func:`_split_basis`), and so is rho2 =
    (I - X_0)/N (x) I_rest, with W_perp = C^2 (x) W_rest_perp; |s><s| lies
    in W. So the run stays on W, with G, G' and |s> from
    :func:`_split_operators`, and nothing of size N is formed. On W_perp
    each label block delta_r is minus the partner's positive part there;
    both members share their label populations, so delta_r is traceless
    and ||delta_r||_1 = ||delta_r,W||_1 + tr delta_r,W. Every distance is
    thus 1/2 (||x||_1 + tr x) of an x on W: the system state for the
    witness series, the two label blocks summed for the joint series (at
    t = 0 both are delta / 2). ``meta["dim"]`` is dim W, which depends on m
    and not on n; ``meta["joint_slack"]`` is the smallest drop of the
    joint series from t = 1 on (infinite when ``steps`` < 2).
    """
    if any(p >= inst.n for p in spec.positions):
        raise ValueError(f"positions {spec.positions} exceed qubit count {inst.n}")
    g, gp, s = _split_operators(inst, spec)
    dim = s.size
    i_minus_x = np.array([[1.0, -1.0], [-1.0, 1.0]]) / inst.N  # (I - X)/N on qubit 0
    delta = projector(s) - np.kron(i_minus_x, np.eye(dim // 2))
    run = collision_evolve(
        g, gp, *transfer_weights(params, bath), tensor(projector(_PLUS), delta), steps,
        keep_states=True, keep_joint=True,
    )
    d_sys = np.array([_half_norm(x) for x in run.states])
    d_joint = np.array(
        [_half_norm(j[:dim, :dim]) + _half_norm(j[dim:, dim:]) for j in run.joint_states]
    )
    drops = d_joint[1:-1] - d_joint[2:]
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
        "dim": dim,
        "joint_slack": float(drops.min()) if drops.size else math.inf,
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
    run and its trace norms stay at d x d, with ||V s V^dagger||_1 = ||s||_1;
    G, G' and |s> come from the closed forms, and V is never built.
    """
    g, gp, s = _dicke_operators(inst.n, inst.marked, spec.u.matrix, spec.positions)
    w = np.eye(s.size)[0]
    r0 = tensor(projector(_PLUS), projector(s) - projector(w))
    trace = collision_evolve(g, gp, *transfer_weights(params), r0, steps, keep_states=True)
    series = np.array([_half_norm(state) for state in trace.states])
    value = positive_increment_sum(series)
    meta = {"p": params.p, "mu": params.mu}
    return MeasureResult(value, series, steps, witness_only=True, meta=meta)
