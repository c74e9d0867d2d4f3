"""Discrete-time non-Markovianity witnesses for the collision dynamics.

Two standard measures, adapted to discrete steps: the trace-distance
(information backflow) measure over a fixed orthogonal state pair, and a
trace-norm divisibility witness on the traceless operator |s><s| - |w><w|
of the system alone (no spectator register). Both sum the positive
increments of their monitored series, so both are lower-bound witnesses: a
positive value certifies memory effects, a zero does not certify their
absence (no optimization over inputs is performed). Neither builds
anything of size N: both run on the weight basis of
:mod:`~noisygrover.noise` (:func:`~noisygrover.noise._weight_system`),
the one the success tables run on, whose dimension is set by the number m
of noisy qubits alone. The divisibility witness runs in the span of
P_j |s> and P_j |w>, of dimension d' <= 2(m + 1); the backflow pair in
qubit 0 times that span of the other n - 1 qubits, of dimension
2 d'_rest. The channel is linear and a trace distance depends only on the
difference of its two states, so the backflow pair runs once, as that
difference; its part outside the space is fixed by a trace
(:func:`n_blp`). The step loop keeps label blocks only, at that
dimension, and each witness reads its states off them.

Both witnesses take one (p, mu) point or a sequence of them. A sequence
shares G, G' and the bath, so it runs as batched
:func:`~noisygrover.collision.collision_evolve` calls, and every result
gets the batch axis in front. The points go in runs whose kept blocks
hold at most ``collision._BATCH_ENTRIES`` entries (one point at least,
:func:`~noisygrover.collision._chunks`), so memory follows a run and not
the whole grid; each run is one step loop, and reads all of its
distances, for every step and member, through one stacked
:func:`~noisygrover.linalg.trace_norm`: one hermiticity pass and one
``eigvalsh``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .collision import ThermalBathParams, _chunks, _points, collision_evolve, transfer_weights
from .grover import GroverInstance, reduced_grover_operator
from .linalg import ComplexMatrix, InvariantViolation, projector, trace_norm
from .markov import _PLUS, _label_start
from .noise import MarkovNoiseParams, NoiseSpec, _eigen_frame, _weight_system

# Increments below this threshold count as numerical noise, not backflow.
INCREMENT_TOL = 1e-12

# Slack allowed on the joint-state contraction sanity check.
_MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class MeasureResult:
    """A witness value plus the monitored series it was summed from; for a
    batch of B points, ``value`` is (B,) and ``series`` (B, steps + 1)."""

    value: float | np.ndarray
    series: np.ndarray
    meta: dict = field(default_factory=dict)


def positive_increment_sum(series: Sequence[float]) -> float:
    """Sum of forward increments exceeding ``INCREMENT_TOL``. A non-finite entry
    raises ``ValueError``: a NaN increment would otherwise drop out of the
    sum unseen."""
    arr = np.asarray(series, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"series is not finite: {arr}")
    steps = np.diff(arr)
    return float(np.sum(steps[steps > INCREMENT_TOL]))


def _split_operators(
    inst: GroverInstance, spec: NoiseSpec
) -> tuple[np.ndarray, ComplexMatrix, np.ndarray]:
    """(G, G', |s>) on W = C^2 (x) W_rest in the basis I_2 (x) B_rest, B_rest
    the weight basis of the other n - 1 qubits (at their own m, the noisy
    positions but qubit 0; one vector when n = 1), so dim W = 2 d'_rest.
    W holds |s> and |w>, is invariant under G and G' and closed under every
    operator on qubit 0. From scalars only: chi is u on qubit 0 when it is
    noisy (else I_2), as V diag(l0, l1) V^dagger from its eigen frame
    (:func:`~noisygrover.noise._eigen_frame`) like on every other path,
    times the weight-basis chi of the other n - 1 qubits
    (:func:`~noisygrover.noise._weight_system`), |s> = |+> (x) |s_rest>,
    and |w> = |b_0> (x) |w_rest> with b_0 the marked index's qubit-0 bit.
    """
    half = inst.N // 2
    chi, _, _, s = _weight_system(
        inst.n - 1, inst.marked % half, spec.u, tuple(p - 1 for p in spec.positions if p)
    )
    eigenvalues, _, z, zf = _eigen_frame(spec.u)
    v = np.conj([z, zf])  # V: z and z' are the rows of V^dagger
    chi = np.kron((v * eigenvalues) @ v.conj().T if 0 in spec.positions else np.eye(2), chi)
    s = np.kron(_PLUS.real, s)
    g = reduced_grover_operator(s, (inst.marked // half) * (s.size // 2), inst.N)
    return g, chi @ g, s


def _half_norm(x: ComplexMatrix) -> float | np.ndarray:
    """1/2 (||x||_1 + tr x) of a Hermitian matrix x, or of each member of a
    stack (..., d, d): a float or an array, as :func:`trace_norm` gives."""
    return 0.5 * (trace_norm(x) + np.trace(x, axis1=-2, axis2=-1).real)


def _require_finite(blocks: np.ndarray, points: list[MarkovNoiseParams]) -> None:
    """Raise :class:`InvariantViolation` at the first member and step whose
    label blocks, a stack (B, steps + 1, 2, d, d), are not all finite."""
    bad = ~np.isfinite(blocks).all(axis=(-3, -2, -1))
    if bad.any():
        member, t = np.argwhere(bad)[0]
        point = points[member]
        raise InvariantViolation(
            f"state is not finite at p={point.p:.15g} mu={point.mu:.15g}, step {t}"
        )


def _kept_blocks(g, gp, first, steady, sigma0, steps: int, points: list[MarkovNoiseParams]):
    """The label blocks, (B, steps + 1, 2, d, d), of each run of ``points``
    in turn, from one :func:`collision_evolve` per run over the run's
    slices of ``first`` and ``steady``, stacks (len(points), 2, 2, 2). A
    run holds at most ``_BATCH_ENTRIES`` kept entries, (steps + 1) 2 d^2
    per point, and one point at least
    (:func:`~noisygrover.collision._chunks`). Each run is checked by
    :func:`_require_finite`."""
    entries = 2 * (steps + 1) * sigma0.shape[-1] ** 2
    for run in _chunks(itertools.repeat(entries, len(points))):
        blocks = collision_evolve(
            g, gp, first[run], steady[run], sigma0, steps, keep_blocks=True
        ).blocks
        _require_finite(blocks, points[run])
        yield blocks


def _measure(
    params: MarkovNoiseParams | Sequence[MarkovNoiseParams],
    series: np.ndarray,
    **meta,
) -> MeasureResult:
    """The witness of a batched run of ``params``: the positive increment
    sum of each row of ``series``, batch axis in front. For one
    MarkovNoiseParams it is the batch's one member, with floats where the
    batch has a (B,) array."""
    values = np.array([positive_increment_sum(row) for row in series])
    if isinstance(params, MarkovNoiseParams):

        def member(x):
            return float(x[0]) if x.ndim == 1 else x[0]

        values, series = member(values), member(series)
        meta = {k: member(v) if isinstance(v, np.ndarray) else v for k, v in meta.items()}
    return MeasureResult(values, series, meta=meta)


def n_blp(
    inst: GroverInstance,
    spec: NoiseSpec,
    params: MarkovNoiseParams | Sequence[MarkovNoiseParams],
    steps: int,
    bath: Optional[ThermalBathParams] = None,
) -> MeasureResult:
    """Trace-distance backflow of the system marginal over the fixed pair.

    Both pair members ride the same collision channel (walker prepared in
    |+><+|); the witness sums positive increments of D(rho1_t, rho2_t).
    As a sanity invariant the *joint* walker+system trace distance must be
    non-increasing from t = 1 on (each later step is one fixed completely
    positive map); violation beyond slack raises
    :class:`~noisygrover.linalg.InvariantViolation`, as does a run whose
    states are not finite. Both messages name the (p, mu) point and step.

    The channel is linear and D(a, b) depends only on a - b, so one run
    carries |+><+| (x) delta, delta = rho1 - rho2, as the label blocks
    (delta / 2, delta / 2) it starts with. G and G' are block
    diagonal on W (+) W_perp (:func:`_split_operators`), and so is rho2 =
    (I - X_0)/N (x) I_rest, with W_perp = C^2 (x) W_rest_perp; |s><s| lies
    in W. So the run stays on W, with G, G' and |s> from
    :func:`_split_operators`, and nothing of size N is formed. On W_perp
    each label block delta_r is minus the partner's positive part there;
    both members share their label populations, so delta_r is traceless
    and ||delta_r||_1 = ||delta_r,W||_1 + tr delta_r,W. Every distance is
    thus 1/2 (||x||_1 + tr x) of an x on W, read off the label blocks
    that :func:`collision_evolve` keeps: their sum, the system state, for
    the witness series, and each block on its own for the joint series,
    the sum of the two block distances (at t = 0 that is D(rho1, rho2),
    the distance of the two joint starts; from t = 1 on the joint is
    diag(delta_0, delta_1)). All of them, for every step and member of a
    run, go through one stacked :func:`~noisygrover.linalg.trace_norm`.

    ``params`` is one (p, mu) point or a sequence of them. A sequence runs
    as batched :func:`collision_evolve` calls over the stacked transfer
    tensors, one per run of points (:func:`_kept_blocks`), and the batch
    axis B comes first: ``value`` (B,), ``series`` and
    ``meta["joint_series"]`` (B, steps + 1) and ``meta["joint_slack"]``
    (B,); one point gives floats and (steps + 1,) series. ``meta["dim"]``
    is dim W = 2 d'_rest, twice the weight-basis dimension of the other
    n - 1 qubits, which the number of noisy qubits among them sets and n
    does not (2(m_rest + 1) when some of them are clean);
    ``meta["joint_slack"]`` is the smallest drop of the joint series from
    t = 1 on (infinite when ``steps`` < 2).
    """
    if any(p >= inst.n for p in spec.positions):
        raise ValueError(f"positions {spec.positions} exceed qubit count {inst.n}")
    points = _points(params)
    first, steady = transfer_weights(points, bath)
    g, gp, s = _split_operators(inst, spec)
    dim = s.size
    i_minus_x = np.array([[1.0, -1.0], [-1.0, 1.0]]) / inst.N  # (I - X)/N on qubit 0
    delta = projector(s) - np.kron(i_minus_x, np.eye(dim // 2))
    sigma0 = _label_start(delta)
    # (3, B, steps + 1) per run: system states, then both label blocks.
    d_sys, upper, lower = np.concatenate([
        _half_norm(np.stack((blocks.sum(axis=-3), blocks[..., 0, :, :], blocks[..., 1, :, :])))
        for blocks in _kept_blocks(g, gp, first, steady, sigma0, steps, points)
    ], axis=1)
    d_joint = upper + lower
    grew = d_joint[:, 2:] > d_joint[:, 1:-1] + _MONOTONE_SLACK
    if grew.any():
        member, t = np.argwhere(grew)[0] + (0, 1)
        point = points[member]
        raise InvariantViolation(
            f"joint trace distance grew at p={point.p:.15g} mu={point.mu:.15g}, "
            f"step {t} -> {t + 1}: {d_joint[member, t]:.12e} -> {d_joint[member, t + 1]:.12e}"
        )
    return _measure(
        params, d_sys,
        joint_series=d_joint,
        dim=dim,
        joint_slack=np.min(d_joint[:, 1:-1] - d_joint[:, 2:], axis=-1, initial=math.inf),
    )


def n_cp(
    inst: GroverInstance,
    spec: NoiseSpec,
    params: MarkovNoiseParams | Sequence[MarkovNoiseParams],
    steps: int,
) -> MeasureResult:
    """Trace-norm witness on the pair (|s>, |w>).

    X = |s><s| - |w><w| (uniform superposition minus marked state) rides
    the collision channel with the walker in |+><+|, that is from the label
    blocks (X / 2, X / 2); monitored is half the
    trace norm of its system image, sqrt(1 - 1/N) at t = 0. No spectator
    register appears. A positive trace preserving map cannot raise the
    trace norm of a traceless operator, so any increase shows that the
    intermediate map from t to t + 1 is not positive: the dynamics is
    neither P- nor CP-divisible (the criterion of Rivas, Huelga and Plenio
    on this one operator). Pure-ancilla channel only. X lies in span{s, w},
    inside the weight basis B (:func:`~noisygrover.noise._weight_system`),
    so the run and its trace norms stay at d' x d', d' <= 2(m + 1), with
    ||B x B^dagger||_1 = ||x||_1; G, G' and |s> come from closed forms,
    and B is never built.

    ``params`` is one (p, mu) point or a sequence of them; a sequence runs
    as batched :func:`collision_evolve` calls, one per run of points
    (:func:`_kept_blocks`), and ``value`` (B,) and ``series``
    (B, steps + 1) get the batch axis in front; ``meta`` is empty (the
    run's dimension is d', which ``collision_evolve`` reports as its
    ``meta["dim"]``). The system states are the sums sigma_0 + sigma_1 of
    the label blocks that :func:`collision_evolve` keeps, and every one of
    every member of a run goes through one stacked
    :func:`~noisygrover.linalg.trace_norm`. A run whose states are
    not finite raises :class:`~noisygrover.linalg.InvariantViolation`
    naming the (p, mu) point and step.
    """
    points = _points(params)
    first, steady = transfer_weights(points)
    _, g, gp, s = _weight_system(inst.n, inst.marked, spec.u, spec.positions)
    w = np.eye(s.size)[0]
    sigma0 = _label_start(projector(s) - projector(w))
    return _measure(params, np.concatenate([
        _half_norm(blocks.sum(axis=-3))
        for blocks in _kept_blocks(g, gp, first, steady, sigma0, steps, points)
    ]))
