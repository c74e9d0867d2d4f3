"""Time-correlated (Markovian) switching between clean and faulty iterations.

Each time step applies either the clean operator G or the faulty one
G' = chi G, chosen by the label chain of :class:`MarkovNoiseParams`:
stationary distribution (1 - p, p) over {g, g'} and memory mu, so mu = 0
is i.i.d. noise and mu = 1 freezes the first draw forever ("perfect
memory"). Instead of sampling, the chain is carried exactly: a classical
walker qubit (index 0 = g, 1 = g') is adjoined to the system, the joint
state starts as |+><+| (x) |s><s|, and every step is the exact completely
positive map that applies G on the g branch, G' on the g' branch, and
mixes branch populations with the conditional probabilities. The success
probability is read off the system marginal at the marked index. All of
this runs at d x d in the orbit space of :mod:`~noisygrover.noise`, with
the G, G' and |s> that ``noise`` builds there, so nothing of size 2^n is
formed unless states are kept. :func:`markov_series` runs many (p, mu)
points of one system as one batched step loop, and
:func:`markov_first_max` reads where each point's first maximum falls
from the same loop, stopped once every point has passed it. Both are the
one-system case of :func:`_table`, which takes the systems of a table
(the position classes of ``invariance``, the n list of ``firstmax``, the
m list of ``noisy``), groups them by the d that ``noise`` gives each,
shares their transfer weights, and runs one step loop per distinct d
over the systems of that d, each with its own G, G' and start, stacked
against the points.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .collision import EvolutionTrace, collision_evolve, collision_first_max, transfer_weights
from .grover import GroverInstance, grover_operator, uniform_superposition
from .linalg import ComplexMatrix, dagger, projector, require_density, tensor
from .noise import (  # noqa: F401 (ConditionalProbs: the chain law stays bound here)
    ConditionalProbs, MarkovNoiseParams, NoiseSpec, _dicke_operators, _orbit_dicke, build_chi,
    conditional_probs, noisy_grover, orbit_basis,
)

# Largest horizon the explicit history sum accepts; its cost is 2**(steps + 1) - 2
# conjugations.
HISTORY_MAX_STEPS = 12

_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def initial_joint_state(inst: GroverInstance) -> ComplexMatrix:
    """R_0 = |+><+| on the walker (x) |s><s| on the system (2N x 2N), the
    dense start of the Kraus verification layer; the step loop takes its
    label blocks (:func:`_label_start`)."""
    return tensor(projector(_PLUS), projector(uniform_superposition(inst)))


def _label_start(rho: ComplexMatrix) -> np.ndarray:
    """The label blocks (..., 2, d, d) of |+><+| (x) rho, for rho (..., d, d):
    each walker population of projector(_PLUS), 0.4999999999999999 and not
    0.5, times rho, the products that the Kronecker product forms."""
    return np.diagonal(projector(_PLUS))[:, None, None] * rho[..., None, :, :]


def _table_groups(
    systems: Sequence[tuple[GroverInstance, NoiseSpec]],
    params_seq: Sequence[MarkovNoiseParams],
    bath,
) -> tuple[list[list[int]], list[tuple]]:
    """Set up one table of ``systems``, (inst, spec) pairs that share the
    (p, mu) points ``params_seq`` and ``bath``, as one step loop per
    distinct d. One ``transfer_weights`` call and one
    :func:`~noisygrover.noise._orbit_dicke` call, which checks every
    position set before any step runs, serve the whole table. The systems
    are grouped by the d it gives, in order of first appearance, never
    padded. Returns each group's system indices and its work item for
    :func:`_group_inputs`: the group's systems with their Dicke pairs, and
    the weights."""
    first, steady = transfer_weights(params_seq, bath)
    groups: dict[int, list] = {}
    for i, ((inst, spec), (d, dicke)) in enumerate(zip(systems, _orbit_dicke(systems))):
        groups.setdefault(d, []).append((i, (inst, spec, dicke)))
    members = [[i for i, _ in group] for group in groups.values()]
    return members, [([item for _, item in group], first, steady) for group in groups.values()]


def _group_inputs(group) -> tuple:
    """(G, G', first, steady, sigma0) of one d-group of :func:`_table_groups`
    for the step loop: G and G' stacked (S, 1, d, d) and the label blocks
    of |+><+| (x) |s><s| (S, 1, 2, d, d) over the group's S systems, and
    the (P, 2, 2, 2) transfer tensors of the table's P points, so the
    batch is (S, P) and neither side is copied along the other's axis."""
    systems, first, steady = group
    g, gp, s = zip(*(
        _dicke_operators(inst.n, inst.marked, spec.u.matrix, spec.positions, dicke)
        for inst, spec, dicke in systems
    ))
    s = np.stack(s).astype(complex)  # |s><s| below is what projector() forms
    sigma0 = _label_start(s[:, :, None] * s.conj()[:, None, :])
    return (*(np.stack(part)[:, None] for part in (g, gp)), first, steady, sigma0[:, None])


def _group_series(group, steps: int) -> tuple[np.ndarray]:
    """(success series (S, P, steps + 1),) of one d-group."""
    return (collision_evolve(*_group_inputs(group), steps).probabilities,)


def _group_first_max(group, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(t*, P*), each (S, P), of one d-group."""
    return collision_first_max(*_group_inputs(group), steps)


def _table(
    read,
    systems: Sequence[tuple[GroverInstance, NoiseSpec]],
    params_seq: Sequence[MarkovNoiseParams],
    steps: int,
    bath=None,
    mapper=map,
) -> tuple[np.ndarray, ...]:
    """Run ``read`` (:func:`_group_series` or :func:`_group_first_max`) over
    the d-groups of :func:`_table_groups`, one step loop each, and give its
    arrays with the systems axis in ``systems`` order in front: (S, P,
    steps + 1) series, or (S, P) t* and P*. ``mapper(worker, items)``
    hands the groups out, ``map`` by default; every check of
    :func:`_table_groups` has run before it is called."""
    members, groups = _table_groups(systems, params_seq, bath)
    out = None
    for index, result in zip(members, mapper(functools.partial(read, steps=steps), groups)):
        if out is None:
            out = tuple(np.empty((len(systems),) + part.shape[1:], part.dtype) for part in result)
        for whole, part in zip(out, result):
            whole[index] = part
    return out


def markov_series(
    inst: GroverInstance,
    spec: NoiseSpec,
    params_seq: Sequence[MarkovNoiseParams],
    steps: int,
    bath=None,
) -> np.ndarray:
    """Success probabilities for every (p, mu) point of ``params_seq`` at
    once, shape (len(params_seq), steps + 1); row b equals
    ``markov_evolve(inst, spec, params_seq[b], steps, bath).probabilities``.

    The points share G, G' and the start, so they run as one batched step
    loop over their transfer tensors (:func:`collision_evolve`). This is
    the one-system case of the tables that run many systems, one step loop
    per distinct d (:func:`_table`). An empty ``params_seq`` raises
    ``ValueError``.
    """
    return _table(_group_series, [(inst, spec)], params_seq, steps, bath)[0][0]


def markov_first_max(
    inst: GroverInstance,
    spec: NoiseSpec,
    params_seq: Sequence[MarkovNoiseParams],
    steps: int,
    bath=None,
) -> tuple[np.ndarray, np.ndarray]:
    """(t*, P*), each of shape (len(params_seq),), of the first success
    maximum of every (p, mu) point of ``params_seq`` within ``steps`` steps.

    t* is the first t >= 1 with P(t) >= P(t - 1) and P(t) >= P(t + 1); a
    point with none takes the argmax over 0..``steps`` (NaN as in
    ``np.argmax``), and P* = P(t*), where P is the row of
    :func:`markov_series` with the same arguments. The batch is the same
    one step loop, stopped once every point has passed its first maximum
    (:func:`~noisygrover.collision.collision_first_max`), so its cost
    follows the largest t* and not ``steps``. It is the one-system case of
    :func:`_table`. An empty ``params_seq`` raises ``ValueError``.
    """
    t_star, p_star = _table(_group_first_max, [(inst, spec)], params_seq, steps, bath)
    return t_star[0], p_star[0]


def markov_evolve(
    inst: GroverInstance,
    spec: NoiseSpec,
    params: MarkovNoiseParams,
    steps: int,
    bath=None,
    keep_states: bool = False,
    validate: bool = False,
) -> EvolutionTrace:
    """Evolve the joint walker+system state for ``steps`` collisions.

    The first step uses the stationary label distribution, later steps the
    conditional one. With ``bath`` (a ``ThermalBathParams``) the walker is
    refreshed each step from thermal two-qubit ancillas instead of pure
    ones; ``bath=None`` is the zero-temperature (pure) construction.

    This is :func:`markov_series` for the one point ``params``, at d x d in
    the span of the orbit basis V (:func:`orbit_basis`), where d, the
    dimension that :mod:`~noisygrover.noise` gives the system, is
    ``meta["dim"]``. The loop starts from the label blocks of |+><+| (x) |s><s|, and the flags
    have it keep its blocks sigma_0, sigma_1. ``keep_states`` lifts
    V (sigma_0 + sigma_1) V^dagger to N x N; V is built only for this lift.
    ``validate`` checks, once after the run, every step's blocks from t = 0
    on at 1e-9 (an isometry keeps trace, hermiticity and the nonzero
    spectrum; at t = 0 that is all the loop reads of the start) and raises
    :class:`InvariantViolation` at the first bad step.
    """
    _, (group,) = _table_groups([(inst, spec)], [params], bath)
    g, gp, first, steady, sigma0 = _group_inputs(group)
    keep = keep_states or validate
    # The group's one system: a batch (1,) of the one point.
    run = collision_evolve(g[0], gp[0], first, steady, sigma0[0], steps, keep_blocks=keep)
    states = None
    if validate:
        require_density(run.blocks[0], 1e-9, what="joint state t={}", blocks=True)
    if keep_states:
        v = orbit_basis(inst, spec)
        states = tuple(v @ rho @ v.T for rho in run.blocks[0].sum(axis=1))
    return EvolutionTrace(run.probabilities[0], states, run.meta)


def history_oracle(
    inst: GroverInstance,
    spec: NoiseSpec,
    params: MarkovNoiseParams,
    steps: int,
) -> EvolutionTrace:
    """Success probabilities by explicit sum over all 2**t label histories.

    Exponential-cost reference implementation: each history (k_1 .. k_t)
    contributes its chain probability times the corresponding pure
    evolution, for every t <= ``steps``. Used to validate the collision
    construction; refuses steps > ``HISTORY_MAX_STEPS``.

    The histories form a binary tree walked depth first: a node conjugates
    its parent's state by G or G' and multiplies its parent's weight by one
    chain probability, so each prefix is evaluated once. The tree has
    2**(steps + 1) - 1 nodes and every node but the root |s><s| costs one
    conjugation; besides the ``steps`` + 1 sums, only the ``steps`` + 1
    states on the current path are alive at any time. A subtree whose
    prefix weight is 0 is skipped. Preorder meets the histories of each
    length in lexicographic order, so every state is summed in the same
    order and from the same products as one history at a time would give.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps > HISTORY_MAX_STEPS:
        raise ValueError(f"history sum over 2^{steps} branches refused (cap {HISTORY_MAX_STEPS})")
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(inst.n, spec))
    ops = tuple((op, dagger(op)) for op in (g, gp))
    cond = conditional_probs(params)
    trans = {
        (0, 0): cond.g_given_g,
        (1, 0): cond.gp_given_g,
        (0, 1): cond.g_given_gp,
        (1, 1): cond.gp_given_gp,
    }
    first = (params.p_g, params.p_gp)
    rho0 = projector(uniform_superposition(inst))
    acc = np.zeros((steps + 1,) + rho0.shape, dtype=complex)
    acc[0] = rho0

    def visit(t: int, k: int, weight: float, parent: ComplexMatrix) -> None:
        # node k_t of a history whose prefix has weight ``weight`` and state ``parent``
        if weight == 0.0:
            return
        op, op_dag = ops[k]
        state = op @ parent @ op_dag
        acc[t] += weight * state
        if t < steps:
            for nxt in (0, 1):
                visit(t + 1, nxt, weight * trans[(nxt, k)], state)

    if steps:
        for k in (0, 1):
            visit(1, k, first[k], rho0)
    probs = np.array([a[inst.marked, inst.marked].real for a in acc])
    return EvolutionTrace(probs, states=tuple(acc), meta={"method": "history"})


def perfect_memory_analytic(N: int, t: float) -> float:
    """Success probability under an always-faulty walk, full bit-flip noise.

    For G' = sigma_x^(x n) G started from |s>, with theta = arccos(2/N):

        P(t) = (1/N) cos^2(theta t) (tan(theta/2) tan(theta t) - 1)^2
             = (1/N) (tan(theta/2) sin(theta t) - cos(theta t))^2

    The second form is evaluated (no tangent poles) and t may be real,
    which is what :func:`perfect_memory_first_max` interpolates.
    """
    theta = math.acos(2.0 / N)
    x = theta * t
    return (math.tan(theta / 2.0) * math.sin(x) - math.cos(x)) ** 2 / N


def perfect_memory_first_max(N: int) -> float:
    """Location of the first maximum of the curve above: pi/theta - 1/2."""
    theta = math.acos(2.0 / N)
    return math.pi / theta - 0.5
