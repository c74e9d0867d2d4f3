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
probability is read off the system marginal at the marked index. Nothing
of size 2^n is formed: every path runs on the weight basis that
:mod:`~noisygrover.noise` builds from scalars, of dimension
d' <= 2(m + 1) whatever q and n are, with |w> as index 0.

:func:`markov_evolve` runs one system at one point from its
:func:`~noisygrover.noise._weight_system` and keeps every step's label
blocks. :func:`history_oracle`, the explicit sum over label histories
that checks it, takes G, G' and |s> of any size D. The success tables keep
no blocks: :func:`markov_series` runs many (p, mu) points of one system as
one batched step loop, and :func:`markov_first_max` reads where each
point's first maximum falls from the same loop, stopped once every point
has passed it. Both are the one-system case of :func:`_table`, which takes
the systems of a table (the position classes of ``invariance``, the n list
of ``firstmax``, the m list of ``noisy``), groups them by d', shares their
transfer weights and each distinct u's eigen frame, and runs one step
loop per distinct d' over the systems of that d', each with its own G, G'
and start (:func:`~noisygrover.noise._weight_operators`), stacked against
the points. A row of :func:`markov_series` is the series of
:func:`markov_evolve` at that point, bit for bit.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .collision import (
    _BATCH_ENTRIES, EvolutionTrace, collision_evolve, collision_first_max, transfer_weights,
)
from .grover import GroverInstance
from .linalg import ComplexMatrix, projector, require_density
from .noise import (
    MarkovNoiseParams,
    NoiseSpec,
    _eigen_frame,
    _weight_class,
    _weight_coordinates,
    _weight_operators,
    _weight_system,
    conditional_probs,
)

# Largest horizon the explicit history sum accepts; its cost is 2**(steps + 1) - 2
# matrix-vector products and as many rank-one terms.
HISTORY_MAX_STEPS = 12

_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


# The walker populations of projector(_PLUS), 0.4999999999999999 and not 0.5.
_POPULATIONS = np.diagonal(projector(_PLUS))[:, None, None]


def _label_start(rho: ComplexMatrix) -> np.ndarray:
    """The label blocks (..., 2, d, d) of |+><+| (x) rho, for rho (..., d, d):
    each walker population of projector(_PLUS) times rho, the products that
    the Kronecker product forms."""
    return _POPULATIONS * rho[..., None, :, :]


def _table_groups(
    systems: Sequence[tuple[GroverInstance, NoiseSpec]],
    params_seq: Sequence[MarkovNoiseParams],
    bath,
) -> tuple[list[list[int]], list[tuple]]:
    """Set up one table of ``systems``, (inst, spec) pairs that share the
    (p, mu) points ``params_seq`` and ``bath``, as one step loop per
    distinct dimension d' of the weight basis.
    Every position set is checked (:func:`~noisygrover.noise._weight_class`)
    before any step runs; one ``transfer_weights`` call serves the whole
    table, and one :func:`~noisygrover.noise._eigen_frame` each distinct u.
    The systems are grouped by d', in order of first appearance, never
    padded. Returns each group's system indices and its work item for
    :func:`_group_inputs`: each system's
    :func:`~noisygrover.noise._weight_coordinates`, and the weights."""
    first, steady = transfer_weights(params_seq, bath)
    frames: dict = {}
    groups: dict[int, list] = {}
    for i, (inst, spec) in enumerate(systems):
        m, q, d = _weight_class(inst.n, inst.marked, spec.positions)
        if spec.u not in frames:
            frames[spec.u] = _eigen_frame(spec.u)
        groups.setdefault(d, []).append((i, _weight_coordinates(inst.n, m, q, frames[spec.u])))
    members = [[i for i, _ in group] for group in groups.values()]
    return members, [([item for _, item in group], first, steady) for group in groups.values()]


def _group_inputs(group) -> tuple:
    """(G, G', first, steady, sigma0) of one d'-group of :func:`_table_groups`
    for the step loop: G and G' stacked (S, 1, d', d') and the label blocks
    of |+><+| (x) |s><s| (S, 1, 2, d', d') over the group's S systems
    (:func:`~noisygrover.noise._weight_operators`), and the (P, 2, 2, 2)
    transfer tensors of the table's P points, so the batch is (S, P) and
    neither side is copied along the other's axis."""
    coordinates, first, steady = group
    _, g, gp, s = _weight_operators(coordinates)
    s = s.astype(complex)
    sigma0 = _label_start(s[:, :, None] * s.conj()[:, None, :])
    return g.astype(complex)[:, None], gp[:, None], first, steady, sigma0[:, None]


def _group_series(group, steps: int) -> tuple[np.ndarray]:
    """(success series (S, P, steps + 1),) of one d'-group."""
    return (collision_evolve(*_group_inputs(group), steps).probabilities,)


def _group_first_max(group, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(t*, P*), each (S, P), of one d'-group."""
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
    the d'-groups of :func:`_table_groups`, one step loop each, and give its
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
    once, shape (len(params_seq), steps + 1); row b is
    ``markov_evolve(inst, spec, params_seq[b], steps, bath).probabilities``
    bit for bit.

    The points share G, G' and the start, so they run as one batched step
    loop over their transfer tensors (:func:`collision_evolve`). This is
    the one-system case of the tables that run many systems, one step loop
    per distinct d' (:func:`_table`). An empty ``params_seq`` raises
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
    validate: bool = False,
) -> EvolutionTrace:
    """Evolve the joint walker+system state for ``steps`` collisions.

    The first step draws its label from the stationary law (1 - p, p), the
    chain's step at mu = 0; later steps use the chain at ``params.mu``.
    With ``bath`` (a ``ThermalBathParams``) the walker is refreshed each
    step from thermal two-qubit ancillas instead of pure ones;
    ``bath=None`` is the zero-temperature (pure) construction.

    The loop runs on the weight basis, at d' x d'
    (:func:`~noisygrover.noise._weight_system`), with d' as
    ``meta["dim"]``, from the label blocks of |+><+| (x) |s><s|, and
    returns every step's blocks sigma_0, sigma_1 as ``blocks``, shape
    (steps + 1, 2, d', d'), t = 0 included. The blocks live in the span of
    the weight basis B, whose lift B (sigma_0 + sigma_1) B^dagger is the
    N x N register state; nothing here builds B. Its success series is the
    row of :func:`markov_series` for ``params``, bit for bit. ``validate``
    checks, once after the run, every step's blocks from t = 0 on at 1e-9
    (an isometry keeps trace, hermiticity and the nonzero spectrum; at
    t = 0 that is all the loop reads of the start) and
    raises :class:`InvariantViolation` at the first bad step.
    """
    _, g, gp, s = _weight_system(inst.n, inst.marked, spec.u, spec.positions)
    first, steady = transfer_weights([params], bath)
    # A batch (1,) of the one point.
    sigma0 = _label_start(projector(s))[None]
    run = collision_evolve(g, gp, first, steady, sigma0, steps, keep_blocks=True)
    if validate:
        require_density(run.blocks[0], 1e-9, what="joint state t={}", blocks=True)
    return EvolutionTrace(run.probabilities[0], meta=run.meta, blocks=run.blocks[0])


def history_oracle(
    g: ComplexMatrix,
    gp: ComplexMatrix,
    s: np.ndarray,
    params: MarkovNoiseParams,
    steps: int,
) -> np.ndarray:
    """The state after every t <= ``steps`` steps as an explicit sum over
    all 2**t label histories, an array (steps + 1, D, D), t = 0 included.

    Exponential-cost reference implementation: each history h = (k_1 .. k_t)
    contributes its chain probability w_h times the pure state
    psi_h psi_h^dagger, psi_h = O_{k_t} .. O_{k_1} |s>, with O_0 = G and
    O_1 = G', the D x D operators given, and |s> of size D. Used to
    validate the collision construction; refuses steps >
    ``HISTORY_MAX_STEPS``, and G, G' and |s> whose shapes do not match.
    It is generic in D: the CLI passes the d' x d' operators of the weight
    basis (:func:`~noisygrover.noise._weight_system`), and the tests the
    dense N x N ones as well.

    The histories form a binary tree: a node applies G or G' to its
    parent's amplitudes and multiplies its parent's weight by one chain
    probability, so each prefix is evaluated once. The tree has
    2**(steps + 1) - 1 nodes, and every node but the root |s> costs one
    matrix-vector product and one rank-one term of its depth's sum, about
    2 D^2 complex multiply-adds: D^2 2^steps work over the tree. It is
    walked depth first in batches of same-depth nodes: the children of a
    batch whose weight is not 0 form one lexicographic range of the next
    depth, and a range of more than ``_BATCH_ENTRIES`` vector entries is
    halved, left half first, down to one state (1024 states at D = 16, 64
    at D = 256). A zero weight drops the node and its subtree. Each batch
    costs one (B, D) @ (D, D) product per label and one (D, B) @ (B, D)
    product, sum_b w_b psi_b psi_b^dagger, added to its depth's sum.
    Besides the ``steps`` + 1 D x D sums and that product, one batch of at
    most ``_BATCH_ENTRIES`` entries per depth is alive at a time. The sums
    agree with one history at a time to rounding, not bitwise, and each is
    Hermitian to rounding.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps > HISTORY_MAX_STEPS:
        raise ValueError(f"history sum over 2^{steps} branches refused (cap {HISTORY_MAX_STEPS})")
    if s.ndim != 1 or g.shape != (s.size, s.size) or gp.shape != g.shape:
        raise ValueError(f"G {g.shape}, G' {gp.shape} and |s> {s.shape} do not match")
    # rows of amplitudes: psi @ O^T is O psi for each row psi
    ops_t = (g.T, gp.T)
    # trans[k_next, k]: the chain probability of label k_next after k; the
    # first label draws from the chain at mu = 0, whose columns are (1 - p, p)
    trans = conditional_probs(params)
    first = conditional_probs(MarkovNoiseParams(params.p, 0.0))
    acc = np.zeros((steps + 1, s.size, s.size), dtype=complex)
    acc[0] = projector(s)

    def expand(t: int, parents: np.ndarray, child_weights: np.ndarray) -> None:
        # the children at depth t of the rows ``parents``; child_weights[i, k]
        # is the weight of parent i's child k, and the nonzero ones are walked
        rows, labels = np.nonzero(child_weights)  # row-major: lexicographic order
        if len(rows):
            walk(t, parents, rows, labels, child_weights[rows, labels])

    def walk(t: int, parents, rows, labels, weights) -> None:
        if len(rows) > 1 and len(rows) * s.size > _BATCH_ENTRIES:
            half = len(rows) // 2
            walk(t, parents, rows[:half], labels[:half], weights[:half])
            walk(t, parents, rows[half:], labels[half:], weights[half:])
            return
        states = np.empty((len(rows), s.size), dtype=complex)
        for k, op_t in enumerate(ops_t):
            chosen = labels == k
            states[chosen] = parents[rows[chosen]] @ op_t
        acc[t] += (weights * states.T) @ states.conj()
        if t < steps:
            expand(t + 1, states, weights[:, None] * trans[:, labels].T)

    if steps:
        expand(1, s[None], first[None, :, 0])
    return acc


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
