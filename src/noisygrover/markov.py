"""Time-correlated (Markovian) switching between clean and faulty iterations.

Each time step applies either the clean operator G or the faulty one
G' = chi G. The choice is a two-state Markov chain over labels {g, g'}
with stationary distribution (1 - p, p) and memory mu:

    P(k at t+1 | l at t) = (1 - mu) p_k + mu * delta_{k,l}

mu = 0 is i.i.d. noise, mu = 1 freezes the first draw forever ("perfect
memory"). Instead of sampling, the chain is carried exactly: a classical
walker qubit (index 0 = g, 1 = g') is adjoined to the system, the joint
state starts as |+><+| (x) |s><s|, and every step is the exact completely
positive map that applies G on the g branch, G' on the g' branch, and
mixes branch populations with the conditional probabilities. The success
probability is read off the system marginal at the marked index. All of
this runs in the span of the orbit basis (:func:`~noisygrover.noise.orbit_basis`),
whose dimension depends on the noisy qubits, not on n. G, G' and |s> are
built there at d x d from Dicke-basis closed forms (:func:`_orbit_chi`), in
which n enters only through scalars, so nothing of size 2^n is formed unless
states are kept. :func:`markov_series` runs many (p, mu) points of one
system as one batched step loop, and :func:`markov_first_max` reads where
each point's first maximum falls from the same loop, stopped once every
point has passed it. Both are the one-system case of :func:`_table`,
which takes the systems of a table (the position classes of
``invariance``, the n list of ``firstmax``, the m list of ``noisy``),
shares their Dicke recursions and transfer weights, and runs one step loop
per distinct d over the systems of that d, each with its own G, G' and
start, stacked against the points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .grover import GroverInstance, grover_operator, uniform_superposition
from .linalg import ComplexMatrix, dagger, projector, require_density, tensor
from .noise import NoiseSpec, build_chi, noisy_grover, orbit_basis

# Largest horizon the explicit history sum accepts; its cost is 2**(steps + 1) - 2
# conjugations.
HISTORY_MAX_STEPS = 12

_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class MarkovNoiseParams:
    """Stationary fault probability ``p`` and memory ``mu``, both in [0, 1]."""

    p: float
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu={self.mu} outside [0, 1]")

    @property
    def p_g(self) -> float:
        """Stationary probability of a clean step."""
        return 1.0 - self.p

    @property
    def p_gp(self) -> float:
        """Stationary probability of a faulty step."""
        return self.p


@dataclass(frozen=True)
class ConditionalProbs:
    """One-step transition probabilities of the label chain."""

    g_given_g: float
    gp_given_g: float
    g_given_gp: float
    gp_given_gp: float


def conditional_probs(params: MarkovNoiseParams) -> ConditionalProbs:
    """P(k | l) = (1 - mu) p_k + mu delta_{k,l}; each column sums to 1."""
    p_g, p_gp, mu = params.p_g, params.p_gp, params.mu
    return ConditionalProbs(
        g_given_g=(1.0 - mu) * p_g + mu,
        gp_given_g=(1.0 - mu) * p_gp,
        g_given_gp=(1.0 - mu) * p_g,
        gp_given_gp=(1.0 - mu) * p_gp + mu,
    )


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


@dataclass(frozen=True)
class EvolutionTrace:
    """Result of an evolution run.

    ``probabilities[t]`` is the success probability after t steps,
    t = 0..steps. ``states`` (system marginals) and ``blocks`` (the label
    blocks that ``collision_evolve`` keeps) are kept only on request; both
    include t = 0.
    """

    probabilities: np.ndarray
    states: Optional[tuple[ComplexMatrix, ...]] = None
    meta: dict = field(default_factory=dict)
    blocks: Optional[np.ndarray] = None


def _dicke_powers(a: np.ndarray, k: int) -> list[ComplexMatrix]:
    """[D^(0)(a), .., D^(k)(a)], where D^(j)(a) is the 2 x 2 matrix ``a`` on
    j qubits, a^(x j), restricted to the symmetric subspace Sym^j in the
    Dicke basis |D_0> .. |D_j>, and |D_x> is the normalized sum of the
    basis states of Hamming weight x.

    The entries are the binomial sums

        D[x, y] = sqrt(C(j,y)/C(j,x)) sum_i C(y,i) C(j-y,x-i)
                  a11^i a01^(y-i) a10^(x-i) a00^(j-y-x+i),

    but those cancel: at j = 40 they lose up to 2e-11 to rounding. So the
    powers are built one qubit at a time through the isometry
    |D^(j+1)_x> = sqrt((j+1-x)/(j+1)) |D^(j)_x>|0> + sqrt(x/(j+1)) |D^(j)_(x-1)>|1>,
    which only ever forms contractions and stays at rounding level. Each
    step adds the four shifted copies of the last power, one per entry of
    ``a``, into the slices of a zero matrix where they land.
    """
    powers = [np.ones((1, 1), dtype=complex)]
    for size in range(1, k + 1):
        x = np.arange(size + 1)
        stay = np.sqrt((size - x[:-1]) / size)[:, None]  # weight of |D_x>|0>, x < size
        move = np.sqrt(x[1:] / size)[:, None]  # weight of |D_(x-1)>|1>, x > 0
        last = powers[-1]
        d = np.zeros((size + 1, size + 1), dtype=complex)
        d[:-1, :-1] = stay * stay.T * a[0, 0] * last  # from D[x, y]
        d[:-1, 1:] += stay * move.T * a[0, 1] * last  # from D[x, y - 1]
        d[1:, :-1] += move * stay.T * a[1, 0] * last  # from D[x - 1, y]
        d[1:, 1:] += move * move.T * a[1, 1] * last  # from D[x - 1, y - 1]
        powers.append(d)
    return powers


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b over the last two axes, with any leading axes broadcast: the
    products of ``np.kron``, without its per-call set-up."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _orbit_class(n: int, marked: int, positions: tuple[int, ...]) -> tuple[int, int, int]:
    """(m, q, d) of a set of noisy positions: its size m, the number q of
    them where the marked index has a 1 bit, and the dimension
    d = (q + 1)(m - q + 1) nc of the span of :func:`orbit_basis`, with
    nc = 2 when m < n and 1 when m = n. A position outside [0, n) raises
    ``ValueError``."""
    if any(not 0 <= p < n for p in positions):
        raise ValueError(f"positions {positions} outside [0, {n})")
    m = len(positions)
    q = sum(marked >> (n - 1 - p) & 1 for p in positions)
    return m, q, (q + 1) * (m - q + 1) * (2 if m < n else 1)


def _orbit_chi(
    n: int,
    marked: int,
    u: np.ndarray,
    positions: tuple[int, ...],
    dicke: Optional[tuple[ComplexMatrix, ComplexMatrix]] = None,
) -> tuple[ComplexMatrix, np.ndarray]:
    """(chi, |s>) in the orbit basis of :func:`orbit_basis`, built from n,
    the marked index, the 2 x 2 matrix ``u`` and the noisy positions only:
    nothing of size 2^n is formed, and n = 0 gives the 1 x 1 case.

    Flipping the q noisy qubits where the marked index has a 1 bit maps the
    class (j, k, c) of :func:`orbit_basis` onto the Dicke state of weight j
    on the other m - q noisy qubits, times that of weight k on the q
    flipped ones, times |0_C> (c = 0) or the normalized sum of the nonzero
    basis states of the clean qubits C (c = 1). In that frame chi is u on
    the first set and X u X on the second, and the identity on C, so

        chi = D^(m-q)(u) (x) D^(q)(X u X) (x) I_nc,
        s[(j, k, c)] = sqrt(C(m-q, j) C(q, k) size_c / N),

    with size_c = 1 for c = 0 and 2^(n-m) - 1 for c = 1, in the column
    order of :func:`orbit_basis`; nc = 1 when m = n. ``dicke`` is the pair
    (D^(m-q)(u), D^(q)(X u X)) when the caller has it from recursions that
    systems share (:func:`_table_groups`); by default both run here.
    """
    m, q, _ = _orbit_class(n, marked, positions)
    if dicke is None:
        dicke = (_dicke_powers(u, m - q)[-1], _dicke_powers(_FLIP @ u @ _FLIP, q)[-1])
    chi = _kron(*dicke)
    clean = (1,)  # class sizes on C
    if m < n:
        chi = _kron(chi, np.eye(2))
        clean = (1, 2 ** (n - m) - 1)
    N = 2**n
    s = np.sqrt([
        math.comb(m - q, j) * math.comb(q, k) * size / N
        for j in range(m - q + 1)
        for k in range(q + 1)
        for size in clean
    ])
    return chi, s


def _grover_pair(
    s: np.ndarray, w: int, chi: ComplexMatrix, N: int
) -> tuple[np.ndarray, ComplexMatrix]:
    """(G, G' = chi G) at the size of ``chi``, on a space that holds the real
    vector |s> and the basis vector |w> = e_w and is invariant under G and chi:
    G = -I + 2|s><s| - (4/sqrt(N))|s><w| + 2|w><w|.
    """
    g = 2.0 * np.outer(s, s) - np.eye(s.size)
    g[:, w] -= (4.0 / math.sqrt(N)) * s
    g[w, w] += 2.0
    return g, chi @ g


def _dicke_operators(
    n: int,
    marked: int,
    u: np.ndarray,
    positions: tuple[int, ...],
    dicke: Optional[tuple[ComplexMatrix, ComplexMatrix]] = None,
) -> tuple[np.ndarray, ComplexMatrix, np.ndarray]:
    """(G, G', |s>) in the orbit basis of :func:`orbit_basis`, d x d and d,
    from scalars only (:func:`_orbit_chi`, which ``dicke`` is passed to);
    |w> is column 0."""
    chi, s = _orbit_chi(n, marked, u, positions, dicke)
    return (*_grover_pair(s, 0, chi, 2**n), s)


def _table_groups(
    systems: Sequence[tuple[GroverInstance, NoiseSpec]],
    params_seq: Sequence[MarkovNoiseParams],
    bath,
) -> tuple[list[list[int]], list[tuple]]:
    """Set up one table of ``systems``, (inst, spec) pairs that share the
    (p, mu) points ``params_seq`` and ``bath``, as one step loop per
    distinct d.

    The set-up that systems share runs once per table: one
    ``transfer_weights`` call, and for each distinct noise unitary u one
    Dicke recursion (:func:`_dicke_powers`) of u and one of X u X, up to
    the largest m of the table. Every position set is checked here
    (:func:`_orbit_class`), before any step runs. The systems are grouped
    by their exact d, in order of first appearance, never padded. Returns
    each group's system indices and its work item for :func:`_group_inputs`:
    the group's systems with their two Dicke powers, and the weights.
    """
    from .collision import transfer_weights  # deferred, see collision.py

    first, steady = transfer_weights(params_seq, bath)
    classes = [_orbit_class(inst.n, inst.marked, spec.positions) for inst, spec in systems]
    top = max((m for m, _, _ in classes), default=0)
    powers = {}
    groups: dict[int, list] = {}
    for i, ((inst, spec), (m, q, d)) in enumerate(zip(systems, classes)):
        if spec.u not in powers:
            u = spec.u.matrix
            powers[spec.u] = (_dicke_powers(u, top), _dicke_powers(_FLIP @ u @ _FLIP, top))
        of_u, of_xux = powers[spec.u]
        groups.setdefault(d, []).append((i, (inst, spec, (of_u[m - q], of_xux[q]))))
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
    from .collision import collision_evolve  # deferred, see collision.py

    return (collision_evolve(*_group_inputs(group), steps).probabilities,)


def _group_first_max(group, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(t*, P*), each (S, P), of one d-group."""
    from .collision import collision_first_max  # deferred, see collision.py

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
    the span of the orbit basis V (:func:`orbit_basis`), where
    d = (q + 1)(m - q + 1), doubled when m < n, is ``meta["dim"]``. The
    loop starts from the label blocks of |+><+| (x) |s><s|, and the flags
    have it keep its blocks sigma_0, sigma_1. ``keep_states`` lifts
    V (sigma_0 + sigma_1) V^dagger to N x N; V is built only for this lift.
    ``validate`` checks, once after the run, every step's blocks from t = 0
    on at 1e-9 (an isometry keeps trace, hermiticity and the nonzero
    spectrum; at t = 0 that is all the loop reads of the start) and raises
    :class:`InvariantViolation` at the first bad step.
    """
    from .collision import collision_evolve  # deferred, see collision.py

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
