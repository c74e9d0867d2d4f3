"""Helpers that several test modules share."""

import math
from dataclasses import dataclass

import numpy as np

from noisygrover import collision, noise
from noisygrover.grover import (
    GroverInstance,
    grover_operator,
    reduced_grover_operator,
    uniform_superposition,
)
from noisygrover.linalg import (
    ComplexMatrix,
    dagger,
    projector,
    random_pure_state,
    tensor,
    trace_distance,
)
from noisygrover.markov import _PLUS, markov_evolve
from noisygrover.noise import (
    NoiseSpec,
    build_chi,
    noisy_grover,
    orbit_basis,
    sigma_x_reduced,
    single_qubit_unitary,
)


def random_density(dim: int, rng: np.random.Generator) -> ComplexMatrix:
    """Random full-rank density matrix (normalized Wishart / Ginibre form)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def initial_joint_state(inst: GroverInstance) -> ComplexMatrix:
    """R_0 = |+><+| on the walker (x) |s><s| on the system (2N x 2N), the
    dense start of the Kraus verification layer; the step loop takes its
    label blocks (``markov._label_start``)."""
    return tensor(projector(_PLUS), projector(uniform_superposition(inst)))


def dense_operators(inst: GroverInstance, spec: NoiseSpec):
    """(G, G', |s>) on the whole register, N x N and N: what
    ``history_oracle`` takes for the register's history sums, whose
    ``marked`` diagonal entries are the success probabilities."""
    g = grover_operator(inst)
    return g, noisy_grover(g, build_chi(inst.n, spec)), uniform_superposition(inst)


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
    :func:`~noisygrover.measures.n_blp` runs the same pair without
    building them.
    """
    N = inst.N
    rho2 = np.kron(
        np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex) / N,
        np.eye(N // 2, dtype=complex),
    )
    return StatePair(projector(uniform_superposition(inst)), rho2)


def completeness_defect(ops) -> float:
    """max | sum_k K_k^dagger K_k  -  I | of the Kraus operators ``ops``."""
    dim = ops[0].shape[1]
    acc = np.zeros((dim, dim), dtype=complex)
    for k in ops:
        acc += dagger(k) @ k
    return float(np.max(np.abs(acc - np.eye(dim))))


def unitality_defect(ops) -> float:
    """max | sum_k K_k K_k^dagger  -  I | of the Kraus operators ``ops``;
    zero iff the map is unital."""
    dim = ops[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for k in ops:
        acc += k @ dagger(k)
    return float(np.max(np.abs(acc - np.eye(dim))))


def haar_noise(rng):
    """A Haar-random U(2) element in the custom:a,b,theta parametrization:
    |a|^2 uniform on [0, 1], independent uniform phases."""
    x = rng.uniform()
    a = math.sqrt(x) * np.exp(2j * math.pi * rng.uniform())
    b = math.sqrt(1.0 - x) * np.exp(2j * math.pi * rng.uniform())
    return single_qubit_unitary(a, b, 2.0 * math.pi * rng.uniform())


def split_basis(inst, spec):
    """V_W = I_2 (x) V_rest: the N x 2 d_rest isometry onto n_blp's space
    W = C^2 (x) W_rest, with V_rest the orbit basis of the other n - 1
    qubits (marked index marked % (N/2), noisy positions p - 1 for
    p != 0), one vector when n = 1."""
    if inst.n == 1:
        return np.eye(2)
    rest = GroverInstance(inst.n - 1, inst.marked % (inst.N // 2))
    rest_spec = NoiseSpec(spec.u, tuple(p - 1 for p in spec.positions if p))
    return np.kron(np.eye(2), orbit_basis(rest, rest_spec))


def label_blocks(joint):
    """The two diagonal walker blocks of a 2d x 2d joint, stacked (2, d, d):
    the start the step loop takes for it."""
    h = joint.shape[-1] // 2
    return np.stack([joint[..., :h, :h], joint[..., h:, h:]], axis=-3)


def lift(inst, spec, blocks):
    """d x d matrices (..., d, d) in the orbit basis V of (inst, spec),
    lifted to N x N as V sigma V^T: a ``markov_evolve`` run's register
    states are ``lift(inst, spec, trace.blocks.sum(axis=1))``."""
    v = orbit_basis(inst, spec)
    return v @ blocks @ v.T


def orbit_blocks(inst, spec, params, steps, bath=None):
    """The label blocks of ``markov_evolve``'s run, (steps + 1, 2, N, N),
    each lifted to N x N through the orbit basis."""
    return lift(inst, spec, markov_evolve(inst, spec, params, steps, bath).blocks)


def reduced_sigma_x_walks(n, p, steps):
    """Success series of sigma_x noise from the 3-level forms of G and G'
    (:func:`~noisygrover.noise.sigma_x_reduced`): frozen labels (mu = 1)
    are a (1 - p, p) mixture of the pure G and G' walks; memoryless labels
    (mu = 0) apply the averaged map rho -> (1 - p) G rho G^dagger +
    p G' rho G'^dagger at every step. Returns (frozen, iid)."""
    N = 2**n
    g3, g3p = sigma_x_reduced(GroverInstance(n))
    v3 = np.array([math.sqrt((N - 2.0) / N), 1.0 / math.sqrt(N), 1.0 / math.sqrt(N)], dtype=complex)
    clean, faulty, rho = v3, v3, np.outer(v3, v3.conj())
    frozen, iid = [], []
    for _ in range(steps + 1):
        frozen.append((1.0 - p) * abs(clean[1]) ** 2 + p * abs(faulty[1]) ** 2)
        iid.append(rho[1, 1].real)
        clean, faulty = g3 @ clean, g3p @ faulty
        rho = (1.0 - p) * g3 @ rho @ dagger(g3) + p * g3p @ rho @ dagger(g3p)
    return np.array(frozen), np.array(iid)


# The verification layer one block at a time: the Python loops that
# collision's batched block products replace, kept as the references those
# must equal bitwise.


def unitarity_defect_loop(u):
    """collision.unitarity_defect of one 8D x 8D U, one block pair (j, k)
    of U^dagger U at a time, its rows summed in order."""
    n_dim = u.shape[0] // 8
    grid = u.reshape(8, n_dim, 8, n_dim)
    nonzero = grid.any(axis=(1, 3))
    eye = np.eye(n_dim)
    defects = np.eye(8)
    for j, k in zip(*np.nonzero(nonzero.T @ nonzero)):
        rows = np.flatnonzero(nonzero[:, j] & nonzero[:, k])
        block = sum(dagger(grid[i, :, j, :]) @ grid[i, :, k, :] for i in rows)
        defects[j, k] = np.max(np.abs(block - eye if j == k else block))
    return float(np.max(defects))


def extract_m_loop(u, chi, g):
    """collision.extract_m of one U, one nonzero block at a time."""
    n_dim = g.shape[0]
    g_dag, chi_dag = dagger(g), dagger(chi)
    eye_n = np.eye(n_dim)
    m_grid = np.zeros((8, 8), dtype=complex)
    residuals = np.zeros((8, 8))
    nonzero = u.reshape(8, n_dim, 8, n_dim).any(axis=(1, 3))
    for i, j in zip(*np.nonzero(nonzero)):
        block = u[i * n_dim : (i + 1) * n_dim, j * n_dim : (j + 1) * n_dim] @ g_dag
        if i >= 4:
            block = chi_dag @ block
        m_grid[i, j] = np.trace(block) / n_dim
        residuals[i, j] = np.max(np.abs(block - m_grid[i, j] * eye_n))
    residual = float(np.max(residuals))
    defect = float(np.max(np.abs(dagger(m_grid) @ m_grid - np.eye(8))))
    return collision.FactorizationReport(m_grid, residual, defect)


def verify_dilation_loop(u, kset, trials=20, seed=1234):
    """collision.verify_dilation of one U and its Kraus set: the seeded
    probes drawn for this step alone, in stacks of its own budget."""
    n2 = u.shape[0] // 4
    columns = u[:, :n2]
    stack = max(1, collision._BATCH_ENTRIES // n2**2)
    rng = np.random.default_rng(seed)
    deviations = []
    for start in range(0, trials, stack):
        psi = np.array([random_pure_state(n2, rng) for _ in range(min(stack, trials - start))])
        phi = (psi @ columns.T).reshape(-1, 4, n2)
        image = collision.apply_kraus(kset, psi[:, :, None] * psi.conj()[:, None, :])
        deviations.append(trace_distance(phi.swapaxes(-1, -2) @ phi.conj(), image))
    return float(np.max(np.concatenate(deviations)))


# The step loop and the Dicke recursion as they were before their buffers
# and stacks: a fresh array per product and per step, the success
# probability read per step, one recursion per 2 x 2 matrix. Kept as the
# references that collision's step loop and noise's stacked recursion must
# equal bitwise.


def step_stream_loop(sigma, first_plan, steady_plan):
    """collision._step_stream without buffers: yields the label-block stack
    after t = 0, 1, 2, ... collisions, each a new array."""
    n_dim, plan = sigma.shape[-1], first_plan
    while True:
        yield sigma
        batch, (mix, op, op_dag) = sigma.shape[:-3], plan
        mixed = (mix @ sigma.reshape(batch + (2, -1))).reshape(batch + (2, -1, n_dim, n_dim))
        terms = op @ mixed @ op_dag
        sigma = terms[..., 0, :, :] if terms.shape[-3] == 1 else terms.sum(axis=-3)
        plan = steady_plan


def success_loop(sigma, marked):
    """The success probability of every member of a label-block stack:
    the ``marked`` diagonal entry of sigma_0 + sigma_1."""
    return sigma[..., 0, marked, marked].real + sigma[..., 1, marked, marked].real


def evolve_loop(g, gp, first, steady, sigma0, steps, marked=0):
    """(series, blocks) of collision_evolve with keep_blocks, through
    :func:`step_stream_loop` and :func:`success_loop`: batch + (steps + 1,)
    and batch + (steps + 1, 2, d, d)."""
    g, gp, sigma0 = (np.asarray(a, dtype=complex) for a in (g, gp, sigma0))
    first, steady = (np.asarray(w, dtype=float) for w in (first, steady))
    batch = np.broadcast_shapes(
        g.shape[:-2], gp.shape[:-2], sigma0.shape[:-3], first.shape[:-3], steady.shape[:-3]
    )
    ops = np.stack(np.broadcast_arrays(g, gp), axis=-3)
    ops_dag = np.conj(ops).swapaxes(-1, -2)
    plans = [collision._step_terms(w, ops, ops_dag) for w in (first, steady)]
    stream = step_stream_loop(np.broadcast_to(sigma0, batch + sigma0.shape[-3:]), *plans)
    probs, blocks = [], []
    for _, sigma in zip(range(steps + 1), stream):
        probs.append(success_loop(sigma, marked))
        blocks.append(sigma)
    return np.stack(probs, axis=-1), np.stack(blocks, axis=-4)


def dicke_powers_loop(a, k):
    """noise._dicke_powers of one 2 x 2 matrix ``a``, one shifted copy of
    the last power per line."""
    powers = [np.ones((1, 1), dtype=complex)]
    for size in range(1, k + 1):
        x = np.arange(size + 1)
        stay = np.sqrt((size - x[:-1]) / size)[:, None]
        move = np.sqrt(x[1:] / size)[:, None]
        last = powers[-1]
        d = np.zeros((size + 1, size + 1), dtype=complex)
        d[:-1, :-1] = stay * stay.T * a[0, 0] * last
        d[:-1, 1:] += stay * move.T * a[0, 1] * last
        d[1:, :-1] += move * stay.T * a[1, 0] * last
        d[1:, 1:] += move * move.T * a[1, 1] * last
        powers.append(d)
    return powers


# The orbit operators as the verification subcommands and the witnesses
# built them, one recursion per system up to its own max(m - q, q) and G
# and G' one system at a time: the reference that noise._dicke_operators
# must equal bitwise.


def orbit_lift_loop(n, m, q, dicke):
    """(chi, |s>) of a position set of class (m, q) on n qubits, from its
    Dicke pair (D^(m-q)(u), D^(q)(X u X))."""
    chi = noise._kron(*dicke)
    clean = (1,)
    if m < n:
        chi = noise._kron(chi, np.eye(2))
        clean = (1, 2 ** (n - m) - 1)
    N = 2**n
    s = np.sqrt([
        math.comb(m - q, j) * math.comb(q, k) * size / N
        for j in range(m - q + 1)
        for k in range(q + 1)
        for size in clean
    ])
    return chi, s


def dicke_operators_loop(n, marked, u, positions):
    """(chi, G, G', |s>) of one system from its own recursion, G and |s>
    real."""
    m, q, _ = noise._orbit_class(n, marked, positions)
    powers = noise._dicke_powers(np.array((u, noise._FLIP @ u @ noise._FLIP)), max(m - q, q))
    chi, s = orbit_lift_loop(n, m, q, (powers[m - q][0], powers[q][1]))
    g = reduced_grover_operator(s, 0, 2**n)
    return chi, g, chi @ g, s


def split_operators_loop(inst, spec):
    """(G, G', |s>) of measures._split_operators from
    :func:`dicke_operators_loop` of the other n - 1 qubits."""
    half = inst.N // 2
    u = spec.u.matrix
    chi, _, _, s = dicke_operators_loop(
        inst.n - 1, inst.marked % half, u, tuple(p - 1 for p in spec.positions if p)
    )
    chi = np.kron(u if 0 in spec.positions else np.eye(2), chi)
    s = np.kron(_PLUS.real, s)
    g = reduced_grover_operator(s, (inst.marked // half) * (s.size // 2), inst.N)
    return g, chi @ g, s


def chunks_loop(sizes, budget):
    """collision._chunks as it took an item budget: runs of items whose
    ``sizes`` sum to at most ``budget``, an item above it alone."""
    start, total = 0, 0
    for end, size in enumerate(sizes):
        if end > start and total + size > budget:
            yield slice(start, end)
            start, total = end, 0
        total += size
    if len(sizes):
        yield slice(start, len(sizes))
