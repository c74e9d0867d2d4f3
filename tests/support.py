"""Helpers that several test modules share."""

import math
from dataclasses import dataclass

import numpy as np

from noisygrover import collision, markov, noise
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
    tensor,
    trace_distance,
)
from noisygrover.markov import _PLUS, markov_evolve
from noisygrover.noise import (
    NoiseSpec,
    build_chi,
    noisy_grover,
    sigma_x_reduced,
    single_qubit_unitary,
)


def random_density(dim: int, rng: np.random.Generator) -> ComplexMatrix:
    """Random full-rank density matrix (normalized Wishart / Ginibre form)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit state vector (normalized complex Gaussian)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def initial_joint_state(inst: GroverInstance) -> ComplexMatrix:
    """R_0 = |+><+| on the walker (x) |s><s| on the system (2N x 2N), with
    every walker entry 1/2 exactly: the dense start of the Kraus
    verification layer, whose label blocks the step loop takes
    (``markov._label_start``)."""
    return tensor(np.full((2, 2), 0.5), projector(uniform_superposition(inst)))


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


def orbit_class(n, marked, positions):
    """(m, q, d) of a set of noisy positions on the orbit basis of
    :func:`orbit_basis`: ``noise._weight_class``'s m and q (and its check of
    the positions), and d = (q + 1)(m - q + 1) nc with nc = 2 when m < n
    and 1 when m = n."""
    m, q, _ = noise._weight_class(n, marked, positions)
    return m, q, (q + 1) * (m - q + 1) * (2 if m < n else 1)


def orbit_basis(inst, spec):
    """Orthonormal N x d basis of a subspace that holds |s> and |w> and is
    invariant under G and G' = chi G; column 0 is |w>.

    Split the qubits into the noisy ones where the marked index has a 0
    bit (m - q of them), the noisy ones where it has a 1 bit (q, as in
    :func:`~noisygrover.noise.closed_form_overlaps`) and the clean ones C.
    A basis state is in class (j, k, c) when it differs from the marked
    index in j bits of the first set and k of the second, and c = 1 when it
    differs anywhere on C. Column (j (q + 1) + k) nc + c is the indicator of
    that class over the square root of its size, C(m-q, j) C(q, k) times
    2^(n-m) - 1 when c = 1; nc = 2, or 1 when m = n (there is no C). The
    span is Sym^(m-q) (x) Sym^q (x) span{|w_C>, |+..+>_C}: u^(x m) maps
    each symmetric factor into itself, chi leaves C alone, and G is -I plus
    a rank-2 term on span{|s>, |w>}, which lies inside. So
    d = (q + 1)(m - q + 1) nc whatever n is (:func:`orbit_class`), and no
    threshold is involved. :func:`dicke_operators_loop` builds G, G' and
    |s> in this basis from closed forms; V itself lifts kept states back to
    N x N and serves the tests as a reference.
    """
    n = inst.n
    if any(p >= n for p in spec.positions):
        raise ValueError(f"positions {spec.positions} exceed qubit count {n}")
    m, q, d = orbit_class(n, inst.marked, spec.positions)
    bits = (np.arange(inst.N)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # qubit 0 first
    diff = bits != bits[inst.marked]
    noisy = np.isin(np.arange(n), spec.positions)
    one = bits[inst.marked] == 1
    nc = 1 if m == n else 2
    j = diff[:, noisy & ~one].sum(axis=1)
    k = diff[:, noisy & one].sum(axis=1)
    label = (j * (q + 1) + k) * nc + diff[:, ~noisy].any(axis=1)
    basis = np.zeros((inst.N, d))
    basis[np.arange(inst.N), label] = 1.0 / np.sqrt(np.bincount(label)[label])
    return basis


def weight_basis(inst, spec):
    """The N x d' weight basis B of (inst, spec), built densely: the basis
    in which ``noise._weight_system`` gives chi, G, G' and |s>, so that
    B^dagger chi B is its chi, and likewise G, G' and B^dagger |s>.

    Rotate the noisy qubits into u's eigenbasis V (``noise._eigen_frame``),
    where each weight projector P_j is a 0/1 mask. Slot (j, 0) is
    e0^(m-j) e1^j times the weight-j Dicke state of the noisy qubits, with
    |+> on the clean ones, e_i the phase of p_i = <v_i|+> (1 where
    p_i = 0): P_j |s> normalized, where that is not 0. Slot (j, 1) is the
    normalized rest of P_j |w>, or, where that rest is 0, a unit vector of
    the weight-j block orthogonal to |s> and |w>. It exists where the
    weight-j block of the orbit space, nc #{a + b = j : a <= m - q, b <= q}
    vectors, is not a line. The coordinates of |s> and |w> are read off
    these columns, and ``noise._weight_operators``' Householder reflection
    H and phase P applied: B = B0 H P^dagger. Nothing here reads
    ``noise._weight_coordinates``; only the phases that the basis leaves
    free are read off ``noise._weight_system``'s chi (below). For small n:
    it forms N x N arrays.
    """
    n, N = inst.n, inst.N
    m, q, _ = noise._weight_class(n, inst.marked, spec.positions)
    _, p, z, zf = noise._eigen_frame(spec.u)
    v = np.array([np.conj(z), np.conj(zf)])  # v[:, i] = v_i
    rotate, weight = np.ones((1, 1)), np.zeros(1, dtype=int)
    for qubit in range(n):
        noisy = qubit in spec.positions
        rotate = np.kron(rotate, v if noisy else np.eye(2))
        weight = (weight[:, None] + (np.arange(2) if noisy else np.zeros(2, dtype=int))).ravel()
    s, w = uniform_superposition(inst), np.eye(N)[inst.marked]
    w_rot = rotate.conj().T @ w
    phase = [c / abs(c) if abs(c) else 1.0 for c in p]
    nc = 2 if m < n else 1
    columns = []
    for j in range(m + 1):
        mask = weight == j
        x = phase[0] ** (m - j) * phase[1] ** j * mask / math.sqrt(mask.sum())
        columns.append(x)
        if nc * sum(1 for a in range(m - q + 1) if 0 <= j - a <= q) < 2:
            continue
        rest = mask * w_rot
        rest = rest - x * np.vdot(x, rest)
        if np.linalg.norm(rest) <= 1e-12:
            # any unit vector of the block orthogonal to x, and so to s and w
            block = np.eye(N)[:, mask]
            block = block - np.outer(x, x.conj() @ block)
            rest = block[:, np.argmax(np.linalg.norm(block, axis=0))]
        columns.append(rest / np.linalg.norm(rest))
    b0 = rotate @ np.array(columns).T
    s_c, w_c = b0.conj().T @ s, b0.conj().T @ w
    head = abs(w_c[0]) / np.linalg.norm(w_c)
    v = w_c / np.linalg.norm(w_c)
    v[0] += w_c[0] / abs(w_c[0]) if head else 1.0
    h = np.eye(len(v)) - np.outer(v, v.conj()) / (1.0 + head)
    hs = h @ s_c
    ph = np.array([b.conjugate() / abs(b) if abs(b) > 1e-14 else 1.0 for b in hs])
    basis = b0 @ h @ np.diag(ph.conj())
    # A column k > 0 with no |s> coordinate keeps a free phase, which
    # _weight_operators takes from a number at rounding level; read it off
    # the chi it builds, at the column's largest entry in a fixed row.
    free = np.abs(hs) <= 1e-14
    free[0] = False
    chi = basis.conj().T @ build_chi(n, spec) @ basis
    want = noise._weight_system(n, inst.marked, spec.u, spec.positions)[0]
    for k in np.flatnonzero(free):
        row = np.argmax(np.where(free, 0.0, np.abs(chi[:, k])))
        if abs(chi[row, k]) > 1e-8:
            ratio = want[row, k] / chi[row, k]
            basis[:, k] *= ratio / abs(ratio)
    return basis


def lift(inst, spec, blocks):
    """d' x d' matrices (..., d', d') in the weight basis B of (inst, spec),
    lifted to N x N as B sigma B^dagger: a ``markov_evolve`` run's register
    states are ``lift(inst, spec, trace.blocks.sum(axis=1))``."""
    b = weight_basis(inst, spec)
    return b @ blocks @ b.conj().T


def lifted_blocks(inst, spec, params, steps, bath=None):
    """The label blocks of ``markov_evolve``'s run, (steps + 1, 2, N, N),
    each lifted to N x N through the weight basis."""
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


def pure_step_image(params, g, gp, psi):
    """One pure-ancilla step of walker (x) system from |psi><psi|, written
    out: op_r (sum_c W[r, c, r] psi_c psi_c^dagger) op_r^dagger in walker
    block r, op_0 = G and op_1 = G', W the steady tensor at ``params``; the
    off-diagonal walker blocks are zero."""
    n_dim = g.shape[0]
    _, w = collision.transfer_weights(params)
    halves = psi.reshape(2, n_dim)
    image = np.zeros((2 * n_dim, 2 * n_dim), dtype=complex)
    for r, op in enumerate((g, gp)):
        mixed = sum(w[r, c, r] * np.outer(halves[c], halves[c].conj()) for c in range(2))
        image[r * n_dim : (r + 1) * n_dim, r * n_dim : (r + 1) * n_dim] = op @ mixed @ dagger(op)
    return image


def verify_dilation_loop(u, params, g, gp, trials=20, seed=1234):
    """collision.verify_dilation of one U, one trial at a time: each seeded
    probe psi (one ``random_pure_state`` call) gives U's reduced image
    sum_a phi_a phi_a^dagger, phi_a the ancilla rows of U[:, :2D] psi,
    against ``pure_step_image``."""
    n2 = 2 * g.shape[0]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        psi = random_pure_state(n2, rng)
        phi = (u[:, :n2] @ psi).reshape(4, n2)
        image = sum(np.outer(a, a.conj()) for a in phi)
        worst = max(worst, trace_distance(image, pure_step_image(params, g, gp, psi)))
    return worst


# The step loop as it was before its buffers: a fresh array per product
# and per step, the success probability read per step. Kept as the
# reference that collision's step loop must equal bitwise.


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


def evolve_loop(g, gp, first, steady, sigma0, steps):
    """(series, blocks) of collision_evolve with keep_blocks, through
    :func:`step_stream_loop` and :func:`success_loop` at entry (0, 0):
    batch + (steps + 1,) and batch + (steps + 1, 2, d, d)."""
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
        probs.append(success_loop(sigma, 0))
        blocks.append(sigma)
    return np.stack(probs, axis=-1), np.stack(blocks, axis=-4)


# The orbit basis's operators, one Dicke recursion per 2 x 2 matrix and one
# system at a time: its only builder, and the independent reference the
# weight basis is held to.

_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def dicke_powers_loop(a, k):
    """[D^(0)(a), .., D^(k)(a)], where D^(j)(a) is the 2 x 2 matrix ``a`` on
    j qubits, a^(x j), restricted to the symmetric subspace Sym^j in the
    Dicke basis |D_0> .. |D_j>, and |D_x> is the normalized sum of the
    basis states of Hamming weight x.

    The binomial sums for the entries cancel (at j = 40 they lose up to
    2e-11 to rounding), so the powers are built one qubit at a time through
    the isometry
    |D^(j+1)_x> = sqrt((j+1-x)/(j+1)) |D^(j)_x>|0> + sqrt(x/(j+1)) |D^(j)_(x-1)>|1>,
    which only forms contractions and stays at rounding level: one shifted
    copy of the last power per entry a_ij, each added into the slice of a
    zero matrix where it lands.
    """
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


def orbit_lift_loop(n, m, q, dicke):
    """(chi, |s>) of a position set of class (m, q) on n qubits, from its
    Dicke pair (D^(m-q)(u), D^(q)(X u X))."""
    chi = np.kron(*dicke)
    clean = (1,)
    if m < n:
        chi = np.kron(chi, np.eye(2))
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
    """(chi, G, G', |s>) of one system in the orbit basis of
    :func:`orbit_basis`, d x d and d, built from n, the marked index, the
    2 x 2 matrix ``u`` and the noisy positions only; |w> is column 0 and G
    and |s> are real.

    Flipping the q noisy qubits where the marked index has a 1 bit maps the
    class (j, k, c) of :func:`orbit_basis` onto the Dicke state of weight j
    on the other m - q noisy qubits, times that of weight k on the q
    flipped ones, times |0_C> (c = 0) or the normalized sum of the nonzero
    basis states of the clean qubits C (c = 1). In that frame chi is u on
    the first set and X u X on the second, and the identity on C, so
    chi = D^(m-q)(u) (x) D^(q)(X u X) (x) I_nc and
    s[(j, k, c)] = sqrt(C(m-q, j) C(q, k) size_c / N) (:func:`orbit_lift_loop`),
    with size_c = 1 for c = 0 and 2^(n-m) - 1 for c = 1.
    """
    m, q, _ = orbit_class(n, marked, positions)
    dicke = dicke_powers_loop(u, m - q)[m - q], dicke_powers_loop(_FLIP @ u @ _FLIP, q)[q]
    chi, s = orbit_lift_loop(n, m, q, dicke)
    g = reduced_grover_operator(s, 0, 2**n)
    return chi, g, chi @ g, s


def orbit_evolve(inst, spec, params, steps, bath=None):
    """``markov_evolve`` as it ran on the orbit basis: the step loop at
    d x d on :func:`dicke_operators_loop`'s G and G', from the label blocks
    of |+><+| (x) |s><s|, keeping every step's blocks, which lift through
    :func:`orbit_basis`."""
    _, g, gp, s = dicke_operators_loop(inst.n, inst.marked, spec.u.matrix, spec.positions)
    return collision.collision_evolve(
        g, gp, *collision.transfer_weights(params, bath), markov._label_start(projector(s)), steps,
        keep_blocks=True,
    )


# The witnesses' split operators from the per-system weight build, and the
# stack rule as it took an item budget: the references that
# measures._split_operators and collision._chunks must equal bitwise.


def split_operators_loop(inst, spec):
    """(G, G', |s>) of measures._split_operators from the per-system build
    of the success tables, :func:`~noisygrover.noise._weight_coordinates`
    and :func:`~noisygrover.noise._weight_operators`, of the other n - 1
    qubits, whose class (m, q) is counted off their bits here."""
    half = inst.N // 2
    rest = [p - 1 for p in spec.positions if p]
    q = sum(inst.marked % half >> (inst.n - 2 - p) & 1 for p in rest)
    frame = noise._eigen_frame(spec.u)
    chi, _, _, s = noise._weight_operators(
        [noise._weight_coordinates(inst.n - 1, len(rest), q, frame)]
    )
    u0 = np.eye(2)
    if 0 in spec.positions:  # V diag(l0, l1) V^dagger, rows of V^dagger from the frame
        v = np.conj(frame[2:])
        u0 = (v * frame[0]) @ v.conj().T
    chi = np.kron(u0, chi[0])
    s = np.kron(_PLUS.real, s[0])
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


# The witnesses as they ran on the orbit basis: the reference that
# measures.n_blp and measures.n_cp, on the weight basis, must equal to
# 1e-12.


def orbit_split_operators(inst, spec):
    """(G, G', |s>) on n_blp's space W = C^2 (x) W_rest in the basis
    I_2 (x) V_rest, with V_rest the orbit basis of the other n - 1 qubits
    (:func:`split_basis`): u (or I_2) on qubit 0 times the Dicke-basis chi
    of the rest (:func:`dicke_operators_loop`), |s> = |+> (x) |s_rest> and
    |w> = |b_0> (x) |w_rest>."""
    half = inst.N // 2
    u = spec.u.matrix
    chi, _, _, s = dicke_operators_loop(
        inst.n - 1, inst.marked % half, u, tuple(p - 1 for p in spec.positions if p)
    )
    chi = np.kron(u if 0 in spec.positions else np.eye(2), chi)
    s = np.kron(_PLUS.real, s)
    g = reduced_grover_operator(s, (inst.marked // half) * (s.size // 2), inst.N)
    return g, chi @ g, s


def _half_norms(x):
    """1/2 (||x||_1 + tr x) of each member of a Hermitian stack, from one
    ``eigvalsh`` on the whole stack."""
    return 0.5 * (np.abs(np.linalg.eigvalsh(x)).sum(axis=-1) + np.trace(x, axis1=-2, axis2=-1).real)


def _orbit_run(g, gp, start, points, steps, bath=None):
    """The kept label blocks (len(points), steps + 1, 2, d, d) of one
    batched run from the label blocks of |+><+| (x) ``start``."""
    sigma0 = np.full((2, 1, 1), 0.5) * start
    first, steady = collision.transfer_weights(points, bath)
    return collision.collision_evolve(g, gp, first, steady, sigma0, steps, keep_blocks=True).blocks


def orbit_cp_series(inst, spec, points, steps):
    """n_cp's series (len(points), steps + 1) on the orbit basis: half the
    trace norm of the system image of |s><s| - |w><w|."""
    _, g, gp, s = dicke_operators_loop(inst.n, inst.marked, spec.u.matrix, spec.positions)
    w = np.eye(s.size)[0]
    blocks = _orbit_run(g, gp, np.outer(s, s) - np.outer(w, w), points, steps)
    return _half_norms(blocks.sum(axis=-3))


def orbit_blp_series(inst, spec, points, steps, bath=None):
    """(system, joint) series of n_blp, each (len(points), steps + 1), on
    the orbit basis: the pair difference |s><s| - (I - X_0)/N restricted to
    W (:func:`orbit_split_operators`), the system distance from the sum of
    its label blocks and the joint one as the sum of the two blocks'."""
    g, gp, s = orbit_split_operators(inst, spec)
    i_minus_x = np.array([[1.0, -1.0], [-1.0, 1.0]]) / inst.N
    delta = np.outer(s, s) - np.kron(i_minus_x, np.eye(s.size // 2))
    blocks = _orbit_run(g, gp, delta, points, steps, bath)
    return _half_norms(blocks.sum(axis=-3)), _half_norms(blocks).sum(axis=-1)
