"""Helpers that several test modules share."""

import math
from dataclasses import dataclass

import numpy as np

from noisygrover.grover import GroverInstance, uniform_superposition
from noisygrover.linalg import ComplexMatrix, dagger, projector, tensor
from noisygrover.markov import _PLUS, markov_evolve
from noisygrover.noise import NoiseSpec, orbit_basis, sigma_x_reduced, single_qubit_unitary


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
