"""Helpers that several test modules share."""

import math

import numpy as np

from noisygrover import markov
from noisygrover.collision import collision_evolve
from noisygrover.grover import GroverInstance
from noisygrover.noise import NoiseSpec, orbit_basis, single_qubit_unitary


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


def orbit_blocks(inst, spec, params, steps, bath=None):
    """The label blocks of ``markov_evolve``'s run, (steps + 1, 2, N, N):
    the step loop on markov's own d x d inputs, each block lifted to N x N
    through the orbit basis V as V sigma V^T."""
    _, (group,) = markov._table_groups([(inst, spec)], [params], bath)
    g, gp, first, steady, sigma0 = markov._group_inputs(group)
    run = collision_evolve(g[0, 0], gp[0, 0], first[0], steady[0], sigma0[0, 0], steps,
                           keep_blocks=True)
    v = orbit_basis(inst, spec)
    return v @ run.blocks @ v.T
