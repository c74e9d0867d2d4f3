"""oracle-check on the orbit space. V = orbit_basis holds |s> and is
invariant under G and G', so every history state O_h |s> lies in its span:
the history sums H_t of the dense N x N operators and the sums h_t of the
d x d Dicke operators meet as h_t = V^T H_t V, and H_t = V h_t V^T."""

import itertools

import numpy as np
import pytest
from support import dense_operators, haar_noise

from noisygrover.grover import GroverInstance
from noisygrover.markov import history_oracle
from noisygrover.noise import (
    MarkovNoiseParams,
    _dicke_operators,
    noise_spec,
    noise_unitary,
    orbit_basis,
)

NOISES = tuple(noise_unitary(name) for name in ("x", "y", "z", "hadamard")) + (
    haar_noise(np.random.default_rng(32)),
)
# Memoryless labels and labels with memory.
POINTS = (MarkovNoiseParams(0.3, 0.0), MarkovNoiseParams(0.3, 0.5))
STEPS = 6


def _sums(inst, spec, params):
    # (H_t, h_t): the history sums of the register and of the orbit space
    dense = history_oracle(*dense_operators(inst, spec), params, STEPS)
    orbit = history_oracle(
        *_dicke_operators(inst.n, inst.marked, spec.u.matrix, spec.positions)[1:], params, STEPS
    )
    return dense, orbit


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_history_sums_are_the_register_sums_on_the_orbit_space(n):
    # Every m, each with its own seeded marked index.
    rng = np.random.default_rng(50 + n)
    for m in range(n + 1):
        inst = GroverInstance(n, int(rng.integers(2**n)))
        v = orbit_basis(inst, noise_spec(NOISES[0], m, n))  # V does not depend on u
        for u, params in itertools.product(NOISES, POINTS):
            dense, orbit = _sums(inst, noise_spec(u, m, n), params)
            compressed = v.T @ dense @ v
            assert np.max(np.abs(orbit - compressed)) <= 1e-14, (inst, m, u, params)
            assert np.max(np.abs(dense - v @ compressed @ v.T)) <= 1e-14, (inst, m, u, params)


def test_a_permuted_orbit_basis_breaks_the_compression():
    # Exchanging the columns of any two classes (j, k, c) of V gives a basis
    # of the same span whose compression of H_t no longer equals h_t. The
    # noise is the Haar u: under the presets some classes carry equal
    # amplitudes in every history, and exchanging those leaves h_t as it is.
    inst = GroverInstance(4, 0b0110)
    spec = noise_spec(NOISES[-1], 3, 4)
    v = orbit_basis(inst, spec)
    dense, orbit = _sums(inst, spec, POINTS[1])
    assert np.max(np.abs(orbit - v.T @ dense @ v)) <= 1e-14
    for a, b in itertools.combinations(range(v.shape[1]), 2):
        permuted = v.copy()
        permuted[:, [a, b]] = v[:, [b, a]]
        assert np.max(np.abs(orbit - permuted.T @ dense @ permuted)) > 1e-3, (a, b)
