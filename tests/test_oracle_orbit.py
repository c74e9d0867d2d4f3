"""oracle-check on the weight basis. B = support.weight_basis holds |s>
and is invariant under G and G', so every history state O_h |s> lies in
its span: the history sums H_t of the dense N x N operators and the sums
h_t of the d' x d' operators the CLI builds (``noise._weight_system``)
meet as h_t = B^dagger H_t B, and H_t = B h_t B^dagger. (The test names
say "orbit" for the basis these sums were tied through before the weight
basis.)"""

import itertools

import numpy as np
import pytest
from support import dense_operators, haar_noise, weight_basis

from noisygrover.grover import GroverInstance
from noisygrover.markov import history_oracle
from noisygrover.noise import MarkovNoiseParams, _weight_system, noise_spec, noise_unitary

NOISES = tuple(noise_unitary(name) for name in ("x", "y", "z", "hadamard")) + (
    haar_noise(np.random.default_rng(32)),
)
# Memoryless labels and labels with memory.
POINTS = (MarkovNoiseParams(0.3, 0.0), MarkovNoiseParams(0.3, 0.5))
STEPS = 6


def _sums(inst, spec, params):
    # (H_t, h_t): the history sums of the register and of the weight basis
    dense = history_oracle(*dense_operators(inst, spec), params, STEPS)
    reduced = history_oracle(
        *_weight_system(inst.n, inst.marked, spec.u, spec.positions)[1:], params, STEPS
    )
    return dense, reduced


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_history_sums_are_the_register_sums_on_the_orbit_space(n):
    # Every m, each with its own seeded marked index.
    rng = np.random.default_rng(50 + n)
    for m in range(n + 1):
        inst = GroverInstance(n, int(rng.integers(2**n)))
        for u, params in itertools.product(NOISES, POINTS):
            spec = noise_spec(u, m, n)
            v = weight_basis(inst, spec)
            dense, reduced = _sums(inst, spec, params)
            compressed = v.conj().T @ dense @ v
            assert np.max(np.abs(reduced - compressed)) <= 1e-14, (inst, m, u, params)
            lifted = v @ compressed @ v.conj().T
            assert np.max(np.abs(dense - lifted)) <= 1e-14, (inst, m, u, params)


def test_a_permuted_orbit_basis_breaks_the_compression():
    # Exchanging any two columns of B gives a basis of the same span whose
    # compression of H_t no longer equals h_t. The noise is the Haar u.
    inst = GroverInstance(4, 0b0110)
    spec = noise_spec(NOISES[-1], 3, 4)
    v = weight_basis(inst, spec)
    dense, reduced = _sums(inst, spec, POINTS[1])
    assert np.max(np.abs(reduced - v.conj().T @ dense @ v)) <= 1e-14
    for a, b in itertools.combinations(range(v.shape[1]), 2):
        permuted = v.copy()
        permuted[:, [a, b]] = v[:, [b, a]]
        assert np.max(np.abs(reduced - permuted.conj().T @ dense @ permuted)) > 1e-3, (a, b)
