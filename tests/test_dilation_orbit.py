"""dilation-check on the weight basis. B = support.weight_basis holds |s>
and is invariant under G and chi, so the register's collision unitary U
and the one built from the d' x d' operators the CLI builds
(``noise._weight_system``), U_d', meet as U (I_8 (x) B) = (I_8 (x) B) U_d';
and the full-register check, run here from the dense operators, passes
the same gates as the CLI's. (The test names say "orbit" for the basis
these checks were tied through before the weight basis.)"""

import itertools

import numpy as np
import pytest
from support import haar_noise, weight_basis

from noisygrover import cli, collision
from noisygrover.collision import dilation_unitary
from noisygrover.grover import GroverInstance, grover_operator
from noisygrover.noise import (
    MarkovNoiseParams,
    _weight_system,
    build_chi,
    noise_spec,
    noise_unitary,
    noisy_grover,
)

NOISES = tuple(noise_unitary(name) for name in ("x", "y", "z", "hadamard")) + (
    haar_noise(np.random.default_rng(31)),
)
# The first collision (mu = 0) and a steady step with memory.
STEPS = (MarkovNoiseParams(0.3, 0.0), MarkovNoiseParams(0.3, 0.5))


def _intertwining(u_full, u_reduced, v):
    # max |U (I_8 (x) B) - (I_8 (x) B) U_d'|, one block of the two 8 x 8
    # grids at a time: block (i, j) is U[i, j] B - B U_d'[i, j]. Only the
    # blocks the layout fills are taken; every other block of
    # dilation_unitary is an exact zero on both sides.
    n_dim, d = v.shape
    full = u_full.reshape(8, n_dim, 8, n_dim)
    reduced = u_reduced.reshape(8, d, 8, d)
    rows, cols = np.array([entry[:2] for entry in collision._LAYOUT]).T
    return float(np.max(np.abs(full[rows, :, cols] @ v - v @ reduced[rows, :, cols])))


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_unitary_is_the_register_unitary_on_the_orbit_space(n):
    chis = {(m, u): build_chi(n, noise_spec(u, m, n)) for m in range(n + 1) for u in NOISES}
    for marked in range(2**n):
        inst = GroverInstance(n, marked)
        g = grover_operator(inst)
        for m in range(n + 1):
            for u in NOISES:
                spec = noise_spec(u, m, n)
                v = weight_basis(inst, spec)
                gp = noisy_grover(g, chis[m, u])
                _, g_d, gp_d, _ = _weight_system(n, marked, u, spec.positions)
                for params in STEPS:
                    dev = _intertwining(
                        dilation_unitary(params, g, gp), dilation_unitary(params, g_d, gp_d), v
                    )
                    assert dev <= 1e-14, (marked, m, u, params, dev)


def test_a_permuted_orbit_basis_breaks_the_intertwining():
    # Exchanging any two columns of B gives a basis of the same span that
    # no longer meets U_d'.
    inst = GroverInstance(4, 0b0110)
    spec = noise_spec(noise_unitary("hadamard"), 3, 4)
    v = weight_basis(inst, spec)
    g = grover_operator(inst)
    _, g_d, gp_d, _ = _weight_system(inst.n, inst.marked, spec.u, spec.positions)
    u_full = dilation_unitary(STEPS[1], g, noisy_grover(g, build_chi(inst.n, spec)))
    u_reduced = dilation_unitary(STEPS[1], g_d, gp_d)
    assert _intertwining(u_full, u_reduced, v) <= 1e-14
    for a, b in itertools.combinations(range(v.shape[1]), 2):
        permuted = v.copy()
        permuted[:, [a, b]] = v[:, [b, a]]
        assert _intertwining(u_full, u_reduced, permuted) > 1e-3, (a, b)


def _dense_row(point):
    # dilation-check's row from the dense N x N G, chi and G' in place of
    # the d' x d' ones: the row cli._dilation_point computes, from other
    # operators.
    inst, spec, params, trials, seed = point
    g = grover_operator(inst)
    chi = build_chi(inst.n, spec)
    return cli._dilation_row(params, g, noisy_grover(g, chi), chi, trials, seed)


def _failed_gates(row):
    # the gated columns of a dilation-check row above their tolerance (or NaN)
    return {
        name for name, tol in cli._DILATION_TOLS.items()
        if not row[cli._DILATION_COLUMNS.index(name)] <= tol
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_full_space_and_orbit_checks_pass_every_gate(n):
    # Every m, each with one of the noises in turn and a random marked index.
    rng = np.random.default_rng(40 + n)
    for m in range(n + 1):
        inst = GroverInstance(n, int(rng.integers(2**n)))
        u = NOISES[(n + m) % len(NOISES)]
        spec = noise_spec(u, m, n)
        for params in (MarkovNoiseParams(0.3, 0.5), MarkovNoiseParams(1.0, 0.25)):
            point = (inst, spec, params, 3, 11)
            dense, reduced = _dense_row(point), cli._dilation_point(point)
            assert _failed_gates(dense) == set() == _failed_gates(reduced), (inst, m, u, params)
            assert dense[-1] == reduced[-1] == 1  # m_control


@pytest.mark.parametrize("entry", range(len(collision._LAYOUT)))
def test_a_flipped_layout_sign_fails_unitarity_on_both_sides(monkeypatch, entry):
    # Each block's sign keeps two columns of U orthogonal; with one flipped,
    # both the dense check and the CLI's fail both unitarity gates.
    layout = list(collision._LAYOUT)
    row, col, sign, pair, which = layout[entry]
    layout[entry] = (row, col, -sign, pair, which)
    monkeypatch.setattr(collision, "_LAYOUT", tuple(layout))
    point = (
        GroverInstance(3, 5), noise_spec(noise_unitary("hadamard"), 2, 3),
        MarkovNoiseParams(0.3, 0.5), 2, 7,
    )
    for checked in (_dense_row(point), cli._dilation_point(point)):
        assert {"unitarity_initial", "unitarity_steady"} <= _failed_gates(checked)
