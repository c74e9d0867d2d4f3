"""The weight basis: u's closed-form eigen frame, the coordinates of |s>
and |w> against the dense projections they stand for, the operators
against their compressions through the dense basis B
(``support.weight_basis``), the dimension d', the operators' unitarity,
the success tables' series against ``markov_evolve`` (bit for bit) and
against its run on the orbit basis (``support.orbit_evolve``), the
independent reference, and the witnesses' system and joint series
against their runs on the orbit basis (``support.orbit_cp_series``,
``support.orbit_blp_series``), each to 1e-12."""

import math

import numpy as np
import pytest
from support import (
    dicke_operators_loop,
    haar_noise,
    orbit_blp_series,
    orbit_class,
    orbit_cp_series,
    orbit_evolve,
    weight_basis,
)

from noisygrover import markov, noise
from noisygrover.collision import collision_evolve, thermal_weights, transfer_weights
from noisygrover.grover import GroverInstance, grover_operator, uniform_superposition
from noisygrover.linalg import projector
from noisygrover.markov import MarkovNoiseParams, markov_evolve, markov_series
from noisygrover.measures import n_blp, n_cp
from noisygrover.noise import PRESETS, build_chi, noise_spec, noise_unitary, single_qubit_unitary

# The presets, two Haar draws, a u within 1e-9 of a multiple of I, one
# within 1e-6 of diagonal, and -iX, whose eigenvector |-> leaves |+> a zero
# coordinate.
UNITARIES = (
    [noise_unitary(name) for name in PRESETS]
    + [haar_noise(np.random.default_rng(seed)) for seed in (41, 42)]
    + [
        single_qubit_unitary(1.0, 0.0, 1e-9),
        single_qubit_unitary(math.sqrt(1.0 - 1e-12), 1e-6, 0.3),
        single_qubit_unitary(0.0, -1j, 0.0),
    ]
)
POINTS = [MarkovNoiseParams(0.3, 0.6), MarkovNoiseParams(0.9, 0.95)]
WARM = thermal_weights(0.7)


def _frame_matrix(frame):
    """(V, l) of an eigen frame: V[:, i] = v_i, read back from z and z'."""
    l, _, z, zf = frame
    return np.array([np.conj(z), np.conj(zf)]), np.array(l)


def _classes(n, marked):
    """Every (m, q) class of position sets on n qubits, () included."""
    return [()] + noise._class_representatives(n, marked)


def _coordinates(n, marked, positions, u):
    m, q, _ = noise._weight_class(n, marked, positions)
    return noise._weight_coordinates(n, m, q, noise._eigen_frame(u))


@pytest.mark.parametrize("u", UNITARIES, ids=range(len(UNITARIES)))
def test_eigen_frame_diagonalizes_u(u):
    frame = noise._eigen_frame(u)
    v, l = _frame_matrix(frame)
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 4e-16
    assert np.max(np.abs(np.abs(l) - 1.0)) <= 4e-16
    assert np.max(np.abs(v @ np.diag(l) @ v.conj().T - u.matrix)) <= 1e-15
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert np.max(np.abs(np.array(frame[1]) - v.conj().T @ plus)) <= 4e-16


def test_eigen_frame_of_a_multiple_of_the_identity_is_the_standard_basis():
    for theta in (0.0, 1.0, math.pi):
        half = complex(math.cos(theta / 2), math.sin(theta / 2))
        v, l = _frame_matrix(noise._eigen_frame(single_qubit_unitary(half, 0.0, theta)))
        assert np.array_equal(v, np.eye(2))
        assert np.max(np.abs(l - half)) <= 4e-16


def _weight_of(n, positions, v):
    """The unitary whose columns are the eigen product states (V on the
    noisy qubits, I elsewhere), and each column's weight j."""
    full, weight = np.ones((1, 1)), np.zeros(1, dtype=int)
    for qubit in range(n):
        noisy = qubit in positions
        full = np.kron(full, v if noisy else np.eye(2))
        weight = (weight[:, None] + (np.arange(2) if noisy else np.zeros(2, dtype=int))).ravel()
    return full, weight


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weight_coordinates_are_the_dense_projections(n):
    # |x| = |P_j s|, c = x^dagger y / |x| and |y|^2 = |c|^2 + r^2 with
    # y = P_j w, each P_j formed densely from u's eigenbasis on the noisy
    # qubits; chi is lambda_j on P_j s and P_j w.
    for marked in range(2**n):
        inst = GroverInstance(n, marked)
        s, w = uniform_superposition(inst), np.eye(inst.N)[marked]
        for u in UNITARIES:
            v, _ = _frame_matrix(noise._eigen_frame(u))
            for positions in _classes(n, marked):
                m, q, _ = noise._weight_class(n, marked, positions)
                lam, s_slots, w_slots, size_n = _coordinates(n, marked, positions, u)
                assert size_n == 2**n
                full, weight = _weight_of(n, positions, v)
                chi = build_chi(n, noise_spec(u, m, n, positions))
                slot = 0
                for j in range(m + 1):
                    proj = full[:, weight == j] @ full[:, weight == j].conj().T
                    x, y = proj @ s, proj @ w
                    size = np.linalg.norm(x)
                    assert abs(s_slots[slot] - size) <= 1e-15
                    if size > 1e-6:
                        assert abs(w_slots[slot] - np.vdot(x, y) / size) <= 1e-14
                    two = m < n or 0 < j < m and 0 < q < m
                    rest = abs(w_slots[slot + 1]) ** 2 if two else 0.0
                    assert abs(abs(w_slots[slot]) ** 2 + rest - np.vdot(y, y).real) <= 1e-14
                    for vector in (x, y):
                        assert np.max(np.abs(chi @ vector - lam[slot] * vector)) <= 1e-14
                    slot += 2 if two else 1
                assert slot == len(lam) == len(s_slots) == len(w_slots)


@pytest.mark.parametrize("n", range(1, 7))
def test_weight_basis_compresses_the_register_operators_to_the_weight_system(n):
    # B^dagger chi B, B^dagger G B and B^dagger G' B are the weight
    # system's chi, G and G', B^dagger |s> its |s>, B^dagger B = I and
    # column 0 of B is |w>: every class of three marked indices, every u.
    N = 2**n
    for marked in sorted({0, N - 1, N // 3}):
        inst = GroverInstance(n, marked)
        s, w, g = uniform_superposition(inst), np.eye(N)[marked], grover_operator(inst)
        for u in UNITARIES:
            for positions in _classes(n, marked):
                spec = noise_spec(u, len(positions), n, positions)
                b = weight_basis(inst, spec)
                chi = build_chi(n, spec)
                want = noise._weight_system(n, marked, u, positions)
                got = [b.conj().T @ op @ b for op in (chi, g, chi @ g)] + [b.conj().T @ s]
                for a, c in zip(got, want, strict=True):
                    assert np.max(np.abs(a - c)) <= 1e-13, (marked, u, positions)
                assert np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))) <= 1e-13
                assert np.max(np.abs(b[:, 0] - w)) <= 1e-13


@pytest.mark.parametrize("n", range(1, 9))
def test_weight_dim_is_the_sum_over_weights_of_min_two_and_the_block(n):
    # d' = sum_j min(2, nc #{a + b = j : a <= m - q, b <= q}), at most the
    # orbit dimension d, and 2(m + 1) whenever m < n; noise._weight_class
    # gives it as its third value.
    for marked in range(2**n):
        for positions in _classes(n, marked):
            m, q, d = orbit_class(n, marked, positions)
            nc = 2 if m < n else 1
            blocks = [
                nc * sum(1 for a in range(m - q + 1) if 0 <= j - a <= q) for j in range(m + 1)
            ]
            want = sum(min(2, size) for size in blocks)
            assert want <= d
            assert noise._weight_class(n, marked, positions) == (m, q, want)
            for u in UNITARIES:
                assert len(_coordinates(n, marked, positions, u)[0]) == want
            if m < n:
                assert want == 2 * (m + 1)
            else:
                assert want == (m + 1 if q in (0, m) else 2 * m)


def _unitarity(a):
    eye = np.eye(a.shape[-1])
    return np.max(np.abs(a.conj().swapaxes(-1, -2) @ a - eye))


@pytest.mark.parametrize("n", [20, 40])
def test_weight_operators_are_unitary_and_start_at_s(n):
    rng = np.random.default_rng(n)
    for marked in (0, 2**n - 1, int(rng.integers(2**n))):
        for u in UNITARIES:
            for positions in _classes(n, marked)[:: max(1, n // 4)]:
                _, g, gp, s = noise._weight_operators([_coordinates(n, marked, positions, u)])
                assert g.dtype == s.dtype == float
                assert _unitarity(g) <= 4e-15 and _unitarity(gp) <= 4e-15
                assert s[0, 0] == math.sqrt(1.0 / 2**n) and abs(np.linalg.norm(s) - 1.0) <= 4e-16


def _check_series(inst, spec, rows, points, steps, bath=None):
    """Each row of a table's series is ``markov_evolve``'s series at its
    point bit for bit, and the orbit basis's (``orbit_evolve``) to 1e-12."""
    for row, params in zip(rows, points, strict=True):
        assert np.array_equal(row, markov_evolve(inst, spec, params, steps, bath).probabilities)
        want = orbit_evolve(inst, spec, params, steps, bath).probabilities
        assert np.max(np.abs(row - want)) <= 1e-12, (inst, spec.positions)


@pytest.mark.parametrize("n", range(1, 11))
def test_table_series_equal_markov_evolve(n):
    # Every class of three marked indices, pure and thermal, 60 steps; from
    # n = 6 on, each marked index takes every third unitary in turn.
    N = 2**n
    for k, marked in enumerate(sorted({0, N - 1, N // 3})):
        inst = GroverInstance(n, marked)
        for u in UNITARIES if n <= 5 else UNITARIES[k::3]:
            systems = [(inst, noise_spec(u, len(c), n, c)) for c in _classes(n, marked)]
            for bath, points in ((None, POINTS), (WARM, POINTS[:1])):
                (table,) = markov._table(markov._group_series, systems, points, 60, bath)
                for i, (_, spec) in enumerate(systems):
                    _check_series(inst, spec, table[i], points, 60, bath)


def test_series_equal_markov_evolve_at_sampled_classes_up_to_forty_qubits():
    # Orbit dimension d <= 64 keeps each orbit reference's kept blocks small.
    rng = np.random.default_rng(40)
    checked = 0
    while checked < 24:
        n = int(rng.integers(11, 41))
        marked = int(rng.integers(2**n))
        m = int(rng.integers(1, n + 1))
        positions = tuple(sorted(int(p) for p in rng.choice(n, m, replace=False)))
        if orbit_class(n, marked, positions)[2] > 64:
            continue
        inst, u = GroverInstance(n, marked), UNITARIES[checked % len(UNITARIES)]
        spec = noise_spec(u, m, n, positions)
        _check_series(inst, spec, markov_series(inst, spec, POINTS, 60), POINTS, 60)
        checked += 1


def test_a_u_off_unitary_by_rounding_runs_the_same_on_every_path():
    # single_qubit_unitary accepts |a|^2 + |b|^2 within 1e-10 of 1; here it
    # is 1 + 8e-11. markov_evolve and the tables take u from the same
    # eigen frame, so their series are the same bits.
    root = math.sqrt(0.5 + 4e-11)
    u = single_qubit_unitary(root, 1j * root, 0.7)
    assert abs(abs(u.a) ** 2 + abs(u.b) ** 2 - 1.0) > 7e-11
    inst, spec = GroverInstance(10), noise_spec(u, 5, 10)
    params = MarkovNoiseParams(0.5, 0.5)
    got = markov_evolve(inst, spec, params, 200).probabilities
    assert np.array_equal(got, markov_series(inst, spec, [params], 200)[0])


def test_three_thousand_noisy_steps_at_twenty_qubits():
    # The orbit reference is orbit_evolve's own set-up, without its kept
    # blocks: G, G' and |s> at d = 24 (m = 5, q = 2).
    inst, positions = GroverInstance(20, 12345), (0, 3, 7, 11, 19)
    first, steady = transfer_weights(POINTS)
    for u in (noise_unitary("hadamard"), noise_unitary("y"), UNITARIES[5]):
        spec = noise_spec(u, 5, 20, positions)
        _, g, gp, s = dicke_operators_loop(20, inst.marked, u.matrix, positions)
        assert g.shape == (24, 24)
        sigma0 = markov._label_start(projector(s))
        want = collision_evolve(g, gp, first, steady, sigma0, 3000).probabilities
        got = markov_series(inst, spec, POINTS, 3000)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("marked", range(32))
def test_invariance_at_five_qubits_runs_four_step_loops(monkeypatch, marked):
    # d' = 4, 6, 8 for m = 1, 2, 3 and 10 for m = 4, and m = 5 (10 or 6)
    # joins the group of its d'.
    sizes = []
    real = markov.collision_evolve

    def spy(g, *args, **kwargs):
        sizes.append(g.shape[-1])
        return real(g, *args, **kwargs)

    monkeypatch.setattr(markov, "collision_evolve", spy)
    inst = GroverInstance(5, marked)
    classes = noise._class_representatives(5, marked)
    systems = [(inst, noise_spec(UNITARIES[5], len(c), 5, c)) for c in classes]
    markov._table(markov._group_series, systems, POINTS[:1], 25)
    assert sizes == [4, 6, 8, 10]


# The presets and the two Haar draws.
WITNESS_UNITARIES = UNITARIES[:7]


def _split_classes(n, marked):
    """One position set per class of n_blp's split space: each class of the
    other n - 1 qubits (:func:`_classes` there, shifted past qubit 0), with
    qubit 0 clean and with it noisy."""
    rest = _classes(n - 1, marked % 2 ** (n - 1)) if n > 1 else [()]
    shifted = [tuple(p + 1 for p in c) for c in rest]
    return shifted + [(0,) + c for c in shifted]


def _check_witnesses(inst, spec, cp=True, blp=True, steps=20):
    """n_cp's series (pure, both points) and n_blp's system and joint
    series (pure, both points; warm, the first) against their orbit-basis
    runs, to 1e-12."""
    if cp:
        got = n_cp(inst, spec, POINTS, steps).series
        want = orbit_cp_series(inst, spec, POINTS, steps)
        assert np.max(np.abs(got - want)) <= 1e-12, (inst, spec.positions)
    for bath, points in ((None, POINTS), (WARM, POINTS[:1])) if blp else ():
        result = n_blp(inst, spec, points, steps, bath)
        system, joint = orbit_blp_series(inst, spec, points, steps, bath)
        assert np.max(np.abs(result.series - system)) <= 1e-12, (inst, spec.positions, bath)
        assert np.max(np.abs(result.meta["joint_series"] - joint)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_witnesses_equal_their_orbit_basis_runs(n):
    # Every class of three marked indices: n_cp's (m, q) classes and
    # n_blp's (qubit 0 noisy or not, class of the rest); from n = 6 on,
    # each marked index takes one of hadamard and the two Haar draws.
    N = 2**n
    for k, marked in enumerate(sorted({0, N - 1, N // 3})):
        inst = GroverInstance(n, marked)
        for u in WITNESS_UNITARIES if n <= 5 else WITNESS_UNITARIES[4 + k : 5 + k]:
            for positions in _classes(n, marked):
                _check_witnesses(inst, noise_spec(u, len(positions), n, positions), blp=False)
            for positions in _split_classes(n, marked):
                _check_witnesses(inst, noise_spec(u, len(positions), n, positions), cp=False)


def test_witnesses_equal_their_orbit_basis_runs_at_sampled_classes():
    # n_cp up to n = 40 and n_blp up to n = 30, where the orbit reference's
    # d (n_cp) or d_rest (n_blp) is at most 48.
    rng = np.random.default_rng(38)
    for witness, top, checked in (("cp", 41, 0), ("blp", 31, 0)):
        while checked < 10:
            n = int(rng.integers(11, top))
            marked = int(rng.integers(2**n))
            m = int(rng.integers(1, n + 1))
            positions = tuple(sorted(int(p) for p in rng.choice(n, m, replace=False)))
            if witness == "cp":
                d = orbit_class(n, marked, positions)[2]
            else:
                rest = tuple(p - 1 for p in positions if p)
                d = orbit_class(n - 1, marked % 2 ** (n - 1), rest)[2]
            if d > 48:
                continue
            spec = noise_spec(WITNESS_UNITARIES[checked % 7], m, n, positions)
            _check_witnesses(GroverInstance(n, marked), spec, witness == "cp", witness == "blp")
            checked += 1
