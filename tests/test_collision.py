import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from support import (
    blp_pair,
    chunks_loop,
    completeness_defect,
    extract_m_loop,
    haar_noise,
    initial_joint_state,
    label_blocks,
    lift,
    pure_step_image,
    random_density,
    random_pure_state,
    success_loop,
    unitality_defect,
    unitarity_defect_loop,
    verify_dilation_loop,
)

from noisygrover import cli, collision
from noisygrover.collision import (
    KrausSet,
    apply_kraus,
    channel_maps,
    collision_evolve,
    collision_first_max,
    dilation_unitary,
    extract_m,
    kraus_from_dilation,
    kraus_step,
    thermal_kraus,
    thermal_weights,
    transfer_weights,
    unitarity_defect,
    verify_dilation,
)
from noisygrover.grover import GroverInstance, grover_operator, marked_state, uniform_superposition
from noisygrover.linalg import (
    InvariantViolation,
    partial_trace,
    projector,
    require_density,
    tensor,
    trace_distance,
    trace_norm,
)
from noisygrover.markov import (
    MarkovNoiseParams,
    conditional_probs,
    markov_evolve,
)
from noisygrover.noise import (
    build_chi,
    noise_spec,
    noise_unitary,
    noisy_grover,
    single_qubit_unitary,
)

INST = GroverInstance(2)
G = grover_operator(INST)
CHI = build_chi(2, noise_spec(noise_unitary("x"), 1, 2))
GP = CHI @ G

GRID = [
    MarkovNoiseParams(p, mu)
    for p, mu in itertools.product((0.0, 0.1, 0.5, 0.9, 1.0), (0.0, 0.5, 1.0))
]

# The two collisions of a run, as test ids: the first has no previous
# label, so it is the steady step at mu = 0.
STEPS = ("initial", "steady")


def _step(which, params):
    return MarkovNoiseParams(params.p, 0.0) if which == "initial" else params


def _stationary(p):
    # The first collision's chain weights [next, previous], by hand: it has
    # no previous label, so every column is the stationary law (1 - p, p).
    return np.array([[1.0 - p, 1.0 - p], [p, p]])


def _stationary_kraus(p, g, gp):
    # kraus_step's layout on those weights: sqrt(w[r, c]) G or G' in
    # walker block (r, c).
    n_dim, w = g.shape[0], _stationary(p)
    ops = []
    for row, col in itertools.product(range(2), range(2)):
        k = np.zeros((2 * n_dim, 2 * n_dim), dtype=complex)
        k[row * n_dim : (row + 1) * n_dim, col * n_dim : (col + 1) * n_dim] = (
            math.sqrt(w[row, col]) * (g, gp)[row]
        )
        ops.append(k)
    return ops


def _stationary_dilation(p, g, gp):
    # The collision unitary's block layout on those weights.
    n_dim, w = g.shape[0], _stationary(p)
    u = np.zeros((8 * n_dim, 8 * n_dim), dtype=complex)
    for row, col, sign, pair, which in collision._LAYOUT:
        block = sign * (math.sqrt(w[pair]) * (g, gp)[which])
        u[row * n_dim : (row + 1) * n_dim, col * n_dim : (col + 1) * n_dim] = block
    return u


def _stationary_transfer(p, bath):
    # W[r, c, op] on those weights: pure ancillas feed block c into block r
    # through op r alone; a bath weighs the layout's incidence table with
    # the ancilla populations.
    w = _stationary(p)
    if bath is None:
        out = np.zeros((2, 2, 2))
        for row, col in itertools.product(range(2), range(2)):
            out[row, col, row] = w[row, col]
        return out
    mixed = bath.z1 * bath.z2
    pop = np.array([bath.z1**2, mixed, mixed, bath.z2**2])
    table = np.tensordot(pop, collision._INCIDENCE, axes=1)
    return np.einsum("bk,krco->brco", w.reshape(1, 4), table)[0]


@pytest.mark.parametrize("step", STEPS)
def test_kraus_completeness_everywhere(step):
    for params in GRID:
        kset = kraus_step(_step(step, params), G, GP)
        assert completeness_defect(kset.ops) < 1e-12, params


def test_kraus_block_structure():
    params = MarkovNoiseParams(0.3, 0.0)
    kset = kraus_step(params, G, GP)
    n = G.shape[0]
    k1 = np.zeros((2 * n, 2 * n), dtype=complex)
    k1[:n, :n] = math.sqrt(0.7) * G
    assert np.array_equal(kset.ops[0], k1)
    k4 = np.zeros((2 * n, 2 * n), dtype=complex)
    k4[n:, n:] = math.sqrt(0.3) * GP
    assert np.array_equal(kset.ops[3], k4)


def test_unitality_defect_formula():
    # sum K K^dagger deviates from I by (1 - mu)|1 - 2p| on the steady step
    # and |1 - 2p| on the first, so p = 1/2 is exactly unital.
    for params in GRID:
        steady = kraus_step(params, G, GP)
        expected = (1.0 - params.mu) * abs(1.0 - 2.0 * params.p)
        assert unitality_defect(steady.ops) == pytest.approx(expected, abs=1e-12)
        first = kraus_step(_step("initial", params), G, GP)
        assert unitality_defect(first.ops) == pytest.approx(
            abs(1.0 - 2.0 * params.p), abs=1e-12
        )
    loud = kraus_step(MarkovNoiseParams(0.3, 0.5), G, GP)
    assert unitality_defect(loud.ops) == pytest.approx(0.2, abs=1e-12)


def test_apply_kraus_preserves_density():
    rng = np.random.default_rng(42)
    r = random_density(8, rng)
    kset = kraus_step(MarkovNoiseParams(0.25, 0.6), G, GP)
    image = apply_kraus(kset, r)
    assert abs(np.trace(image).real - 1.0) < 1e-12
    assert np.max(np.abs(image - image.conj().T)) < 1e-12


@pytest.mark.parametrize("step", STEPS)
def test_dilation_is_unitary_for_all_parameters(step):
    for params in GRID:
        u = dilation_unitary(_step(step, params), G, GP)
        assert u.shape == (32, 32)
        assert unitarity_defect(u) < 1e-12, params


def test_dilation_kinds_agree_without_memory():
    # Without memory every collision is the first: the two steps of a run
    # have the same transfer tensors and the same Kraus sets, pure and
    # thermal.
    params = MarkovNoiseParams(0.35, 0.0)
    for bath in (None, thermal_weights(0.7)):
        first, steady = transfer_weights(params, bath)
        assert np.array_equal(first, steady)
        first, steady = channel_maps(params, G, GP, bath)
        assert all(np.array_equal(a, b) for a, b in zip(first.ops, steady.ops, strict=True))


@pytest.mark.parametrize("step", STEPS)
def test_kraus_sits_in_dilation_columns(step):
    params = _step(step, MarkovNoiseParams(0.3, 0.7))
    dil = dilation_unitary(params, G, GP)
    direct = kraus_step(params, G, GP)
    extracted = kraus_from_dilation(dil)
    assert len(extracted.ops) == len(direct.ops) == 4
    for a, b in zip(direct.ops, extracted.ops):
        assert np.array_equal(a, b)


def test_verify_dilation_passes_and_is_deterministic():
    params = MarkovNoiseParams(0.2, 0.4)
    dil = dilation_unitary(params, G, GP)
    dev1 = verify_dilation(dil, params, G, GP, trials=10, seed=7)
    dev2 = verify_dilation(dil, params, G, GP, trials=10, seed=7)
    assert dev1 < 1e-12
    assert dev1 == dev2


def test_verify_dilation_rejects_inputs_that_do_not_fit():
    params = MarkovNoiseParams(0.2, 0.4)
    dil = dilation_unitary(params, G, GP)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_dilation(dil, params, G, GP, trials=0)
    with pytest.raises(ValueError, match="does not fit"):
        verify_dilation(dil, params, G[:-1, :-1], GP[:-1, :-1])
    with pytest.raises(ValueError, match="operator shapes"):
        verify_dilation(dil, params, G, GP[:-1, :-1])


def test_verify_dilation_catches_mismatch():
    params = MarkovNoiseParams(0.2, 0.4)
    dil = dilation_unitary(params, G, GP)
    assert not verify_dilation(dil, params, 1.001 * G, GP, trials=3) <= 1e-12


def _haar_system(n, seed):
    # G and chi of a seeded Haar noise on a random m of n qubits, D = 2^n
    rng = np.random.default_rng(seed)
    g = grover_operator(GroverInstance(n, int(rng.integers(2**n))))
    m = int(rng.integers(1, n + 1))
    return g, build_chi(n, noise_spec(haar_noise(rng), m, n))


def _haar_operators(n, seed):
    g, chi = _haar_system(n, seed)
    return g, noisy_grover(g, chi)


def _full_product_dilation(u, params, g, gp, trials, seed):
    # Reference: the whole 8N x 8N product U (|00><00| (x) |psi><psi|) U^dagger,
    # on the seeded pure states verify_dilation draws, in the same order,
    # less the step written out; and the largest trace norm of those
    # differences, halved.
    n2 = u.shape[0] // 4
    anc = np.zeros((4, 4), dtype=complex)
    anc[0, 0] = 1.0
    rng = np.random.default_rng(seed)
    differences = []
    for _ in range(trials):
        psi = random_pure_state(n2, rng)
        r = np.outer(psi, psi.conj())
        reduced = partial_trace(u @ tensor(anc, r) @ u.conj().T, (4, n2), keep=(1,))
        differences.append(reduced - pure_step_image(params, g, gp, psi))
    return differences, max(0.5 * trace_norm(h) for h in differences)


def _spy_stacks(monkeypatch):
    # Records the differences of the two images that every trace_norm call
    # of verify_dilation takes; each call is one stack of trials.
    real, stacks = collision.trace_norm, []

    def spy(h):
        stacks.append(h)
        return real(h)

    monkeypatch.setattr(collision, "trace_norm", spy)
    return stacks


def _stack_sizes(trials, n2):
    # the members of each stack: full stacks of the entry budget, then the rest
    full = max(1, collision._BATCH_ENTRIES // n2**2)
    return [full] * (trials // full) + ([trials % full] if trials % full else [])


def _check_against_full_product(monkeypatch, params, g, gp, trials, seed):
    dil = dilation_unitary(params, g, gp)
    stacks = _spy_stacks(monkeypatch)
    dev = verify_dilation(dil, params, g, gp, trials=trials, seed=seed)
    differences, worst = _full_product_dilation(dil, params, g, gp, trials=trials, seed=seed)
    n2 = dil.shape[0] // 4
    # one norm per stack of trials, each member a 2N x 2N difference
    assert [h.shape for h in stacks] == [(k, n2, n2) for k in _stack_sizes(trials, n2)]
    members = np.concatenate(stacks)
    for ours, ref in zip(members, differences, strict=True):
        assert np.max(np.abs(ours - ref)) < 1e-12
    assert dev <= 1e-12 and abs(dev - worst) < 1e-12


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("n", [2, 3])
def test_verify_dilation_matches_full_product(monkeypatch, n, step):
    g, gp = _haar_operators(n, 40 + n)
    params = _step(step, MarkovNoiseParams(0.35, 0.6))
    _check_against_full_product(monkeypatch, params, g, gp, trials=6, seed=17)


@pytest.mark.parametrize("step", STEPS)
def test_verify_dilation_matches_full_product_with_a_remainder_stack(monkeypatch, step):
    # n = 4: 2N = 32, so a stack holds 16 trials and 37 split 16 + 16 + 5
    g, gp = _haar_operators(4, 44)
    params = _step(step, MarkovNoiseParams(0.35, 0.6))
    assert _stack_sizes(37, 32) == [16, 16, 5]
    _check_against_full_product(monkeypatch, params, g, gp, trials=37, seed=18)


@pytest.mark.parametrize("n,trials", [(2, 3), (4, 17), (5, 9), (6, 3)])
def test_verify_dilation_keeps_each_stack_within_the_entry_budget(monkeypatch, n, trials):
    g, gp = _haar_operators(n, 45)
    params = MarkovNoiseParams(0.35, 0.6)
    dil = dilation_unitary(params, g, gp)
    stacks = _spy_stacks(monkeypatch)
    assert verify_dilation(dil, params, g, gp, trials=trials, seed=19) <= 1e-12
    sizes = [h.shape[0] for h in stacks]
    for h in stacks:
        assert h.shape[0] == 1 or h.size <= collision._BATCH_ENTRIES
    # full stacks first: 4 trials at n = 5, one from n = 6 on
    assert sizes == _stack_sizes(trials, 2 * 2**n)
    assert sizes[0] == {2: 3, 4: 16, 5: 4, 6: 1}[n]


@pytest.mark.parametrize("n_dim", [1, 2, 6, 64, 128])
def test_probes_are_the_per_trial_draws_bitwise(n_dim):
    # verify_dilation draws a stack's probes at once; each equals the state
    # one random_pure_state call per trial gives, and the stream goes on
    # across stacks of one and of many trials.
    rng, reference = np.random.default_rng(150 + n_dim), np.random.default_rng(150 + n_dim)
    for count in (1, 5, 1, 64, 2):
        got = collision._probes(rng, count, 2 * n_dim)
        want = np.array([random_pure_state(2 * n_dim, reference) for _ in range(count)])
        assert got.shape == want.shape == (count, 2 * n_dim)
        assert np.array_equal(got, want), count


def _row(params, g, chi, trials, seed):
    # the dilation-check row of D x D operators, by column name
    row = cli._dilation_row(params, g, noisy_grover(g, chi), chi, trials, seed)
    return dict(zip(cli._DILATION_COLUMNS, row, strict=True))


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("n", [2, 3])
def test_dilation_dev_passes_a_unitary_on_the_ancilla_outputs(monkeypatch, n, step):
    # U' = (V (x) I_2D) U with V a seeded 4 x 4 unitary on the ancilla
    # outputs has the reduced channel of U but other |00> columns: the
    # dilation deviation still reads rounding, the Kraus defect does not.
    g, chi = _haar_system(n, 60 + n)
    rng = np.random.default_rng(70 + n)
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    mix = np.kron(v, np.eye(2 * g.shape[0]))
    real = cli.dilation_unitary
    monkeypatch.setattr(cli, "dilation_unitary", lambda *args: mix @ real(*args))
    row = _row(MarkovNoiseParams(0.35, 0.6), g, chi, trials=6, seed=17)
    assert row[f"dilation_dev_{step}"] <= 1e-12
    assert row[f"kraus_defect_{step}"] > 1e-3


def test_dilation_dev_sees_two_swapped_transfer_weights(monkeypatch):
    # W[0, 0, 0] and W[0, 1, 0] of the steady step swapped: the step loop
    # no longer runs U's channel, which the dilation deviation sees and the
    # Kraus defect, blind to W, does not. At mu = 0 the two are equal.
    g, chi = _haar_system(3, 160)
    params = MarkovNoiseParams(0.3, 0.6)
    clean = _row(params, g, chi, trials=5, seed=3)
    real = collision.transfer_weights

    def swapped(*args):
        first, steady = real(*args)
        steady = steady.copy()
        steady[..., 0, [0, 1], 0] = steady[..., 0, [1, 0], 0]
        return first, steady

    monkeypatch.setattr(collision, "transfer_weights", swapped)
    row = _row(params, g, chi, trials=5, seed=3)
    assert clean["dilation_dev_steady"] <= 1e-12
    assert row["dilation_dev_steady"] > 1e-6
    assert row["dilation_dev_initial"] == clean["dilation_dev_initial"] <= 1e-12
    assert row["kraus_defect_initial"] == row["kraus_defect_steady"] == 0.0


def test_verify_dilation_does_not_compare_a_map_with_itself(monkeypatch):
    g, gp = _haar_operators(3, 80)
    params = MarkovNoiseParams(0.35, 0.6)
    dil = dilation_unitary(params, g, gp)
    stacks = _spy_stacks(monkeypatch)
    assert verify_dilation(dil, params, g, gp, trials=10, seed=5) <= 1e-12
    members = [h for stack in stacks for h in stack]
    assert len(members) == 10
    assert all(np.max(np.abs(h)) < 1e-12 for h in members)
    # the two sides are computed differently, so rounding tells them apart
    assert any(h.any() for h in members)


@pytest.mark.parametrize("block", [(1, 0), (3, 1), (4, 0), (6, 1)])
def test_verify_dilation_sees_an_entry_off_the_layout(block):
    g, gp = _haar_operators(3, 50)
    params = MarkovNoiseParams(0.35, 0.6)
    dil = dilation_unitary(params, g, gp)
    n_dim = g.shape[0]
    row, col = block
    rows, cols = slice(row * n_dim, (row + 1) * n_dim), slice(col * n_dim, (col + 1) * n_dim)
    broken = dil.copy()
    assert not np.any(broken[rows, cols])  # the layout leaves this |00>-column block zero
    broken[rows, cols] = 1e-3 * g
    assert verify_dilation(broken, params, g, gp, trials=3) > 1e-6


@pytest.mark.parametrize("block", [(0, 0), (2, 1), (5, 0), (7, 1)])
def test_verify_dilation_sees_a_scaled_ancilla_zero_column_block(block):
    g, gp = _haar_operators(3, 50)
    params = MarkovNoiseParams(0.35, 0.6)
    dil = dilation_unitary(params, g, gp)
    n_dim = g.shape[0]
    broken = dil.copy()
    row, col = block
    broken[row * n_dim : (row + 1) * n_dim, col * n_dim : (col + 1) * n_dim] *= 1.001
    assert verify_dilation(broken, params, g, gp, trials=3) > 1e-6


def test_verify_dilation_keeps_a_nan_deviation(monkeypatch):
    # n = 4: 20 trials run as stacks of 16 and 4, over the two steps of a
    # point. A NaN entry in the steady step's |00> columns makes each of
    # its trials NaN, which trace_norm (which refuses a non-finite entry)
    # never sees; the first collision keeps the value it gets alone.
    g, gp = _haar_operators(4, 46)
    steps = [MarkovNoiseParams(0.2, 0.0), MarkovNoiseParams(0.2, 0.4)]
    stack = dilation_unitary(steps, g, gp)
    stack[1, 3, 5] = np.nan
    real, finite = collision.trace_norm, []

    def spy(h):
        finite.append(bool(np.isfinite(h).all()))
        return real(h)

    monkeypatch.setattr(collision, "trace_norm", spy)
    dev = verify_dilation(stack, steps, g, gp, trials=20)
    assert math.isnan(dev[1])
    assert dev[0] == verify_dilation(stack[0], steps[0], g, gp, trials=20) <= 1e-12
    assert math.isnan(verify_dilation(stack[1], steps[1], g, gp, trials=20))
    assert finite == [True] * 6


def test_extract_m_recovers_unitary_grid():
    for params in GRID:
        dil = dilation_unitary(params, G, GP)
        report = extract_m(dil, CHI, G)
        assert report.residual < 1e-10, params
        assert report.unitary_defect < 1e-10
        # the grid entries are the +-sqrt(prob) coefficients
        stay = math.sqrt(conditional_probs(params)[0, 0])
        assert abs(report.m_grid[0, 0] - stay) < 1e-12
        assert abs(report.m_grid[5, 5] + stay) < 1e-12


def _full_product_factorization(u, chi, g):
    # Reference: CX^dagger U (I_8 (x) G^dagger) as whole 8N x 8N products,
    # with CX controlled on the first ancilla's |1>: (M, residual, unitary
    # defect).
    n_dim = g.shape[0]
    proj = np.diag([0.0, 1.0])
    cx = tensor(proj, np.eye(4), chi) + tensor(np.eye(2) - proj, np.eye(4), np.eye(n_dim))
    m_full = cx.conj().T @ u @ tensor(np.eye(8), g.conj().T)
    m_grid = np.array([
        [np.trace(m_full[i * n_dim : (i + 1) * n_dim, j * n_dim : (j + 1) * n_dim]) / n_dim
         for j in range(8)]
        for i in range(8)
    ])
    residual = float(np.max(np.abs(m_full - tensor(m_grid, np.eye(n_dim)))))
    defect = float(np.max(np.abs(m_grid.conj().T @ m_grid - np.eye(8))))
    return m_grid, residual, defect


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_extract_m_matches_full_product(n, step):
    rng = np.random.default_rng(80 + n)
    inst = GroverInstance(n, int(rng.integers(2**n)))
    g = grover_operator(inst)
    chi = build_chi(n, noise_spec(haar_noise(rng), int(rng.integers(1, n + 1)), n))
    other = build_chi(n, noise_spec(haar_noise(rng), n, n))
    params = _step(step, MarkovNoiseParams(0.35, 0.6))
    dil = dilation_unitary(params, g, noisy_grover(g, chi))
    # With the dilation's own chi the factorization passes; with another chi
    # it fails, and the residual is that of the same control |1>.
    for cx_chi, passes in ((chi, True), (other, False)):
        report = extract_m(dil, cx_chi, g)
        m_grid, residual, defect = _full_product_factorization(dil, cx_chi, g)
        assert (report.residual <= 1e-8) is passes
        assert abs(report.residual - residual) < 1e-12
        assert abs(report.unitary_defect - defect) < 1e-12
        assert np.max(np.abs(report.m_grid - m_grid)) < 1e-12


@pytest.mark.parametrize("step", STEPS)
def test_extract_m_rejects_a_dilation_controlled_on_zero(step):
    # (X (x) I) U (X (x) I), X on the first ancilla, swaps U's halves, so it
    # factors with CX controlled on |0>. The layout puts every G' block where
    # the first ancilla is |1>, so only that control counts, and this U fails.
    params = _step(step, MarkovNoiseParams(0.35, 0.6))
    u = dilation_unitary(params, G, GP)
    half = u.shape[0] // 2
    swapped = np.roll(np.roll(u, half, axis=0), half, axis=1)
    report = extract_m(swapped, CHI, G)
    assert report.residual > 0.1
    assert abs(report.residual - _full_product_factorization(swapped, CHI, G)[1]) < 1e-12


def test_extract_m_keeps_a_nan_residual():
    params = MarkovNoiseParams(0.2, 0.4)
    broken = dilation_unitary(params, G, GP)
    broken[5, 9] = np.nan
    report = extract_m(broken, CHI, G)
    assert math.isnan(report.residual)


def _dense_kraus_sum(kset, r):
    # Reference: sum_k K_k R K_k^dagger on the whole 2N x 2N operators.
    return sum(k @ r @ k.conj().T for k in kset.ops)


def _scattered_set(n_dim, seed):
    # One operator whose nonzero rows (1, 3, N + 2) and columns (0, N + 1,
    # 2N - 1) are not contiguous and straddle the walker blocks, next to an
    # operator with one nonzero entry and an all-zero one.
    rng = np.random.default_rng(seed)
    scattered = np.zeros((2 * n_dim, 2 * n_dim), dtype=complex)
    rows, cols = [1, 3, n_dim + 2], [0, n_dim + 1, 2 * n_dim - 1]
    scattered[np.ix_(rows, cols)] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    single = np.zeros_like(scattered)
    single[n_dim - 1, n_dim] = 0.5 - 0.25j
    zero = np.zeros_like(scattered)
    return KrausSet((scattered, single, zero))


def _remixed(kset, seed):
    # K'_k = sum_j V_kj K_j with V a seeded random 4 x 4 unitary: the same
    # channel written with other operators.
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    ops = tuple(sum(v[k, j] * kset.ops[j] for j in range(4)) for k in range(4))
    return KrausSet(ops)


def _kraus_case(case):
    g, gp = _haar_operators(3, 90)
    if case == "scattered":
        return _scattered_set(g.shape[0], 91)
    params = {
        "initial": MarkovNoiseParams(0.35, 0.0),
        "steady": MarkovNoiseParams(0.35, 0.6),
        "remixed": MarkovNoiseParams(0.35, 0.6),
        "zero-weight": MarkovNoiseParams(0.0, 0.0),
    }[case]
    kset = kraus_step(params, g, gp)
    return _remixed(kset, 92) if case == "remixed" else kset


@pytest.mark.parametrize("case", ["initial", "steady", "remixed", "zero-weight", "scattered"])
def test_apply_kraus_matches_the_dense_sum(case):
    kset = _kraus_case(case)
    if case == "zero-weight":  # p = 0 gives G' zero weight at the first step
        assert sum(not k.any() for k in kset.ops) == 2
    rng = np.random.default_rng(93)
    dim = kset.ops[0].shape[0]
    for r in (
        random_density(dim, rng),
        np.outer(*(random_pure_state(dim, rng) for _ in range(2))),  # not Hermitian
    ):
        got = apply_kraus(kset, r)
        assert np.max(np.abs(got - _dense_kraus_sum(kset, r))) < 1e-14


@pytest.mark.parametrize("case", ["initial", "steady", "remixed", "zero-weight", "scattered"])
def test_apply_kraus_on_a_stack_equals_each_member(case):
    kset = _kraus_case(case)
    rng = np.random.default_rng(96)
    dim = kset.ops[0].shape[0]
    stack = np.array([random_density(dim, rng) for _ in range(3)] + [
        np.outer(*(random_pure_state(dim, rng) for _ in range(2)))  # not Hermitian
    ])
    got = apply_kraus(kset, stack)
    assert got.shape == stack.shape
    for member, r in zip(got, stack, strict=True):
        assert np.max(np.abs(member - apply_kraus(kset, r))) < 1e-15
    # a (2, 2) stack of stacks too
    nested = apply_kraus(kset, stack.reshape((2, 2) + stack.shape[1:]))
    assert np.max(np.abs(nested.reshape(got.shape) - got)) < 1e-15


def _variant(u, variant, gp):
    # U as built; with 1e-3 G' planted in grid block (0, 1), which the
    # layout leaves zero; with a NaN entry in block (1, 7), which it fills;
    # or with block column 3 all zero.
    u, n_dim = u.copy(), gp.shape[0]
    if variant == "planted":
        assert not u[:n_dim, n_dim : 2 * n_dim].any()
        u[:n_dim, n_dim : 2 * n_dim] = 1e-3 * gp
    elif variant == "nan":
        u[n_dim + 2, 7 * n_dim + 1] = np.nan
    elif variant == "zero-column":
        u[:, 3 * n_dim : 4 * n_dim] = 0.0
    return u


@pytest.mark.parametrize("variant", ["built", "planted", "nan", "zero-column"])
@pytest.mark.parametrize("step", STEPS)
def test_unitarity_defect_matches_the_dense_product(step, variant):
    g, gp = _haar_operators(3, 94)
    params = _step(step, MarkovNoiseParams(0.35, 0.6))
    u = _variant(dilation_unitary(params, g, gp), variant, gp)
    got = unitarity_defect(u)
    dense = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if variant == "nan":
        assert math.isnan(got) and math.isnan(dense)
        return
    assert abs(got - dense) < 1e-14
    if variant == "zero-column":  # block (3, 3) of U^dagger U is an exact zero
        assert got == dense == 1.0
        return
    assert (got > 1e-6) is (variant == "planted")


@pytest.mark.parametrize("variant", ["built", "planted", "nan"])
@pytest.mark.parametrize("step", STEPS)
def test_extract_m_matches_the_dense_product_off_the_layout(step, variant):
    rng = np.random.default_rng(95)
    g = grover_operator(GroverInstance(3, 5))
    chi = build_chi(3, noise_spec(haar_noise(rng), 2, 3))
    gp = noisy_grover(g, chi)
    params = _step(step, MarkovNoiseParams(0.35, 0.6))
    u = _variant(dilation_unitary(params, g, gp), variant, gp)
    report = extract_m(u, chi, g)
    m_grid, residual, defect = _full_product_factorization(u, chi, g)
    if variant == "nan":
        assert math.isnan(report.residual) and math.isnan(residual)
        assert math.isnan(report.unitary_defect) and math.isnan(defect)
        return
    assert np.max(np.abs(report.m_grid - m_grid)) < 1e-14
    assert abs(report.residual - residual) < 1e-14
    assert abs(report.unitary_defect - defect) < 1e-14
    # 1e-3 G' G^dagger = 1e-3 chi is no multiple of I, so the plant leaves
    # a residual.
    assert (report.residual > 1e-6) is (variant == "planted")
    assert (report.unitary_defect > 1e-6) is (variant == "planted")


def _same_report(got, ref):
    assert np.array_equal(got.m_grid, ref.m_grid, equal_nan=True)
    assert np.array_equal(
        [got.residual, got.unitary_defect],
        [ref.residual, ref.unitary_defect],
        equal_nan=True,
    )


# D = 4, 8, 32 and 64: the 32 block products of the layout run as one
# batched product up to D = 16, in 2 chunks at D = 32 and in 8 at D = 64.
@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_batched_block_products_equal_the_loops_bitwise(n):
    g, chi = _haar_system(n, 100 + n)
    gp = noisy_grover(g, chi)
    budget = max(1, collision._BATCH_ENTRIES // g.size)
    assert (budget < 32) is (n >= 5)
    steps = [MarkovNoiseParams(0.35, 0.0), MarkovNoiseParams(0.35, 0.6)]
    stack = dilation_unitary(steps, g, gp)
    defects = unitarity_defect(stack)
    assert defects.shape == (2,)
    for params, u, defect in zip(steps, stack, defects, strict=True):
        assert np.array_equal(u, dilation_unitary(params, g, gp))
        assert unitarity_defect(u) == defect == unitarity_defect_loop(u)
        _same_report(extract_m(u, chi, g), extract_m_loop(u, chi, g))


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_batched_block_products_equal_the_loops_at_zero_weights(p, mu):
    # A zero weight leaves blocks of the layout all zero, so the nonzero
    # blocks differ between a step and its first collision.
    g, chi = _haar_system(3, 110)
    gp = noisy_grover(g, chi)
    steps = [MarkovNoiseParams(p, 0.0), MarkovNoiseParams(p, mu)]
    stack = dilation_unitary(steps, g, gp)
    assert sum(not b.any() for b in stack[0].reshape(8, 8, 8, 8).swapaxes(1, 2).reshape(64, -1)) > 48
    for u, defect in zip(stack, unitarity_defect(stack), strict=True):
        assert unitarity_defect(u) == defect == unitarity_defect_loop(u)
        _same_report(extract_m(u, chi, g), extract_m_loop(u, chi, g))


_E = collision._BATCH_ENTRIES


@pytest.mark.parametrize("size", [1, _E // 2, _E // 2 + 1, _E - 1, _E, _E + 1, 3 * _E])
def test_chunks_of_one_size_are_the_floor_of_the_budget(size):
    # The stacks of extract_m, verify_dilation, dilation-check and
    # oracle-check: floor(E / size) items to a run, at least one.
    step = max(1, _E // size)
    for count in range(41):
        want = [slice(start, min(start + step, count)) for start in range(0, count, step)]
        assert list(collision._chunks(np.full(count, size))) == want, count


def test_chunks_cut_unitarity_defect_as_the_block_budget_did():
    # unitarity_defect's runs of block pairs, sized in entries, are the runs
    # of the same pairs sized in blocks against max(1, E // b), b the entries
    # of one block over every member: t <= E // b if and only if t b <= E.
    _, nonzero = collision._grid(dilation_unitary(MarkovNoiseParams(0.35, 0.6), G, GP))
    layout = np.array([
        np.count_nonzero(nonzero[:, j] & nonzero[:, k]) for j, k in np.argwhere(nonzero.T @ nonzero)
    ])
    rng = np.random.default_rng(7)
    for sizes in (layout, rng.integers(1, 9, 40), np.ones(32, dtype=int)):
        for members in (1, 2, 3):
            for n_dim in range(1, 130):
                b = members * n_dim**2
                got = list(collision._chunks(sizes * b))
                assert got == list(chunks_loop(sizes, max(1, _E // b))), (members, n_dim)


@pytest.mark.parametrize("n", [2, 5])
def test_batched_block_products_keep_a_nan_block(n):
    g, chi = _haar_system(n, 120 + n)
    steps = [MarkovNoiseParams(0.35, 0.0), MarkovNoiseParams(0.35, 0.6)]
    stack = dilation_unitary(steps, g, noisy_grover(g, chi))
    n_dim = g.shape[0]
    stack[1, n_dim : 2 * n_dim, 7 * n_dim :] = np.nan  # block (1, 7), which the layout fills
    defects = unitarity_defect(stack)
    assert not math.isnan(defects[0]) and math.isnan(defects[1])
    assert math.isnan(unitarity_defect(stack[1])) and math.isnan(unitarity_defect_loop(stack[1]))
    report = extract_m(stack[1], chi, g)
    assert math.isnan(report.residual)
    _same_report(report, extract_m_loop(stack[1], chi, g))


@pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_verify_dilation_on_a_stack_equals_each_step_alone(n, p):
    # The two steps of a point share their probes: a B = 2 stack gives each
    # member the value it gets alone, bitwise, and the one-trial loop's.
    g, gp = _haar_operators(n, 130 + n)
    steps = [MarkovNoiseParams(p, 0.0), MarkovNoiseParams(p, 0.6)]
    stack = dilation_unitary(steps, g, gp)
    stacked = verify_dilation(stack, steps, g, gp, trials=7, seed=21)
    assert stacked.shape == (2,)
    for params, u, value in zip(steps, stack, stacked, strict=True):
        assert verify_dilation(u, params, g, gp, trials=7, seed=21) == value <= 1e-12
        assert abs(verify_dilation_loop(u, params, g, gp, trials=7, seed=21) - value) <= 1e-15


def test_verify_dilation_stacks_its_trials_over_every_member(monkeypatch):
    # n = 3: 2D = 16, so a stack holds 16384 // 256 = 64 trials of each of
    # the B = 2 members, and 70 split 64 + 6, one trace_norm call each.
    g, gp = _haar_operators(3, 140)
    steps = [MarkovNoiseParams(0.35, 0.0), MarkovNoiseParams(0.35, 0.6)]
    stacks = _spy_stacks(monkeypatch)
    verify_dilation(dilation_unitary(steps, g, gp), steps, g, gp, trials=70, seed=3)
    assert [h.shape for h in stacks] == [(2, k, 16, 16) for k in (64, 6)]


def _transition_roots(params):
    roots = np.sqrt(conditional_probs(params))
    return {
        "g|g": roots[0, 0],
        "g|g'": roots[0, 1],
        "g'|g": roots[1, 0],
        "g'|g'": roots[1, 1],
    }


def test_quarter_blocks_relate_to_m_columns():
    # The 4x4 building blocks of the decomposition have entries of the form
    # +-(x + s)/y with s in {-1, 0, 1} and x, y magnitudes taken from one
    # column of M. Verify that structural claim entry by entry.
    params = MarkovNoiseParams(0.3, 0.6)
    r = _transition_roots(params)
    a4 = np.array(
        [
            [0.0, (r["g|g"] - 1.0) / r["g'|g"], 0.0, 0.0],
            [r["g|g'"] / r["g'|g'"], 0.0, 0.0, -1.0 / r["g'|g'"]],
            [-1.0 / r["g'|g'"], 0.0, 0.0, r["g|g'"] / r["g'|g'"]],
            [0.0, 0.0, -r["g|g"] / r["g'|g"], 0.0],
        ]
    )
    b4 = np.array(
        [
            [0.0, (r["g|g"] + 1.0) / r["g'|g"], 0.0, 0.0],
            [r["g|g'"] / r["g'|g'"], 0.0, 0.0, 1.0 / r["g'|g'"]],
            [1.0 / r["g'|g'"], 0.0, 0.0, r["g|g'"] / r["g'|g'"]],
            [0.0, 0.0, (r["g'|g"] + 1.0) / r["g|g"], 0.0],
        ]
    )
    dil = dilation_unitary(params, G, GP)
    m_grid = extract_m(dil, CHI, G).m_grid
    candidates = []
    for col in range(8):
        mags = [abs(m_grid[row, col]) for row in range(8) if abs(m_grid[row, col]) > 1e-12]
        for x in list(mags) + [0.0]:
            for y in mags:
                for s in (-1.0, 0.0, 1.0):
                    candidates.append((x + s) / y)
                    candidates.append(-(x + s) / y)
    for matrix in (a4, b4):
        for value in matrix.ravel():
            if value != 0.0:
                assert min(abs(value - c) for c in candidates) < 1e-9, value


@pytest.mark.parametrize("temperature,z1", [(1.0, 0.7310585786300049), (0.5, 0.8807970779778823)])
def test_thermal_weights_values(temperature, z1):
    bath = thermal_weights(temperature)
    assert bath.z1 == pytest.approx(z1, abs=1e-15)
    assert bath.z1 + bath.z2 == pytest.approx(1.0, abs=1e-15)
    assert bath.z1 > bath.z2


def test_thermal_weights_limits_and_validation():
    hot = thermal_weights(1e6)
    assert hot.z1 == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ValueError):
        thermal_weights(0.0)
    with pytest.raises(ValueError):
        thermal_weights(-1.0)


@pytest.mark.parametrize("temperature", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_thermal_kraus_completeness(temperature):
    params = MarkovNoiseParams(0.4, 0.6)
    bath = thermal_weights(temperature)
    for step in STEPS:
        kset = thermal_kraus(dilation_unitary(_step(step, params), G, GP), bath)
        assert len(kset.ops) == 16
        assert completeness_defect(kset.ops) < 1e-12


def test_thermal_cold_limit_reduces_to_pure_step():
    params = MarkovNoiseParams(0.4, 0.6)
    bath = thermal_weights(0.01)
    dil = dilation_unitary(params, G, GP)
    thermal = thermal_kraus(dil, bath)
    pure = kraus_step(params, G, GP)
    rng = np.random.default_rng(11)
    r = random_density(8, rng)
    assert np.max(np.abs(apply_kraus(thermal, r) - apply_kraus(pure, r))) < 1e-12


def test_channel_maps_dispatch():
    params = MarkovNoiseParams(0.3, 0.3)
    first, steady = channel_maps(params, G, GP)
    assert len(first.ops) == 4
    for got, want in zip((first, steady), (MarkovNoiseParams(0.3, 0.0), params)):
        assert all(np.array_equal(a, b) for a, b in zip(got.ops, kraus_step(want, G, GP).ops))
    bath = thermal_weights(1.0)
    first_t, steady_t = channel_maps(params, G, GP, bath=bath)
    assert len(first_t.ops) == 16 and len(steady_t.ops) == 16
    for got, want in zip((first_t, steady_t), (MarkovNoiseParams(0.3, 0.0), params)):
        expected = thermal_kraus(dilation_unitary(want, G, GP), bath)
        assert all(np.array_equal(a, b) for a, b in zip(got.ops, expected.ops))


@pytest.mark.parametrize("mu", [0.0, 1 / 3, 0.5, 1.0])
@pytest.mark.parametrize("p", [0.0, 1 / 3, 0.5, 1.0])
def test_first_collision_is_the_stationary_step(p, mu):
    # Every first-collision construction equals the one built by hand from
    # the stationary law, bitwise, whatever the memory of the later steps.
    params = MarkovNoiseParams(p, mu)
    others = [MarkovNoiseParams(0.2, 0.9), params, MarkovNoiseParams(1.0 - p, 1.0 - mu)]
    bath = thermal_weights(0.7)
    for ancillas in (None, bath):
        expected = _stationary_transfer(p, ancillas)
        assert np.array_equal(transfer_weights(params, ancillas)[0], expected)
        assert np.array_equal(transfer_weights(others, ancillas)[0][1], expected)
    kraus = _stationary_kraus(p, G, GP)
    u = _stationary_dilation(p, G, GP)
    thermal = thermal_kraus(u, bath).ops
    for got, want in (
        (channel_maps(params, G, GP)[0].ops, kraus),
        (channel_maps(params, G, GP, bath)[0].ops, thermal),
        (kraus_step(MarkovNoiseParams(p, 0.0), G, GP).ops, kraus),
    ):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(dilation_unitary(MarkovNoiseParams(p, 0.0), G, GP), u)


def test_collision_evolve_basics():
    params = MarkovNoiseParams(0.3, 0.3)
    first, steady = transfer_weights(params)
    sigma0 = label_blocks(initial_joint_state(INST))
    trace = collision_evolve(G, GP, first, steady, sigma0, 0)
    assert trace.probabilities.shape == (1,)
    assert trace.probabilities[0] == pytest.approx(0.25)
    assert trace.blocks is None
    trace = collision_evolve(G, GP, first, steady, sigma0, 4, keep_blocks=True)
    assert trace.blocks.shape == (5, 2, 4, 4)
    assert np.array_equal(trace.blocks[0], sigma0)
    require_density(trace.blocks, 1e-9, what="joint state t={}", blocks=True)
    assert trace.meta == {"dim": 4}
    with pytest.raises(ValueError):
        collision_evolve(G, GP, first, steady, sigma0, -1)
    with pytest.raises(ValueError, match="transfer weights shape"):
        collision_evolve(G, GP, first, steady[0], sigma0, 2)
    with pytest.raises(ValueError, match="transfer weights shape"):
        collision_evolve(G, GP, np.zeros((2, 2, 3)), steady, sigma0, 2)
    with pytest.raises(ValueError, match="operator shapes"):
        collision_evolve(G, GP[:2, :2], first, steady, sigma0, 2)
    small = label_blocks(random_density(4, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="operator shapes"):
        collision_evolve(G, GP, first, steady, small, 2)


def test_collision_evolve_validate_catches_broken_channel():
    params = MarkovNoiseParams(0.3, 0.3)
    first, steady = transfer_weights(params)
    sigma0 = label_blocks(initial_joint_state(INST))
    trace = collision_evolve(G, GP, first, 1.05**2 * steady, sigma0, 3, keep_blocks=True)
    with pytest.raises(InvariantViolation, match="t=2 is not a density matrix"):
        require_density(trace.blocks, 1e-9, what="joint state t={}", blocks=True)


@pytest.mark.parametrize("temperature", [None, 0.1, 0.5, 1.0, 3.0, 100.0])
def test_transfer_weights_columns_and_limits(temperature):
    bath = None if temperature is None else thermal_weights(temperature)
    for params in GRID:
        weights = transfer_weights(params, bath)
        for step, w in zip(STEPS, weights):
            assert w.shape == (2, 2, 2)
            assert np.max(np.abs(w.sum(axis=(0, 2)) - 1.0)) <= 1e-15, (params, step)
        if bath is None:
            # the kraus_step blocks: walker block c feeds block r through
            # op r with weight P[r, c]
            cold = transfer_weights(params, thermal_weights(0.01))
            for step, w, w_cold in zip(STEPS, weights, cold):
                chain = conditional_probs(_step(step, params))
                expected = np.zeros((2, 2, 2))
                for row, col in itertools.product(range(2), range(2)):
                    expected[row, col, row] = chain[row, col]
                assert np.array_equal(w, expected), (params, step)
                assert np.max(np.abs(w_cold - w)) < 1e-12, (params, step)


def _transfer_weights_loop(params, bath):
    # The per-point loop over _LAYOUT that the incidence table replaced.
    if bath is None:
        pop = (1.0, 0.0, 0.0, 0.0)
    else:
        mixed = bath.z1 * bath.z2
        pop = (bath.z1**2, mixed, mixed, bath.z2**2)
    out = []
    for step in STEPS:
        chain = conditional_probs(_step(step, params))
        tensor_w = np.zeros((2, 2, 2))
        for row, col, _sign, pair, which in collision._LAYOUT:
            tensor_w[row % 2, col % 2, which] += pop[col // 2] * chain[pair]
        out.append(tensor_w)
    return out


@pytest.mark.parametrize("temperature", [None, 0.1, 0.5, 1.0, 3.0, 100.0])
def test_transfer_weights_sequence_stacks_single_points(temperature):
    bath = None if temperature is None else thermal_weights(temperature)
    points = GRID + [MarkovNoiseParams(0.37, 0.61), MarkovNoiseParams(1e-9, 1.0 - 1e-9)]
    stacks = transfer_weights(tuple(points), bath)
    for stack in stacks:
        assert stack.shape == (len(points), 2, 2, 2)
    for b, params in enumerate(points):
        singles = transfer_weights(params, bath)
        for stack, one, loop in zip(stacks, singles, _transfer_weights_loop(params, bath)):
            assert one.shape == (2, 2, 2)
            if bath is None:  # one weight per entry: exact
                assert np.array_equal(stack[b], one) and np.array_equal(one, loop), params
            else:  # the populations are summed before the weights
                assert np.max(np.abs(stack[b] - one)) <= 1e-15, params
                assert np.max(np.abs(one - loop)) <= 1e-15, params


def _dense_evolve(first, steady, r0, steps, marked):
    # Reference: the full 2N x 2N joint state through the dense Kraus sum.
    n_dim = r0.shape[0] // 2
    r = np.array(r0, dtype=complex)
    joints = [r]
    for t in range(1, steps + 1):
        r = apply_kraus(first if t == 1 else steady, r)
        joints.append(r)
    states = [partial_trace(j, (2, n_dim), keep=(1,)) for j in joints]
    probs = np.array([rho[marked, marked].real for rho in states])
    return probs, states, joints


def _assert_blocks_match(blocks, states, joints):
    # The kept label blocks against the dense run: their sum is the system
    # state, they are the joint's two diagonal walker blocks, and from t = 1
    # on the joint's off-diagonal walker blocks are zero, so
    # diag(sigma_0, sigma_1) is the whole joint.
    h = blocks.shape[-1]
    assert len(blocks) == len(states) == len(joints)
    for t, (sigma, rho, joint) in enumerate(zip(blocks, states, joints)):
        assert np.max(np.abs(sigma.sum(axis=0) - rho)) < 1e-12, t
        assert np.max(np.abs(sigma[0] - joint[:h, :h])) < 1e-12, t
        assert np.max(np.abs(sigma[1] - joint[h:, h:])) < 1e-12, t
        if t:
            assert np.max(np.abs(joint[:h, h:])) < 1e-12, t
            assert np.max(np.abs(joint[h:, :h])) < 1e-12, t


# n = 2..5, each with the pure and the thermal channel, then the degenerate
# chain points (zero weights skip whole conjugations) at n = 2..4.
@pytest.mark.parametrize(
    "seed,point",
    [pytest.param(seed, None, id=str(seed)) for seed in range(8)]
    + [
        pytest.param(8 + i, point, id=f"p{point[0]}-mu{point[1]}-{kind}")
        for i, (point, kind) in enumerate(
            itertools.product([(0.0, 0.0), (1.0, 1.0), (0.5, 1.0)], ["pure", "thermal"])
        )
    ],
)
def test_block_evolve_matches_dense_kraus(seed, point):
    rng = np.random.default_rng(seed)
    n = 2 + (seed // 2) % 4
    thermal = seed % 2 == 1
    inst = GroverInstance(n, int(rng.integers(2**n)))
    m = int(rng.integers(1, n + 1))
    positions = sorted(rng.choice(n, size=m, replace=False).tolist())
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(n, noise_spec(haar_noise(rng), m, n, positions)))
    params = MarkovNoiseParams(*(point or (rng.uniform(), rng.uniform())))
    bath = thermal_weights(rng.uniform(0.2, 3.0)) if thermal else None
    first, steady = channel_maps(params, g, gp, bath=bath)
    # A full-rank start with walker coherences: the dense reference evolves
    # all of it, the step loop only its label blocks.
    r0 = random_density(2 * inst.N, rng)
    steps = 6
    trace = collision_evolve(
        g, gp, *transfer_weights(params, bath), label_blocks(r0), steps, keep_blocks=True
    )
    require_density(trace.blocks, 1e-9, what="joint state t={}", blocks=True)
    probs, states, joints = _dense_evolve(first, steady, r0, steps, inst.marked)
    assert np.max(np.abs(success_loop(trace.blocks, inst.marked) - probs)) < 1e-12
    _assert_blocks_match(trace.blocks, states, joints)
    assert np.array_equal(trace.blocks[0], label_blocks(r0))


PLUS = projector(np.array([1.0, 1.0]) / math.sqrt(2.0))


def _low_rank_start(name, inst):
    # Joint starts whose reachable subspace is far smaller than 2N.
    s, w = uniform_superposition(inst), marked_state(inst)
    if name == "s":
        return tensor(PLUS, projector(s))
    if name == "witness":  # the n_cp start, traceless and indefinite
        return tensor(PLUS, projector(s) - projector(w))
    if name == "one-block":  # sigma_0 = 0
        return tensor(projector(np.array([0.0, 1.0])), projector(s))
    if name == "rank2":  # a mixture of two joint vectors, walker coherences included
        a = (np.kron([1.0, 0.0], s) + np.kron([0.0, 1.0], w)) / math.sqrt(2.0)
        b = np.kron([0.0, 1.0], s)
        return 0.7 * projector(a) + 0.3 * projector(b)
    raise ValueError(name)


def _check_against_dense(inst, spec, params, bath, start, steps, validate, weight=False):
    # weight=True runs the |s> start through markov_evolve at d' x d'
    # instead of collision_evolve on the full N x N operators; its label
    # blocks and their sums, lifted through the weight basis, meet the
    # dense run.
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(inst.n, spec))
    r0 = _low_rank_start(start, inst)
    probs, states, joints = _dense_evolve(*channel_maps(params, g, gp, bath), r0, steps, inst.marked)
    if weight:
        trace = markov_evolve(inst, spec, params, steps, bath=bath)
        for a, b in zip(lift(inst, spec, trace.blocks.sum(axis=1)), states):
            assert np.max(np.abs(a - b)) < 1e-12
        _assert_blocks_match(lift(inst, spec, trace.blocks), states, joints)
        series = trace.probabilities  # |w> is index 0 of the weight basis
    else:
        weights = transfer_weights(params, bath)
        trace = collision_evolve(g, gp, *weights, label_blocks(r0), steps, keep_blocks=True)
        _assert_blocks_match(trace.blocks, states, joints)
        series = success_loop(trace.blocks, inst.marked)
    if validate:
        require_density(trace.blocks, 1e-9, what="joint state t={}", blocks=True)
    assert np.max(np.abs(series - probs)) < 1e-12
    return trace


# Low-rank starts, n = 2..6, pure and thermal, on the full N x N operators.
@pytest.mark.parametrize("start", ["s", "witness", "one-block", "rank2"])
@pytest.mark.parametrize("kind", ["pure", "thermal"])
@pytest.mark.parametrize("n", range(2, 7))
def test_compressed_evolve_matches_dense_kraus(n, kind, start):
    rng = np.random.default_rng(100 * n + (kind == "thermal"))
    inst = GroverInstance(n, int(rng.integers(2**n)))
    m = int(rng.integers(1, n + 1))
    positions = sorted(rng.choice(n, size=m, replace=False).tolist())
    spec = noise_spec(haar_noise(rng), m, n, positions)
    params = MarkovNoiseParams(rng.uniform(), rng.uniform())
    bath = thermal_weights(rng.uniform(0.2, 3.0)) if kind == "thermal" else None
    _check_against_dense(inst, spec, params, bath, start, 6, validate=start != "witness")


# markov_evolve through the weight basis, n = 2..6, every m.
@pytest.mark.parametrize("kind", ["pure", "thermal"])
@pytest.mark.parametrize("n", range(2, 7))
def test_markov_evolve_matches_dense_kraus(n, kind):
    rng = np.random.default_rng(200 * n + (kind == "thermal"))
    for m in range(n + 1):
        inst = GroverInstance(n, int(rng.integers(2**n)))
        positions = sorted(rng.choice(n, size=m, replace=False).tolist())
        spec = noise_spec(haar_noise(rng), m, n, positions)
        params = MarkovNoiseParams(rng.uniform(), rng.uniform())
        bath = thermal_weights(rng.uniform(0.2, 3.0)) if kind == "thermal" else None
        _check_against_dense(inst, spec, params, bath, "s", 6, validate=True, weight=True)


# Beyond the dense Kraus reference: the full N x N step loop at n = 7, 8,
# every other m, pure and thermal in turn.
@pytest.mark.parametrize("n", [7, 8])
def test_markov_evolve_matches_full_collision_evolve(n):
    rng = np.random.default_rng(300 + n)
    for i, m in enumerate(range(0, n + 1, 2)):
        inst = GroverInstance(n, int(rng.integers(2**n)))
        positions = sorted(rng.choice(n, size=m, replace=False).tolist())
        spec = noise_spec(haar_noise(rng), m, n, positions)
        params = MarkovNoiseParams(rng.uniform(), rng.uniform())
        bath = thermal_weights(rng.uniform(0.2, 3.0)) if i % 2 else None
        g = grover_operator(inst)
        gp = noisy_grover(g, build_chi(n, spec))
        sigma0 = label_blocks(initial_joint_state(inst))
        full = collision_evolve(g, gp, *transfer_weights(params, bath), sigma0, 5, keep_blocks=True)
        reduced = markov_evolve(inst, spec, params, 5, bath=bath)
        full_series = success_loop(full.blocks, inst.marked)
        assert np.max(np.abs(reduced.probabilities - full_series)) < 1e-12
        states = lift(inst, spec, reduced.blocks.sum(axis=1))
        for sigma, rho in zip(full.blocks, states, strict=True):
            assert np.max(np.abs(sigma.sum(axis=0) - rho)) < 1e-12
        lifted = lift(inst, spec, reduced.blocks)
        assert np.max(np.abs(lifted - full.blocks)) < 1e-12


# No shrink phase: shrinking a failure reruns the dense 2N x 2N reference
# for every candidate, which takes minutes on a broken evolve.
@settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate),
)
@given(
    n=st.integers(2, 4),
    noise=st.tuples(*[st.floats(0.0, 1.0)] * 4),
    order=st.permutations(range(4)),
    m_frac=st.floats(0.0, 1.0),
    marked_frac=st.floats(0.0, 1.0),
    p=st.floats(0.0, 1.0),
    mu=st.floats(0.0, 1.0),
    temperature=st.one_of(st.none(), st.floats(0.05, 10.0)),
    start=st.sampled_from(["s", "witness", "one-block", "rank2"]),
)
def test_compressed_evolve_property(n, noise, order, m_frac, marked_frac, p, mu, temperature, start):
    x, phase_a, phase_b, theta = noise
    u = single_qubit_unitary(
        math.sqrt(x) * np.exp(2j * math.pi * phase_a),
        math.sqrt(1.0 - x) * np.exp(2j * math.pi * phase_b),
        2.0 * math.pi * theta,
    )
    m = 1 + min(int(m_frac * n), n - 1)
    positions = sorted([q for q in order if q < n][:m])
    inst = GroverInstance(n, min(int(marked_frac * 2**n), 2**n - 1))
    spec = noise_spec(u, m, n, positions)
    bath = None if temperature is None else thermal_weights(temperature)
    params = MarkovNoiseParams(p, mu)
    _check_against_dense(inst, spec, params, bath, start, 5, validate=False, weight=start == "s")


def _q(inst, positions):
    # Noisy positions holding a 1 bit of the marked index (qubit 0 leftmost).
    return sum((inst.marked >> (inst.n - 1 - pos)) & 1 for pos in positions)


def test_dim_is_full_for_full_rank_and_blp_partner_starts():
    rng = np.random.default_rng(7)
    params = MarkovNoiseParams(0.3, 0.4)
    for n in range(2, 7):
        inst = GroverInstance(n, int(rng.integers(2**n)))
        g = grover_operator(inst)
        gp = noisy_grover(g, build_chi(n, noise_spec(haar_noise(rng), 2, n)))
        weights = transfer_weights(params)
        full = collision_evolve(g, gp, *weights, label_blocks(random_density(2 * inst.N, rng)), 2)
        assert full.meta["dim"] == inst.N
        partner = label_blocks(tensor(PLUS, blp_pair(inst).rho2))
        assert collision_evolve(g, gp, *weights, partner, 2).meta["dim"] == inst.N


def test_dim_bounded_on_markov_starts():
    # The weight basis spans P_j |s> and P_j |w> for each weight j of the
    # noisy qubits in u's eigenbasis: two vectors per j when m < n, and at
    # m = n one at j = 0 and j = m, and one per j when q is 0 or m, for any
    # noise: a Haar draw and Hadamard per n.
    rng = np.random.default_rng(8)
    params = MarkovNoiseParams(0.3, 0.4)
    for n in range(2, 11):
        for u, m in itertools.product((haar_noise(rng), noise_unitary("hadamard")), range(n + 1)):
            inst = GroverInstance(n, int(rng.integers(2**n)))
            positions = sorted(rng.choice(n, size=m, replace=False).tolist())
            q = _q(inst, positions)
            expected = 2 * (m + 1) if m < n else (2 * m if 0 < q < m else m + 1)
            dim = markov_evolve(inst, noise_spec(u, m, n, positions), params, 2).meta["dim"]
            assert dim == expected, (n, m, positions, inst.marked)


def test_zero_start_evolves_to_zero():
    first, steady = transfer_weights(MarkovNoiseParams(0.3, 0.3))
    zero = np.zeros((2, 4, 4), dtype=complex)
    trace = collision_evolve(G, GP, first, steady, zero, 3, keep_blocks=True)
    assert trace.meta["dim"] == 4
    assert np.array_equal(trace.probabilities, np.zeros(4))
    assert trace.blocks.shape == (4, 2, 4, 4) and not trace.blocks.any()


def test_collision_evolve_rejects_non_hermitian_blocks():
    # |s><w| as the walker's g block sigma_0: its row space is not its range.
    first, steady = transfer_weights(MarkovNoiseParams(0.3, 0.3))
    s, w = uniform_superposition(INST), marked_state(INST)
    sigma0 = np.stack([np.outer(s, w), np.zeros((4, 4))])
    with pytest.raises(ValueError, match="label blocks are not Hermitian"):
        collision_evolve(G, GP, first, steady, sigma0, 2)


@pytest.mark.parametrize("reader", [collision_evolve, collision_first_max])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["r0", "first", "steady"])
def test_step_loop_rejects_a_non_finite_start_or_weight(where, value, reader):
    # A NaN compares False with every tolerance, so each check must fail
    # on it rather than pass; an inf diagonal entry gives inf - inf = NaN.
    # "r0" is the start, given as its label blocks.
    inputs = dict(zip(("first", "steady"), transfer_weights(MarkovNoiseParams(0.3, 0.3))))
    inputs["r0"] = label_blocks(initial_joint_state(INST))
    inputs[where] = inputs[where].copy()
    if where == "r0":
        inputs["r0"][0, 1, 1] = value  # a diagonal entry of sigma_0
        match = "label blocks are not Hermitian"
    else:
        inputs[where][1, 0, 1] = value
        match = "transfer weights are not finite"
    with pytest.raises(ValueError, match=match):
        reader(G, GP, inputs["first"], inputs["steady"], inputs["r0"], 3)


# Each start the step loop must refuse, with the shape its message names.
_MISSHAPEN = {
    "joint": (np.zeros((8, 8)), "(8, 8)"),  # a 2d x 2d joint, not its blocks
    "label-axis": (np.zeros((3, 4, 4)), "(3, 4, 4)"),
    "non-square": (np.zeros((2, 4, 3)), "(2, 4, 3)"),
    "other-d": (np.zeros((2, 2, 2)), "(2, 2, 2)"),
    "batch": (np.zeros((3, 2, 4, 4)), "(3, 2, 4, 4)"),  # against 2 weight stacks
}


@pytest.mark.parametrize("reader", [collision_evolve, collision_first_max])
@pytest.mark.parametrize("case", sorted(_MISSHAPEN))
def test_step_loop_rejects_a_misshapen_start(case, reader):
    first, steady = transfer_weights([MarkovNoiseParams(0.3, 0.3), MarkovNoiseParams(0.6, 0.1)])
    sigma0, shape = _MISSHAPEN[case]
    with pytest.raises(ValueError, match=re.escape(shape)) as info:
        reader(G, GP, first, steady, sigma0, 3)
    want = {"other-d": "do not match label blocks", "batch": "do not broadcast"}
    assert want.get(case, "is not (..., 2, d, d)") in str(info.value)
