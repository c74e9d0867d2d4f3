import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from support import blp_pair, haar_noise, label_blocks, lifted_blocks, split_basis

from noisygrover import collision, measures, noise
from noisygrover.collision import (
    apply_kraus,
    channel_maps,
    collision_evolve,
    thermal_weights,
    transfer_weights,
)
from noisygrover.grover import GroverInstance, grover_operator, marked_state, uniform_superposition
from noisygrover.linalg import (
    InvariantViolation,
    assert_density,
    partial_trace,
    projector,
    tensor,
    trace_distance,
    trace_norm,
)
from noisygrover.markov import MarkovNoiseParams
from noisygrover.measures import (
    n_blp,
    n_cp,
    positive_increment_sum,
)
from noisygrover.noise import (
    NoiseSpec,
    build_chi,
    noise_spec,
    noise_unitary,
    noisy_grover,
    single_qubit_unitary,
)

INST = GroverInstance(3)
SPEC = noise_spec(noise_unitary("x"), 1, 3)


def test_blp_pair_properties():
    pair = blp_pair(INST)
    assert assert_density(pair.rho1).passed
    assert assert_density(pair.rho2).passed
    # rank N/2 with flat spectrum 2/N
    eigs = np.sort(np.linalg.eigvalsh(pair.rho2))
    assert np.allclose(eigs[:4], 0.0, atol=1e-12)
    assert np.allclose(eigs[4:], 2.0 / 8.0, atol=1e-12)
    # orthogonal support to |s><s|, so the pair starts at distance one
    s = uniform_superposition(INST)
    assert abs(s.conj() @ pair.rho2 @ s) < 1e-12
    assert trace_distance(pair.rho1, pair.rho2) == pytest.approx(1.0, abs=1e-12)


def test_positive_increment_sum():
    assert positive_increment_sum([0.0, 0.5, 0.2, 0.7]) == pytest.approx(1.0)
    assert positive_increment_sum([1.0, 0.5, 0.1]) == 0.0
    # sub-threshold wiggles are noise, not backflow
    assert positive_increment_sum([0.1, 0.1 + 5e-13, 0.1]) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_positive_increment_sum_rejects_a_non_finite_series(bad):
    # A NaN increment fails every comparison, so it would drop out of the sum.
    with pytest.raises(ValueError, match="not finite"):
        positive_increment_sum([0.1, bad, 0.5, 0.7])


def test_backflow_vanishes_in_memoryless_limits():
    for p, mu in ((0.0, 0.5), (1.0, 0.0), (1.0, 1.0), (0.33, 0.0)):
        result = n_blp(INST, SPEC, MarkovNoiseParams(p, mu), 30)
        assert result.value <= 1e-12, (p, mu)
        assert result.series[0] == pytest.approx(1.0, abs=1e-12)


def test_backflow_frozen_value():
    result = n_blp(INST, SPEC, MarkovNoiseParams(0.33, 0.9), 45)
    assert result.value == pytest.approx(0.18893317464273895, abs=1e-9)
    assert len(result.series) == 46  # t = 0..45
    assert sorted(result.meta) == ["dim", "joint_series", "joint_slack"]


def test_backflow_is_deterministic():
    a = n_blp(INST, SPEC, MarkovNoiseParams(0.4, 0.8), 25)
    b = n_blp(INST, SPEC, MarkovNoiseParams(0.4, 0.8), 25)
    assert np.array_equal(a.series, b.series)
    assert a.value == b.value


def test_backflow_joint_distance_is_contractive():
    result = n_blp(INST, SPEC, MarkovNoiseParams(0.5, 1.0), 40)
    joint = result.meta["joint_series"]
    assert np.all(np.diff(joint[1:]) <= 1e-10)
    assert result.value > 0.1  # frozen-label noise shows strong backflow


def test_cp_witness_initial_value_and_frozen_point():
    result = n_cp(INST, SPEC, MarkovNoiseParams(0.5, 0.9), 20)
    assert result.series[0] == pytest.approx(np.sqrt(1.0 - 1.0 / 8.0), abs=1e-12)
    assert result.value == pytest.approx(1.083341123404881, abs=1e-9)


def test_cp_witness_vanishes_for_iid_noise():
    result = n_cp(INST, SPEC, MarkovNoiseParams(0.5, 0.0), 15)
    assert result.value <= 1e-12


def _dense_cp_series(inst, spec, params, steps):
    # Reference: |+><+| (x) (|s><s| - |w><w|) through the dense 2N x 2N
    # Kraus sum, walker traced out, half trace norm.
    g = grover_operator(inst)
    first, steady = channel_maps(params, g, noisy_grover(g, build_chi(inst.n, spec)))
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    x = projector(uniform_superposition(inst)) - projector(marked_state(inst))
    r = tensor(projector(plus), x)
    series = []
    for t in range(steps + 1):
        if t:
            r = apply_kraus(first if t == 1 else steady, r)
        series.append(0.5 * trace_norm(partial_trace(r, (2, inst.N), keep=(1,))))
    return np.array(series)


@pytest.mark.parametrize("seed", range(4))
def test_cp_witness_matches_dense_reference(seed):
    rng = np.random.default_rng(100 + seed)
    n = 3 + seed % 2
    inst = GroverInstance(n, int(rng.integers(2**n)))
    spec = noise_spec(haar_noise(rng), int(rng.integers(1, n + 1)), n)
    params = MarkovNoiseParams(rng.uniform(), rng.uniform())
    result = n_cp(inst, spec, params, 12)
    reference = _dense_cp_series(inst, spec, params, 12)
    assert np.max(np.abs(result.series - reference)) < 1e-12
    assert result.series[0] == pytest.approx(math.sqrt(1.0 - 1.0 / inst.N), abs=1e-12)


@pytest.mark.parametrize("temperature", [None, 0.7])
def test_blp_joint_series_matches_full_trace_distance(temperature):
    # Reference: both pair members through the dense 2N x 2N Kraus sum, and
    # one trace distance of the full joints per step; qubit 0 clean, then noisy.
    rng = np.random.default_rng(17)
    inst = GroverInstance(4, int(rng.integers(16)))
    u = haar_noise(rng)
    params = MarkovNoiseParams(0.35, 0.8)
    bath = None if temperature is None else thermal_weights(temperature)
    steps = 10
    plus = projector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
    pair = blp_pair(inst)
    g = grover_operator(inst)
    for positions in ((1, 3), (0, 2)):
        spec = noise_spec(u, 2, 4, positions=positions)
        result = n_blp(inst, spec, params, steps, bath=bath)
        first, steady = channel_maps(params, g, noisy_grover(g, build_chi(4, spec)), bath)
        joints = [tensor(plus, pair.rho1), tensor(plus, pair.rho2)]
        reference = [trace_distance(*joints)]
        for t in range(1, steps + 1):
            joints = [apply_kraus(first if t == 1 else steady, r) for r in joints]
            reference.append(trace_distance(*joints))
        assert np.max(np.abs(result.meta["joint_series"] - np.array(reference))) < 1e-12, positions


def _positions(rng, n, m, with_zero):
    # m random positions that include qubit 0 exactly when with_zero holds.
    others = rng.choice(np.arange(1, n), size=m - with_zero, replace=False).tolist()
    return sorted([0] * with_zero + others)


def _cases(n, seed):
    # Every m with a random marked index; qubit 0 is noisy for even m > 0
    # and for m = n, so every n has cases with and without it.
    rng = np.random.default_rng(seed)
    for m in range(n + 1):
        with_zero = m == n or (m > 0 and m % 2 == 0)
        inst = GroverInstance(n, int(rng.integers(2**n)))
        yield rng, inst, noise_spec(haar_noise(rng), m, n, _positions(rng, n, m, with_zero))


def _dense_blp(inst, spec, params, steps, bath):
    # Reference: the |s> member's label blocks from markov_evolve lifted to
    # N x N through the weight basis, the partner on the full N x N G, G'
    # through the step loop, and dense trace distances of the system
    # marginals and of the label blocks. At t = 0 the joint distance
    # is that of the two whole joint starts; from t = 1 on each joint is
    # diag(sigma_0, sigma_1), so the block distances are the joint's.
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(inst.n, spec))
    plus = projector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
    partner = tensor(plus, blp_pair(inst).rho2)
    lifted = lifted_blocks(inst, spec, params, steps, bath)
    states = lifted.sum(axis=1)
    blocks = collision_evolve(
        g, gp, *transfer_weights(params, bath), label_blocks(partner), steps, keep_blocks=True
    ).blocks
    d_sys = np.array([trace_distance(a, b) for a, b in zip(states, blocks.sum(axis=1))])
    d_joint = [trace_distance(tensor(plus, states[0]), partner)]
    for a, b in zip(lifted[1:], blocks[1:]):
        d_joint.append(trace_distance(a[0], b[0]) + trace_distance(a[1], b[1]))
    return positive_increment_sum(d_sys), d_sys, np.array(d_joint)


@pytest.mark.parametrize("n", range(1, 9))
def test_blp_matches_dense_reference(n):
    for i, (rng, inst, spec) in enumerate(_cases(n, 500 + n)):
        params = MarkovNoiseParams(rng.uniform(), rng.uniform())
        bath = thermal_weights(rng.uniform(0.2, 3.0)) if i % 2 else None
        result = n_blp(inst, spec, params, 5, bath=bath)
        value, series, joint = _dense_blp(inst, spec, params, 5, bath)
        assert abs(result.value - value) < 1e-12, (n, spec.positions)
        assert np.max(np.abs(result.series - series)) < 1e-12, (n, spec.positions)
        assert np.max(np.abs(result.meta["joint_series"] - joint)) < 1e-12, (n, spec.positions)


@pytest.mark.parametrize("temperature", [None, 0.7])
def test_blp_is_one_run_of_the_pair_difference(monkeypatch, temperature):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return collision_evolve(*args, **kwargs)

    monkeypatch.setattr(measures, "collision_evolve", spy)
    bath = None if temperature is None else thermal_weights(temperature)
    spec = noise_spec(noise_unitary("hadamard"), 2, 5, positions=(0, 3))
    result = n_blp(GroverInstance(5, 9), spec, MarkovNoiseParams(0.4, 0.8), 12, bath=bath)
    assert len(calls) == 1
    assert result.series[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_blp_partner_splits_over_the_qubit0_basis(n):
    # rho2 = V (B_0 (x) I) V^T + B_0 (x) P_perp with B_0 = (I - X)/N, so its
    # W part is n_blp's compressed start and the rest is positive; V is
    # orthonormal, invariant under G and G' and closed under the Paulis on
    # qubit 0, all against dense operators.
    paulis = [np.array(p, dtype=complex) for p in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
    for _rng, inst, spec in _cases(n, 600 + n):
        half = inst.N // 2
        v = split_basis(inst, spec)
        d_rest = v.shape[1] // 2
        v_rest = v[:half, :d_rest]
        assert np.array_equal(v, np.kron(np.eye(2), v_rest))
        assert np.max(np.abs(v.T @ v - np.eye(2 * d_rest))) < 1e-13
        b0 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / inst.N
        lift = v @ np.kron(b0, np.eye(d_rest)) @ v.T + np.kron(b0, np.eye(half) - v_rest @ v_rest.T)
        assert np.max(np.abs(lift - blp_pair(inst).rho2)) < 1e-15, spec.positions
        g = grover_operator(inst)
        ops = [g, build_chi(n, spec) @ g] + [np.kron(p, np.eye(half)) for p in paulis]
        for op in ops:
            image = op @ v
            assert np.max(np.abs(image - v @ (v.T @ image))) < 1e-13, spec.positions
    with pytest.raises(ValueError, match="exceed qubit count"):
        n_blp(GroverInstance(n), NoiseSpec(noise_unitary("x"), (n,)), MarkovNoiseParams(0.3, 0.5), 1)


@pytest.mark.parametrize("n", [1, 3, 6, 9])
def test_blp_reports_dim_and_joint_slack(n):
    for i, (rng, inst, spec) in enumerate(_cases(n, 700 + n)):
        bath = thermal_weights(rng.uniform(0.2, 3.0)) if i % 2 else None
        result = n_blp(inst, spec, MarkovNoiseParams(rng.uniform(), rng.uniform()), 20, bath=bath)
        joint = result.meta["joint_series"]
        assert result.meta["joint_slack"] >= -1e-10
        assert result.meta["joint_slack"] == np.min(joint[1:-1] - joint[2:])
        # dim W = 2 d'_rest, with d'_rest the weight-basis dimension of the
        # other n - 1 qubits: 2(m + 1) when m < n - 1, and at m = n - 1,
        # m + 1 when q is 0 or m (1 for the empty register at n = 1) and 2m
        # otherwise.
        rest = [p - 1 for p in spec.positions if p]
        m, q = len(rest), sum(inst.marked % (inst.N // 2) >> (n - 2 - p) & 1 for p in rest)
        if m < n - 1:
            d_rest = 2 * (m + 1)
        else:
            d_rest = m + 1 if q in (0, m) else 2 * m
        assert result.meta["dim"] == 2 * d_rest
    assert n_blp(INST, SPEC, MarkovNoiseParams(0.3, 0.5), 1).meta["joint_slack"] == math.inf


@pytest.mark.parametrize("n", [1, 3, 6, 9])
def test_cp_reports_dim(n):
    # d', the weight-basis dimension the run takes place at, as n_blp
    # reports dim W.
    for rng, inst, spec in _cases(n, 900 + n):
        d = noise._weight_class(inst.n, inst.marked, spec.positions)[2]
        result = n_cp(inst, spec, MarkovNoiseParams(rng.uniform(), rng.uniform()), 5)
        assert result.meta == {"dim": d}
        assert n_cp(inst, spec, _GRID, 5).meta == {"dim": d}


def test_blp_runs_a_rounded_u_through_its_eigen_frame():
    # a and b 4e-11 off unit norm, which single_qubit_unitary accepts. Run
    # as given, such a u on qubit 0 makes G' non-unitary by 8e-11 and moves
    # the series by 7.9e-9 over 200 steps against the normalized u.
    r = math.sqrt(0.5 + 4e-11)
    off = single_qubit_unitary(r, r * 1j, 0.7)
    norm = math.hypot(abs(off.a), abs(off.b))
    on = single_qubit_unitary(off.a / norm, off.b / norm, 0.7)
    inst, point = GroverInstance(10, 5), MarkovNoiseParams(0.5, 0.5)
    series = [n_blp(inst, noise_spec(u, 5, 10), point, 200).series for u in (off, on)]
    assert np.max(np.abs(series[0] - series[1])) <= 1e-13


def test_blp_memory_stays_below_one_dense_matrix():
    # One N x N complex matrix is 64 MiB at n = 11; this is not a time gate.
    inst = GroverInstance(11, 1234)
    spec = noise_spec(noise_unitary("hadamard"), 3, 11)
    tracemalloc.start()
    try:
        n_blp(inst, spec, MarkovNoiseParams(0.4, 0.8), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("witness", [n_blp, n_cp], ids=["blp", "cp"])
def test_witness_memory_follows_a_run_of_points(monkeypatch, witness):
    # 100 points at n = 6, m = 2 and 45 steps: a point keeps 2 * 46 * 8^2
    # entries for blp (dim W = 8) and 2 * 46 * 6^2 for cp (d' = 6), so the
    # runs hold 2 and 4 points. They equal one run of all 100 bitwise, and
    # the traced peak is a few runs' worth, not the grid's (about 50 and
    # 13 MiB as one run).
    inst, spec = GroverInstance(6, 34), noise_spec(noise_unitary("hadamard"), 2, 6)
    grid = [MarkovNoiseParams(p, mu) for p in np.linspace(0.05, 0.95, 10)
            for mu in np.linspace(0.05, 0.95, 10)]
    runs = []

    def spy(g, gp, first, steady, sigma0, steps, **kwargs):
        runs.append(len(first) * 2 * (steps + 1) * sigma0.shape[-1] ** 2)
        return collision_evolve(g, gp, first, steady, sigma0, steps, **kwargs)

    monkeypatch.setattr(measures, "collision_evolve", spy)
    tracemalloc.start()
    try:
        result = witness(inst, spec, grid, 45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(runs) == (50 if witness is n_blp else 25)
    assert max(runs) <= collision._BATCH_ENTRIES
    assert peak < 4 * 2**20
    monkeypatch.setattr(collision, "_BATCH_ENTRIES", 2**40)
    whole = witness(inst, spec, grid, 45)
    assert len(runs) == (51 if witness is n_blp else 26)
    assert np.array_equal(result.value, whole.value)
    assert np.array_equal(result.series, whole.series)
    for key in result.meta:
        assert np.array_equal(result.meta[key], whole.meta[key])


_GRID = [MarkovNoiseParams(p, mu) for p in (0.0, 0.3, 1.0) for mu in (0.0, 0.3, 1.0)]


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_witnesses_equal_single_calls(n):
    steps = 8
    for _rng, inst, spec in _cases(n, 800 + n):
        cp = n_cp(inst, spec, _GRID, steps)
        assert cp.value.shape == (len(_GRID),) and cp.series.shape == (len(_GRID), steps + 1)
        for i, params in enumerate(_GRID):
            single = n_cp(inst, spec, params, steps)
            assert single.meta == cp.meta
            assert abs(cp.value[i] - single.value) < 1e-13, (n, spec.positions, params)
            assert np.max(np.abs(cp.series[i] - single.series)) < 1e-13
        for bath in (None, thermal_weights(0.7)):
            blp = n_blp(inst, spec, _GRID, steps, bath=bath)
            assert blp.meta["joint_series"].shape == (len(_GRID), steps + 1)
            assert blp.meta["joint_slack"].shape == (len(_GRID),)
            for i, params in enumerate(_GRID):
                single = n_blp(inst, spec, params, steps, bath=bath)
                assert abs(blp.value[i] - single.value) < 1e-13, (n, spec.positions, params)
                assert np.max(np.abs(blp.series[i] - single.series)) < 1e-13
                joint = blp.meta["joint_series"][i] - single.meta["joint_series"]
                assert np.max(np.abs(joint)) < 1e-13
                assert abs(blp.meta["joint_slack"][i] - single.meta["joint_slack"]) < 1e-13
                assert blp.meta["dim"] == single.meta["dim"]


def _poisoned(monkeypatch, kept, member, t, scale):
    # collision_evolve whose kept label blocks of one member at step t are
    # multiplied by ``scale``: both of them, the whole state, for
    # ``kept`` = "states", and label block 1 alone for "label_block_1".
    def run(*args, **kwargs):
        trace = collision_evolve(*args, **kwargs)
        blocks = trace.blocks.copy()
        blocks[(member, t) if kept == "states" else (member, t, 1)] *= scale
        return replace(trace, blocks=blocks)

    monkeypatch.setattr(measures, "collision_evolve", run)


def test_joint_growth_names_the_member_and_step(monkeypatch):
    points = [MarkovNoiseParams(0.3, 0.5), MarkovNoiseParams(0.6, 0.9)]
    _poisoned(monkeypatch, "states", 1, 3, 2.0)
    with pytest.raises(InvariantViolation, match=r"grew at p=0.6 mu=0.9, step 2 -> 3"):
        n_blp(INST, SPEC, points, 6)


@pytest.mark.parametrize("kept", ["states", "label_block_1"])
def test_a_non_finite_run_is_an_invariant_violation(monkeypatch, kept):
    points = [MarkovNoiseParams(0.3, 0.5), MarkovNoiseParams(0.6, 0.9)]
    _poisoned(monkeypatch, kept, 1, 4, math.nan)
    with pytest.raises(InvariantViolation, match=r"not finite at p=0.6 mu=0.9, step 4"):
        n_blp(INST, SPEC, points, 6)
    with pytest.raises(InvariantViolation, match=r"not finite at p=0.6 mu=0.9, step 4"):
        n_cp(INST, SPEC, points, 6)


@pytest.mark.parametrize("witness", [n_blp, n_cp], ids=["blp", "cp"])
def test_a_non_finite_state_in_a_later_run_names_its_point(monkeypatch, witness):
    # Six points at n = 6, m = 2 and 45 steps run two to a run for blp and
    # four for cp; a NaN in the second member of the second run is the
    # grid's point 3 for blp and 5 for cp.
    inst, spec = GroverInstance(6, 34), noise_spec(noise_unitary("hadamard"), 2, 6)
    points = [MarkovNoiseParams(0.1 * k, 0.05 + 0.15 * k) for k in range(1, 7)]
    calls = []

    def run(*args, **kwargs):
        trace = collision_evolve(*args, **kwargs)
        calls.append(trace)
        if len(calls) == 2:
            blocks = trace.blocks.copy()
            blocks[1, 7] *= math.nan
            return replace(trace, blocks=blocks)
        return trace

    monkeypatch.setattr(measures, "collision_evolve", run)
    point = points[3 if witness is n_blp else 5]
    message = rf"not finite at p={point.p:.15g} mu={point.mu:.15g}, step 7"
    with pytest.raises(InvariantViolation, match=message):
        witness(inst, spec, points, 45)
