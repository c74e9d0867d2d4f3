import math

import numpy as np
import pytest

from noisygrover.collision import apply_kraus, channel_maps
from noisygrover.grover import GroverInstance, grover_operator, marked_state, uniform_superposition
from noisygrover.linalg import (
    assert_density,
    partial_trace,
    projector,
    tensor,
    trace_distance,
    trace_norm,
)
from noisygrover.markov import MarkovNoiseParams
from noisygrover.measures import (
    blp_pair,
    n_blp,
    n_cp,
    positive_increment_sum,
)
from noisygrover.noise import (
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


def test_backflow_vanishes_in_memoryless_limits():
    for p, mu in ((0.0, 0.5), (1.0, 0.0), (1.0, 1.0), (0.33, 0.0)):
        result = n_blp(INST, SPEC, MarkovNoiseParams(p, mu), 30)
        assert result.value <= 1e-12, (p, mu)
        assert result.series[0] == pytest.approx(1.0, abs=1e-12)


def test_backflow_frozen_value():
    result = n_blp(INST, SPEC, MarkovNoiseParams(0.33, 0.9), 45)
    assert result.value == pytest.approx(0.18893317464273895, abs=1e-9)
    assert result.witness_only
    assert result.horizon == 45
    assert len(result.series) == 46
    assert result.meta["temperature"] == 0.0


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
    assert result.witness_only


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
    x = rng.uniform()
    u = single_qubit_unitary(
        math.sqrt(x) * np.exp(2j * math.pi * rng.uniform()),
        math.sqrt(1.0 - x) * np.exp(2j * math.pi * rng.uniform()),
        2.0 * math.pi * rng.uniform(),
    )
    spec = noise_spec(u, int(rng.integers(1, n + 1)), n)
    params = MarkovNoiseParams(rng.uniform(), rng.uniform())
    result = n_cp(inst, spec, params, 12)
    reference = _dense_cp_series(inst, spec, params, 12)
    assert np.max(np.abs(result.series - reference)) < 1e-12
    assert result.series[0] == pytest.approx(math.sqrt(1.0 - 1.0 / inst.N), abs=1e-12)


@pytest.mark.parametrize("temperature", [None, 0.7])
def test_blp_joint_series_matches_full_trace_distance(temperature):
    # Reference: both pair members through the dense 2N x 2N Kraus sum, and
    # one trace distance of the full joints per step.
    from noisygrover.collision import thermal_weights

    rng = np.random.default_rng(17)
    inst = GroverInstance(4, int(rng.integers(16)))
    x = rng.uniform()
    u = single_qubit_unitary(
        math.sqrt(x) * np.exp(2j * math.pi * rng.uniform()),
        math.sqrt(1.0 - x) * np.exp(2j * math.pi * rng.uniform()),
        2.0 * math.pi * rng.uniform(),
    )
    spec = noise_spec(u, 2, 4, positions=(1, 3))
    params = MarkovNoiseParams(0.35, 0.8)
    bath = None if temperature is None else thermal_weights(temperature)
    steps = 10
    result = n_blp(inst, spec, params, steps, bath=bath)
    g = grover_operator(inst)
    first, steady = channel_maps(params, g, noisy_grover(g, build_chi(4, spec)), bath)
    plus = projector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
    pair = blp_pair(inst)
    joints = [tensor(plus, pair.rho1), tensor(plus, pair.rho2)]
    reference = [trace_distance(*joints)]
    for t in range(1, steps + 1):
        joints = [apply_kraus(first if t == 1 else steady, r) for r in joints]
        reference.append(trace_distance(*joints))
    assert np.max(np.abs(result.meta["joint_series"] - np.array(reference))) < 1e-12

