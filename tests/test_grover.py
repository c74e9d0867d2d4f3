import math

import numpy as np
import pytest

from noisygrover.grover import (
    GroverInstance,
    grover_operator,
    ideal_success_closed_form,
    ideal_success_series,
    marked_state,
    optimal_iterations,
    uniform_superposition,
)
from noisygrover.linalg import projector


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_series_matches_closed_form(n):
    inst = GroverInstance(n)
    steps = 30
    series = ideal_success_series(inst, steps)
    expected = [ideal_success_closed_form(inst.N, t) for t in range(steps + 1)]
    assert np.max(np.abs(series - expected)) < 1e-12


def test_operator_is_unitary_and_real():
    g = grover_operator(GroverInstance(3))
    assert np.max(np.abs(g.imag)) == 0.0
    assert np.max(np.abs(g.conj().T @ g - np.eye(8))) < 1e-12


@pytest.mark.parametrize("n,marked", [(2, 1), (3, 0), (3, 5), (4, 11)])
def test_operator_equals_diffusion_times_oracle(n, marked):
    inst = GroverInstance(n, marked)
    N = inst.N
    s = uniform_superposition(inst)
    w = marked_state(inst)
    diffusion = 2.0 * projector(s) - np.eye(N)
    oracle = np.eye(N) - 2.0 * projector(w)
    assert np.max(np.abs(grover_operator(inst) - diffusion @ oracle)) < 1e-12


def test_action_on_initial_state():
    # G|s> = (1 - 4/N)|s> + (2/sqrt(N))|w>
    inst = GroverInstance(4, marked=6)
    N = inst.N
    v = grover_operator(inst) @ uniform_superposition(inst)
    expected = (1.0 - 4.0 / N) * uniform_superposition(inst)
    expected[inst.marked] += 2.0 / math.sqrt(N)
    assert np.max(np.abs(v - expected)) < 1e-12


def test_marked_position_is_irrelevant():
    base = ideal_success_series(GroverInstance(3, 0), 12)
    other = ideal_success_series(GroverInstance(3, 7), 12)
    assert np.max(np.abs(base - other)) < 1e-12


def test_five_qubit_peak():
    series = ideal_success_series(GroverInstance(5), 10)
    assert int(np.argmax(series)) == 4
    assert series[4] > 0.999
    assert abs(series[0] - 1.0 / 32.0) < 1e-15


@pytest.mark.parametrize(
    "N,expected", [(4, 1), (8, 2), (32, 4), (64, 6), (1024, 25)]
)
def test_optimal_iterations(N, expected):
    assert optimal_iterations(N) == expected


def test_optimal_iterations_rejects_tiny_space():
    with pytest.raises(ValueError):
        optimal_iterations(2)


def test_instance_validation():
    with pytest.raises(ValueError):
        GroverInstance(0)
    with pytest.raises(ValueError):
        GroverInstance(3, marked=8)
    with pytest.raises(ValueError):
        GroverInstance(3, marked=-1)
    assert GroverInstance(1).N == 2  # degenerate but well defined


def test_uniform_superposition_single_qubit():
    v = uniform_superposition(GroverInstance(1))
    assert np.allclose(v, [1.0 / math.sqrt(2.0)] * 2)


def test_instance_needs_a_finite_float_N():
    # 2^1023 is the largest power of two a float holds. The series runs in
    # the 2 x 2 span of |w> and |s>, so it costs the same at any such n.
    with pytest.raises(ValueError, match="finite"):
        GroverInstance(1024)
    assert GroverInstance(1023).N == 2**1023
    inst = GroverInstance(1000, marked=2**1000 - 1)
    series = ideal_success_series(inst, 3)
    expected = [ideal_success_closed_form(inst.N, t) for t in range(4)]
    assert np.max(np.abs(series - expected) / np.array(expected)) < 1e-12
