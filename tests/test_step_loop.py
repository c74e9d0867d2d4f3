"""The buffered step loop, the stacked Dicke recursion and the operators
built per d-group, each against its reference in support.py, bitwise; the
loop's memory without kept blocks; and ``verify_dilation``'s prefix
stability in the number of trials."""

import tracemalloc

import numpy as np
import pytest
from support import dicke_powers_loop, evolve_loop, haar_noise

from noisygrover import collision, markov, noise
from noisygrover.collision import (
    collision_evolve,
    collision_first_max,
    dilation_unitary,
    kraus_from_dilation,
    thermal_weights,
    transfer_weights,
    verify_dilation,
)
from noisygrover.grover import GroverInstance
from noisygrover.linalg import projector
from noisygrover.markov import MarkovNoiseParams
from noisygrover.noise import noise_spec, noise_unitary

U = haar_noise(np.random.default_rng(11))
POINTS = [MarkovNoiseParams(p, mu) for p in (0.0, 0.37, 1.0) for mu in (0.0, 0.6, 1.0)]
# Pure ancillas, a bath whose excited weight rounds to 0 (the pure step's
# shape) and a warm bath (every block through both operators).
BATHS = {"pure": None, "cold": thermal_weights(0.01), "warm": thermal_weights(0.7)}


def _systems(d):
    """Three (inst, spec) systems of orbit dimension d, each on its own n,
    so their first maxima fall at different steps."""
    found = []
    for n in (4, 6, 9):
        for marked in range(2**n):
            hits = [
                positions
                for positions in [()] + noise._orbit_representatives(n, marked)
                if noise._orbit_class(n, marked, positions)[2] == d
            ]
            if hits:
                found.append((GroverInstance(n, marked), noise_spec(U, len(hits[0]), n, hits[0])))
                break
    assert len(found) == 3, d
    return found


def _group(d, bath=None):
    """The inputs of the one d-group of three systems against POINTS:
    G, G' and the start (3, 1, ...) and the weights (9, 2, 2, 2), so the
    operators broadcast over a (3, 9) batch."""
    members, (group,) = markov._table_groups(_systems(d), POINTS, bath)
    assert members == [[0, 1, 2]]
    return markov._group_inputs(group)


def _first_max(row):
    """The first-maximum rule on one series: the first t >= 1 with
    P(t) >= P(t - 1) and P(t) >= P(t + 1), else the argmax."""
    for t in range(1, len(row) - 1):
        if row[t] >= row[t - 1] and row[t] >= row[t + 1]:
            return t
    return int(np.argmax(row))


@pytest.mark.parametrize("bath", BATHS)
@pytest.mark.parametrize("d", [2, 4, 12])
def test_step_loop_equals_the_unbuffered_loop_bitwise(d, bath):
    inputs = _group(d, BATHS[bath])
    assert inputs[0].shape == (3, 1, d, d) and inputs[2].shape == (9, 2, 2, 2)
    series, blocks = evolve_loop(*inputs, 30)
    assert series.shape == (3, 9, 31) and blocks.shape == (3, 9, 31, 2, d, d)
    plain = collision_evolve(*inputs, 30)
    kept = collision_evolve(*inputs, 30, keep_blocks=True)
    assert plain.blocks is None
    assert np.array_equal(plain.probabilities, series)
    assert np.array_equal(kept.probabilities, series)
    assert np.array_equal(kept.blocks, blocks)
    # One member alone, batch (), and every other marked index.
    g, gp, first, steady, sigma0 = inputs
    g, gp, sigma0 = g[1, 0], gp[1, 0], sigma0[1, 0]
    for marked in range(d):
        alone = collision_evolve(g, gp, first[4], steady[4], sigma0, 30, marked, keep_blocks=True)
        want_series, want_blocks = evolve_loop(g, gp, first[4], steady[4], sigma0, 30, marked)
        assert np.array_equal(alone.probabilities, want_series)
        assert np.array_equal(alone.blocks, want_blocks)


@pytest.mark.parametrize("bath", BATHS)
@pytest.mark.parametrize("d", [2, 4, 12])
def test_first_max_reads_the_unbuffered_series_bitwise(d, bath):
    # The three systems peak at different steps, so the reader drops them
    # from the loop one at a time.
    inputs = _group(d, BATHS[bath])
    series, _ = evolve_loop(*inputs, 120)
    t_star, p_star = collision_first_max(*inputs, 120)
    want = np.array([[_first_max(row) for row in rows] for rows in series])
    assert np.array_equal(t_star, want)
    assert np.array_equal(p_star, np.take_along_axis(series, want[..., None], axis=-1)[..., 0])
    assert len(set(t_star.max(axis=1).tolist())) == 3


def test_stacked_dicke_pair_equals_each_matrix_alone_bitwise():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(12)
    unitaries = [noise_unitary(name).matrix for name in ("x", "y", "z", "hadamard")]
    for u in unitaries + [haar_noise(rng).matrix for _ in range(2)]:
        pair = np.stack((u, flip @ u @ flip))
        powers = noise._dicke_powers(pair, 40)
        assert [p.shape for p in powers] == [(2, k + 1, k + 1) for k in range(41)]
        for i in range(2):
            alone, loop = noise._dicke_powers(pair[i], 40), dicke_powers_loop(pair[i], 40)
            for k in range(41):
                assert np.array_equal(powers[k][i], loop[k]), (i, k)
                assert np.array_equal(alone[k], loop[k]), (i, k)


@pytest.mark.parametrize("d", [2, 4, 12])
def test_group_operators_equal_each_system_alone_bitwise(d):
    systems = _systems(d)
    g, gp, _, _, sigma0 = _group(d)
    for i, (inst, spec) in enumerate(systems):
        g_i, gp_i, s_i = noise._dicke_operators(inst.n, inst.marked, spec.u.matrix, spec.positions)
        assert np.array_equal(g[i, 0], g_i) and np.array_equal(gp[i, 0], gp_i)
        assert np.array_equal(sigma0[i, 0], markov._label_start(projector(s_i)))


def test_evolve_without_blocks_keeps_no_step_history():
    # d = 62: one label-block stack of three members is 3 * 2 * 62^2 * 16
    # bytes, about 369 KB. Without kept blocks the loop's memory grows with
    # the horizon only by its per-step reads: the probability (8 bytes) and
    # the two marked diagonal entries (32 bytes) per member and step.
    g, gp, s = noise._dicke_operators(40, 0, noise_unitary("hadamard").matrix, tuple(range(30)))
    assert g.shape == (62, 62)
    first, steady = transfer_weights(POINTS[3:6])
    sigma0 = markov._label_start(projector(s))

    def peak(steps):
        tracemalloc.start()
        try:
            collision_evolve(g, gp, first, steady, sigma0, steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)
    growth = peak(400) - peak(50)
    assert 0 < growth <= 350 * 3 * 40 + 4096, growth
    assert growth < 62**2 * 16  # less than one d x d block


@pytest.mark.parametrize("n, m, marked", [(8, 6, 170), (40, 30, 0)])
def test_verify_dilation_is_prefix_stable_in_trials(monkeypatch, n, m, marked):
    # d = 32 runs its trials in stacks of 4, so 5 trials end on a stack of
    # one; at d = 62 every stack holds one trial. trials = k must give the
    # largest of the first k distances of one 8-trial run, bitwise.
    g, gp, _ = noise._dicke_operators(n, marked, noise_unitary("hadamard").matrix, tuple(range(m)))
    assert g.shape[0] == {8: 32, 40: 62}[n]
    u = dilation_unitary(MarkovNoiseParams(0.3, 0.5), g, gp)
    kset = kraus_from_dilation(u)
    distances = []
    real = collision.trace_distance

    def spy(a, b):
        distances.append(real(a, b))
        return distances[-1]

    monkeypatch.setattr(collision, "trace_distance", spy)
    verify_dilation(u, kset, 8, 1234)
    monkeypatch.setattr(collision, "trace_distance", real)
    each = np.concatenate(distances)
    assert each.shape == (8,)
    for k in range(1, 9):
        assert verify_dilation(u, kset, k, 1234) == np.max(each[:k]), k
