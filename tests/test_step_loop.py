"""The buffered step loop against its reference in support.py, bitwise,
also on read-only inputs, which it never writes; the weight-basis
operators of a d'-group against each system's alone, bitwise; the
witnesses' split operators against the per-system weight build, bitwise;
the loop's memory without kept blocks; and
``verify_dilation``'s prefix stability in the number of trials."""

import tracemalloc

import numpy as np
import pytest
from support import (
    dicke_operators_loop,
    evolve_loop,
    haar_noise,
    split_operators_loop,
)

from noisygrover import collision, markov, measures, noise
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
from noisygrover.noise import PRESETS, noise_spec, noise_unitary

U = haar_noise(np.random.default_rng(11))
POINTS = [MarkovNoiseParams(p, mu) for p in (0.0, 0.37, 1.0) for mu in (0.0, 0.6, 1.0)]
# Pure ancillas, a bath whose excited weight rounds to 0 (the pure step's
# shape) and a warm bath (every block through both operators).
BATHS = {"pure": None, "cold": thermal_weights(0.01), "warm": thermal_weights(0.7)}


def _weight_dim(n, marked, positions):
    m, q, _ = noise._weight_class(n, marked, positions)
    return len(noise._weight_coordinates(n, m, q, noise._eigen_frame(U))[0])


def _systems(d):
    """Three (inst, spec) systems of weight-basis dimension d', each on its
    own n, so their first maxima fall at different steps."""
    found = []
    for n in (4, 6, 7, 8):
        for marked in range(2**n):
            hits = [
                positions
                for positions in [()] + noise._class_representatives(n, marked)
                if _weight_dim(n, marked, positions) == d
            ]
            if hits:
                found.append((GroverInstance(n, marked), noise_spec(U, len(hits[0]), n, hits[0])))
                break
        if len(found) == 3:
            return found
    raise AssertionError(d)


def _group(d, bath=None):
    """The inputs of the one d'-group of three systems against POINTS:
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


@pytest.mark.parametrize("bath", BATHS)
def test_the_loop_writes_no_array_it_did_not_make(bath):
    # Read-only G, G', transfer tensors and start, so any write into them
    # raises; the three systems leave the first-maximum loop at different
    # steps, so its stacks are cut twice.
    inputs = [np.array(a) for a in _group(4, BATHS[bath])]
    for a in inputs:
        a.flags.writeable = False
    series, blocks = evolve_loop(*inputs, 120)
    plain = collision_evolve(*inputs, 120)
    kept = collision_evolve(*inputs, 120, keep_blocks=True)
    t_star, p_star = collision_first_max(*inputs, 120)
    assert np.array_equal(plain.probabilities, series)
    assert np.array_equal(kept.probabilities, series)
    assert np.array_equal(kept.blocks, blocks)
    assert not any(np.shares_memory(kept.blocks, a) for a in inputs)
    want = np.array([[_first_max(row) for row in rows] for rows in series])
    assert np.array_equal(t_star, want)
    assert np.array_equal(p_star, np.take_along_axis(series, want[..., None], axis=-1)[..., 0])
    assert len(set(t_star.max(axis=1).tolist())) == 3


@pytest.mark.parametrize("d", [2, 4, 12])
def test_group_operators_equal_each_system_alone_bitwise(d):
    systems = _systems(d)
    g, gp, _, _, sigma0 = _group(d)
    for i, system in enumerate(systems):
        _, (alone,) = markov._table_groups([system], POINTS, None)
        g_i, gp_i, _, _, sigma0_i = markov._group_inputs(alone)
        assert np.array_equal(g[i, 0], g_i[0, 0]) and np.array_equal(gp[i, 0], gp_i[0, 0])
        assert np.array_equal(sigma0[i, 0], sigma0_i[0, 0])


# The five presets and two Haar draws.
UNITARIES = [noise_unitary(name) for name in PRESETS] + [
    haar_noise(np.random.default_rng(seed)) for seed in (21, 22)
]


def _same(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_operators_equal_the_per_system_build_bitwise(n):
    # At n = 1 the other n - 1 = 0 qubits give the 1 x 1 case, d' = 1,
    # where |s> is |w>: chi = 1 and G = -1 exactly.
    chi, g, gp, s = noise._weight_system(0, 0, U, ())
    assert chi.tolist() == [[1.0]] and g.tolist() == gp.tolist() == [[-1.0]]
    assert s.tolist() == [1.0]
    rng = np.random.default_rng(300 + n)
    for marked in (0, 2**n - 1, int(rng.integers(2**n))):
        for m in range(n + 1):
            for u in UNITARIES:
                inst = GroverInstance(n, marked)
                spec = noise_spec(u, m, n, sorted(rng.choice(n, m, replace=False)))
                _same(measures._split_operators(inst, spec), split_operators_loop(inst, spec))


def test_table_of_two_unitaries_shares_each_eigen_frame_bitwise(monkeypatch):
    # Two unitaries across systems of several d', one d'-group holding
    # both: one eigen frame per distinct u, and every group's operators
    # bitwise those of each system built alone.
    other = UNITARIES[-1]
    systems = [
        (GroverInstance(5, 9), noise_spec(U, 2, 5, (0, 3))),
        (GroverInstance(5, 9), noise_spec(other, 2, 5, (0, 3))),
        (GroverInstance(6, 0), noise_spec(U, 4, 6)),
        (GroverInstance(4, 15), noise_spec(other, 4, 4)),
        (GroverInstance(7, 5), noise_spec(other, 6, 7)),
        (GroverInstance(3, 2), noise_spec(U, 1, 3, (1,))),
    ]
    real, frames = noise._eigen_frame, []

    def spy(u):
        frames.append(u)
        return real(u)

    monkeypatch.setattr(markov, "_eigen_frame", spy)
    members, groups = markov._table_groups(systems, POINTS, None)
    assert frames == [U, other]
    # d' = 6, 6, 10, 5 (m = n = 4, q = 4), 14, 4
    assert members == [[0, 1], [2], [3], [4], [5]]
    for index, group in zip(members, groups, strict=True):
        g, gp, _, _, sigma0 = markov._group_inputs(group)
        for k, i in enumerate(index):
            inst, spec = systems[i]
            m, q, _ = noise._weight_class(inst.n, inst.marked, spec.positions)
            coordinates = noise._weight_coordinates(inst.n, m, q, real(spec.u))
            _, g_i, gp_i, s_i = noise._weight_operators([coordinates])
            assert np.array_equal(g[k, 0], g_i[0]) and np.array_equal(gp[k, 0], gp_i[0])
            assert np.array_equal(sigma0[k, 0], markov._label_start(projector(s_i[0])))


def test_evolve_without_blocks_keeps_no_step_history():
    # d = 62: one label-block stack of three members is 3 * 2 * 62^2 * 16
    # bytes, about 369 KB. Without kept blocks the loop's memory grows with
    # the horizon only by its per-step reads: the probability (8 bytes) and
    # the two marked diagonal entries (32 bytes) per member and step.
    _, g, gp, s = dicke_operators_loop(40, 0, noise_unitary("hadamard").matrix, tuple(range(30)))
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
    hadamard = noise_unitary("hadamard").matrix
    _, g, gp, _ = dicke_operators_loop(n, marked, hadamard, tuple(range(m)))
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
