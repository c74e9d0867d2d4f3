"""The closed-form Dicke-basis operators against the N x d orbit bases they
replace, the closed forms at n = 20..40, and the batched series."""

import math
import os

import numpy as np
import pytest
from support import haar_noise, label_blocks, reduced_sigma_x_walks

from noisygrover import cli, collision, grover, markov, measures, noise
from noisygrover.collision import collision_evolve, thermal_weights, transfer_weights
from noisygrover.grover import GroverInstance, ideal_success_closed_form, uniform_superposition
from noisygrover.linalg import dagger, projector, require_density, tensor
from noisygrover.markov import (
    MarkovNoiseParams,
    markov_evolve,
    markov_series,
    perfect_memory_analytic,
)
from noisygrover.measures import _split_operators, n_blp, n_cp
from noisygrover.noise import (
    _dicke_operators,
    _dicke_powers,
    closed_form_overlaps,
    noise_spec,
    noise_unitary,
    orbit_basis,
    sigma_y_p2,
)


def _compressed(inst, spec, v):
    # Reference: G, G' and |s> compressed through a real N x d isometry V
    # whose span holds |s> and |w> and is invariant under G and chi. chi is
    # applied to V one noisy qubit at a time, and V^dagger chi G V =
    # (V^dagger chi V)(V^dagger G V) on a G-invariant span.
    dim = v.shape[1]
    s = v.T @ uniform_superposition(inst)
    w = v[inst.marked]
    g = 2.0 * np.outer(s, np.conj(s)) - np.eye(dim)
    g -= (4.0 / math.sqrt(inst.N)) * np.outer(s, w)
    g += 2.0 * np.outer(w, w)
    chi_v = v.reshape((2,) * inst.n + (dim,))
    for pos in spec.positions:
        chi_v = np.moveaxis(np.tensordot(spec.u.matrix, chi_v, axes=(1, pos)), 0, pos)
    return g, (v.T @ chi_v.reshape(v.shape)) @ g, s


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])


def _words(ops, starts, depth=3):
    # Each start and every word of at most ``depth`` of ``ops`` applied to
    # it, as rows.
    layer, rows = list(starts), list(starts)
    for _ in range(depth):
        layer = [op @ v for v in layer for op in ops]
        rows += layer
    return np.array(rows)


def _cases(n, seed, ones=None):
    # Every m, with random positions and Haar noise. The marked index is
    # random, or has ``ones`` random 1 bits, which caps q and so d at large n.
    rng = np.random.default_rng(seed)
    for m in range(n + 1):
        positions = sorted(rng.choice(n, size=m, replace=False).tolist())
        if ones is None:
            marked = int(rng.integers(2**n))
        else:
            marked = sum(1 << int(b) for b in rng.choice(n, size=ones, replace=False))
        yield GroverInstance(n, marked), noise_spec(haar_noise(rng), m, n, positions)


def _q(inst, spec):
    return sum((inst.marked >> (inst.n - 1 - p)) & 1 for p in spec.positions)


@pytest.mark.parametrize("n", range(1, 9))
def test_dicke_operators_equal_the_orbit_basis_compressions(n):
    for inst, spec in _cases(n, 100 + n):
        _, *got = _dicke_operators(inst.n, inst.marked, spec.u.matrix, spec.positions)
        want = _compressed(inst, spec, orbit_basis(inst, spec))
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-13, (inst, spec.positions)
        # The backflow witness's split space runs on the weight basis of the
        # other n - 1 qubits, not the orbit basis: its operators are held to
        # the dense ones through the inner products of every word of at
        # most three of G, G', X_0 and Z_0 applied to |s> and |w>, which
        # any isometry onto an invariant space keeps.
        half = inst.N // 2
        g, gp, s = _split_operators(inst, spec)
        d_rest = s.size // 2
        w = np.eye(s.size)[(inst.marked // half) * d_rest]
        got = _words([g, gp, np.kron(_X, np.eye(d_rest)), np.kron(_Z, np.eye(d_rest))], [s, w])
        g = grover.grover_operator(inst)
        ops = [g, noise.build_chi(n, spec) @ g]
        ops += [np.kron(_X, np.eye(half)), np.kron(_Z, np.eye(half))]
        want = _words(ops, [uniform_superposition(inst), np.eye(inst.N)[inst.marked]])
        gram = np.max(np.abs(got.conj() @ got.T - want.conj() @ want.T))
        assert gram < 1e-13, (inst, spec.positions)


@pytest.mark.parametrize("k", range(0, 13))
def test_dicke_power_is_the_binomial_sum(k):
    # The binomial sums cancel at large k, so they serve as the reference
    # only where rounding keeps them exact to well below the tolerance.
    rng = np.random.default_rng(k)
    a = haar_noise(rng).matrix
    (a00, a01), (a10, a11) = a
    want = np.empty((k + 1, k + 1), dtype=complex)
    for x in range(k + 1):
        for y in range(k + 1):
            want[x, y] = math.sqrt(math.comb(k, y) / math.comb(k, x)) * sum(
                math.comb(y, i) * math.comb(k - y, x - i)
                * a11**i * a01 ** (y - i) * a10 ** (x - i) * a00 ** (k - y - x + i)
                for i in range(max(0, x + y - k), min(x, y) + 1)
            )
    assert np.max(np.abs(_dicke_powers(a, k)[k] - want)) < 1e-13


@pytest.mark.parametrize("k", range(0, 7))
def test_dicke_power_is_the_restricted_tensor_power(k):
    # D^(k)(a) = E^dagger a^(x k) E with E the Dicke states as columns.
    a = haar_noise(np.random.default_rng(50 + k)).matrix
    weight = np.array([bin(i).count("1") for i in range(2**k)])
    e = np.stack([(weight == x) / math.sqrt(math.comb(k, x)) for x in range(k + 1)], axis=1)
    power = np.ones((1, 1), dtype=complex)
    for _ in range(k):
        power = np.kron(power, a)
    assert np.max(np.abs(_dicke_powers(a, k)[k] - e.T @ power @ e)) < 1e-13


def test_dicke_power_stays_unitary_at_forty_qubits():
    a = haar_noise(np.random.default_rng(7)).matrix
    d = _dicke_powers(a, 40)[40]
    assert np.max(np.abs(dagger(d) @ d - np.eye(41))) < 1e-13


def _rolled_dicke_power(a, k):
    # The recursion of _dicke_powers as it was first written: each shifted
    # copy of the last power is a full-size np.roll of it, zero-padded.
    d = np.ones((1, 1), dtype=complex)
    for size in range(1, k + 1):
        x = np.arange(size + 1)
        stay = np.sqrt((size - x) / size)[:, None]
        move = np.sqrt(x / size)[:, None]
        pad = np.zeros((size + 1, size + 1), dtype=complex)
        pad[:-1, :-1] = d
        low = np.roll(pad, 1, axis=0)
        d = (
            stay * stay.T * a[0, 0] * pad
            + stay * move.T * a[0, 1] * np.roll(pad, 1, axis=1)
            + move * stay.T * a[1, 0] * low
            + move * move.T * a[1, 1] * np.roll(low, 1, axis=1)
        )
    return d


def test_dicke_powers_are_bit_identical_to_the_rolled_recursion():
    # Slicing into zeros adds the same nonzero terms in the same order as
    # the rolled copies, so every power is the same floating-point matrix.
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    haar = haar_noise(np.random.default_rng(3)).matrix
    for u in [noise_unitary(name).matrix for name in ("x", "y", "z", "hadamard")] + [haar]:
        for a in (u, flip @ u @ flip):
            powers = _dicke_powers(a, 40)
            assert len(powers) == 41
            for k in (0, 1, 2, 3, 7, 40):
                assert np.array_equal(_dicke_powers(a, k)[k], _rolled_dicke_power(a, k)), k
                assert np.array_equal(powers[k], _rolled_dicke_power(a, k)), k


@pytest.mark.parametrize("n", [20, 30, 40])
def test_closed_forms_at_large_n(n):
    # Marked indices with two 1 bits keep q <= 2, so d <= 6(m + 1) here.
    rng = np.random.default_rng(900 + n)
    N = 2**n
    ideal = [ideal_success_closed_form(N, t) for t in range(31)]
    assert np.max(np.abs(grover.ideal_success_series(GroverInstance(n), 30) - ideal)) < 1e-12
    # One faulty step from |s> under Haar noise: closed_form_overlaps.p1;
    # and the noiseless series at p = 0.
    for inst, spec in _cases(n, 900 + n, ones=2):
        faulty = markov_evolve(inst, spec, MarkovNoiseParams(1.0, rng.uniform()), 1)
        p1 = closed_form_overlaps(spec.u, n, len(spec.positions), _q(inst, spec)).p1
        assert abs(faulty.probabilities[1] - p1) < 1e-12, spec.positions
        if len(spec.positions) in (1, n // 2, n):
            clean = markov_evolve(inst, spec, MarkovNoiseParams(0.0, rng.uniform()), 30)
            assert np.max(np.abs(clean.probabilities - ideal)) < 1e-12, spec.positions
    # Two faulty sigma_y steps: parity of m only.
    for m in (1, 2, n - 1, n):
        positions = sorted(rng.choice(n, size=m, replace=False).tolist())
        spec = noise_spec(noise_unitary("y"), m, n, positions)
        trace = markov_evolve(GroverInstance(n), spec, MarkovNoiseParams(1.0, 0.5), 2)
        assert abs(trace.probabilities[2] - sigma_y_p2(N, m)) < 1e-12
    # sigma_x on any nonempty set, any marked index: the 3-level walks.
    frozen, iid = reduced_sigma_x_walks(n, 0.3, 25)
    for inst, spec in list(_cases(n, 950 + n, ones=2))[1 :: n // 4]:
        x_spec = noise_spec(noise_unitary("x"), len(spec.positions), n, spec.positions)
        for mu, want in ((1.0, frozen), (0.0, iid)):
            got = markov_evolve(inst, x_spec, MarkovNoiseParams(0.3, mu), 25).probabilities
            assert np.max(np.abs(got - want)) < 1e-12, (spec.positions, mu)
    # Always faulty, sigma_x on every qubit: the perfect-memory curve.
    all_x = noise_spec(noise_unitary("x"), n, n)
    trace = markov_evolve(GroverInstance(n), all_x, MarkovNoiseParams(1.0, 1.0), 25)
    curve = [perfect_memory_analytic(N, t) for t in range(26)]
    assert np.max(np.abs(trace.probabilities - curve)) < 1e-12


@pytest.mark.parametrize("n,ones", [(2, None), (5, None), (11, None), (40, 3)])
def test_meta_dim_is_the_formula(n, ones):
    for inst, spec in _cases(n, 300 + n, ones):
        q, m = _q(inst, spec), len(spec.positions)
        dim = (q + 1) * (m - q + 1) * (1 if m == n else 2)
        assert markov_evolve(inst, spec, MarkovNoiseParams(0.4, 0.5), 1).meta["dim"] == dim


# What builds N x N (or N x d) arrays: the dense G, |s>, chi and G', and V.
_DENSE_BUILDERS = (
    "grover_operator", "uniform_superposition", "build_chi", "noisy_grover", "orbit_basis",
)


def test_no_orbit_basis_or_dense_operator_on_the_unkept_paths(monkeypatch):
    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module in (grover, noise, markov, measures, collision, cli):
        for name in _DENSE_BUILDERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    inst = GroverInstance(6, 45)
    spec = noise_spec(haar_noise(np.random.default_rng(3)), 3, 6, (0, 2, 5))
    params = MarkovNoiseParams(0.4, 0.7)
    markov_evolve(inst, spec, params, 5)
    markov_evolve(inst, spec, params, 5, bath=thermal_weights(1.0), validate=True)
    markov_series(inst, spec, [params, MarkovNoiseParams(0.1, 0.2)], 5)
    n_cp(inst, spec, params, 5)
    n_blp(inst, spec, params, 5)
    n_blp(inst, spec, params, 5, bath=thermal_weights(1.0))
    grover.ideal_success_series(inst, 5)
    # The verification subcommands run on the orbit space too.
    for command in ("oracle-check", "dilation-check"):
        assert cli.main([command, "--n", "6", "--marked", "45", "--m", "3", "--p", "0.4",
                         "--mu", "0.7", "--output", os.devnull]) == 0
    assert calls == []
    # markov_evolve and history_oracle never build the dense operators or
    # orbit_basis: neither markov nor cli imports them, and the blocks
    # markov_evolve keeps stay d x d.
    for module in (markov, cli):
        assert [name for name in _DENSE_BUILDERS if hasattr(module, name)] == []
    assert markov_evolve(inst, spec, params, 2).blocks.shape == (3, 2, 8, 8)  # d = 8, N = 64
    assert calls == []


_EDGES = [0.0, 0.3, 1.0]


@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_series_rows_equal_single_evolves(temperature):
    # Every (p, mu) of {0, 0.3, 1}^2, so that some transfer weights vanish
    # for some members and not for others.
    bath = thermal_weights(temperature) if temperature else None
    params = [MarkovNoiseParams(p, mu) for p in _EDGES for mu in _EDGES]
    for inst, spec in _cases(5, 700):
        rows = markov_series(inst, spec, params, 12, bath=bath)
        assert rows.shape == (len(params), 13)
        for row, point in zip(rows, params):
            single = markov_evolve(inst, spec, point, 12, bath=bath).probabilities
            assert np.max(np.abs(row - single)) < 1e-13, (spec.positions, point)


def test_batched_collision_evolve_keeps_each_members_states():
    inst = GroverInstance(4, 9)
    spec = noise_spec(haar_noise(np.random.default_rng(11)), 2, 4, (1, 3))
    _, g, gp, s = _dicke_operators(inst.n, inst.marked, spec.u.matrix, spec.positions)
    sigma0 = label_blocks(tensor(projector(markov._PLUS), projector(s)))
    points = [(MarkovNoiseParams(p, mu), bath) for p in (0.0, 0.6) for mu in (0.2, 1.0)
              for bath in (None, thermal_weights(0.5))]
    weights = [transfer_weights(params, bath) for params, bath in points]
    first = np.stack([w[0] for w in weights]).reshape(2, 4, 2, 2, 2)
    steady = np.stack([w[1] for w in weights]).reshape(2, 4, 2, 2, 2)
    batched = collision_evolve(g, gp, first, steady, sigma0, 6, keep_blocks=True)
    assert batched.probabilities.shape == (2, 4, 7)
    assert batched.blocks.shape == (2, 4, 7, 2) + g.shape
    for b, (w_first, w_steady) in enumerate(weights):
        i, j = divmod(b, 4)
        require_density(batched.blocks[i, j], 1e-9, what="joint state t={}", blocks=True)
        single = collision_evolve(g, gp, w_first, w_steady, sigma0, 6, keep_blocks=True)
        assert np.max(np.abs(batched.probabilities[i, j] - single.probabilities)) < 1e-13
        assert np.max(np.abs(batched.blocks[i, j] - single.blocks)) < 1e-13
    # A single steady tensor broadcasts against a stack of first ones.
    shared = collision_evolve(g, gp, first[0], weights[0][1], sigma0, 6)
    assert shared.probabilities.shape == (4, 7)
    assert np.max(np.abs(shared.probabilities[0] - batched.probabilities[0, 0])) < 1e-13
