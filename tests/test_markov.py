import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from support import (
    dense_operators,
    haar_noise,
    initial_joint_state,
    label_blocks,
    lift,
    random_density,
)

from noisygrover import collision, markov, noise
from noisygrover.collision import thermal_weights
from noisygrover.grover import (
    GroverInstance,
    grover_operator,
    ideal_success_closed_form,
    ideal_success_series,
    uniform_superposition,
)
from noisygrover.linalg import (
    InvariantViolation,
    assert_density,
    projector,
    require_density,
    tensor,
    trace_distance,
)
from noisygrover.markov import (
    HISTORY_MAX_STEPS,
    MarkovNoiseParams,
    conditional_probs,
    history_oracle,
    markov_evolve,
    perfect_memory_analytic,
    perfect_memory_first_max,
)
from noisygrover.noise import (
    build_chi,
    closed_form_overlaps,
    noise_spec,
    noise_unitary,
    single_qubit_unitary,
)

INST3 = GroverInstance(3)
SPEC_X1 = noise_spec(noise_unitary("x"), 1, 3)


def test_params_validation():
    with pytest.raises(ValueError):
        MarkovNoiseParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        MarkovNoiseParams(0.5, 1.1)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("mu", [0.0, 0.4, 1.0])
def test_conditional_probs_columns_sum_to_one(p, mu):
    # P[next, previous]: each column is a distribution over the next label
    c = conditional_probs(MarkovNoiseParams(p, mu))
    assert c.shape == (2, 2)
    assert np.max(np.abs(c.sum(axis=0) - 1.0)) <= 1e-15
    assert np.all((-1e-15 <= c) & (c <= 1.0 + 1e-15))


def test_conditional_probs_limits():
    # always-faulty chain: leaving g' is impossible
    c = conditional_probs(MarkovNoiseParams(1.0, 0.3))
    assert c[0, 1] == 0.0
    assert c[1, 1] == 1.0
    assert c[0, 0] == pytest.approx(0.3)  # mu survives only via the diagonal
    # mu = 1 freezes the label regardless of p
    c = conditional_probs(MarkovNoiseParams(0.2, 1.0))
    assert np.array_equal(c, np.eye(2))
    # mu = 0 is i.i.d.: both columns are the stationary law (1 - p, p),
    # the first collision's draw
    c = conditional_probs(MarkovNoiseParams(0.2, 0.0))
    assert np.array_equal(c, [[0.8, 0.8], [0.2, 0.2]])


def test_conditional_probs_stacks_points():
    # The one chain law also takes stacked p and mu, as transfer_weights
    # passes them: each member is the single point's matrix, bitwise.
    ps, mus = np.meshgrid([0.0, 0.25, 1 / 3, 1.0], [0.0, 0.4, 0.5, 1.0])
    stack = noise._transition(ps, mus)
    assert stack.shape == ps.shape + (2, 2)
    for index in np.ndindex(ps.shape):
        point = MarkovNoiseParams(float(ps[index]), float(mus[index]))
        assert np.array_equal(stack[index], conditional_probs(point))


def test_initial_joint_state():
    r0 = initial_joint_state(INST3)
    assert r0.shape == (16, 16)
    assert assert_density(r0).passed
    plus = np.full((2, 2), 0.5)  # |+><+|, every entry 1/2 exactly
    expected = tensor(plus, projector(uniform_superposition(INST3)))
    assert np.array_equal(r0, expected)


def test_start_blocks_are_the_joint_starts_blocks_bit_for_bit():
    # The step loop's start is the two diagonal blocks of |+><+| (x) rho,
    # with |+><+| exact: every entry 1/2, so each block is 0.5 * rho.
    plus = np.full((2, 2), 0.5)
    rng = np.random.default_rng(4)
    for rho in (projector(uniform_superposition(INST3)), random_density(5, rng)):
        joint = tensor(plus, rho)
        start = markov._label_start(rho)
        assert np.array_equal(start, label_blocks(joint))
        assert np.array_equal(start[0], 0.5 * rho) and np.array_equal(start[1], 0.5 * rho)
    # The success tables and markov_evolve start from |s> of the weight
    # basis, the tables from their group's build and markov_evolve from
    # the one-system build.
    params = MarkovNoiseParams(0.3, 0.6)
    for n, m in ((3, 1), (4, 4), (5, 2)):
        inst, spec = GroverInstance(n, 2**n - 2), noise_spec(noise_unitary("hadamard"), m, n)
        _, (group,) = markov._table_groups([(inst, spec)], [params], None)
        sigma0 = markov._group_inputs(group)[4]
        m, q, _ = noise._weight_class(n, inst.marked, spec.positions)
        coordinates = noise._weight_coordinates(n, m, q, noise._eigen_frame(spec.u))
        s = noise._weight_operators([coordinates])[3][0]
        joint = tensor(plus, projector(s))
        assert sigma0.shape == (1, 1, 2) + (s.size, s.size)
        assert np.array_equal(sigma0[0, 0], label_blocks(joint))
        s = noise._weight_system(n, inst.marked, spec.u, spec.positions)[3]
        joint = tensor(plus, projector(s))
        assert np.array_equal(markov_evolve(inst, spec, params, 0).blocks[0], label_blocks(joint))


def test_noiseless_limit_recovers_ideal_series():
    ideal = ideal_success_series(INST3, 12)
    for mu in (0.0, 0.7):
        trace = markov_evolve(INST3, SPEC_X1, MarkovNoiseParams(0.0, mu), 12)
        assert np.max(np.abs(trace.probabilities - ideal)) < 1e-12


def test_always_faulty_limit_is_pure_faulty_walk():
    spec = noise_spec(noise_unitary("hadamard"), 2, 3)
    gp = build_chi(3, spec) @ grover_operator(INST3)
    v = uniform_superposition(INST3)
    expected = [abs(v[0]) ** 2]
    for _ in range(10):
        v = gp @ v
        expected.append(abs(v[0]) ** 2)
    trace = markov_evolve(INST3, spec, MarkovNoiseParams(1.0, 0.4), 10)
    assert np.max(np.abs(trace.probabilities - expected)) < 1e-12


def test_first_step_uses_stationary_mixture():
    p = 0.35
    g = grover_operator(INST3)
    gp = build_chi(3, SPEC_X1) @ g
    s = uniform_superposition(INST3)
    expected = (1.0 - p) * abs((g @ s)[0]) ** 2 + p * abs((gp @ s)[0]) ** 2
    trace = markov_evolve(INST3, SPEC_X1, MarkovNoiseParams(p, 0.9), 1)
    assert abs(trace.probabilities[1] - expected) < 1e-12


def test_matches_history_oracle_states():
    params = MarkovNoiseParams(0.3, 0.7)
    evolved = markov_evolve(INST3, SPEC_X1, params, 6)
    reference = history_oracle(*dense_operators(INST3, SPEC_X1), params, 6)
    for a, b in zip(lift(INST3, SPEC_X1, evolved.blocks.sum(axis=1)), reference):
        assert trace_distance(a, b) < 1e-12
    probs = reference[:, INST3.marked, INST3.marked].real
    assert np.max(np.abs(evolved.probabilities - probs)) < 1e-12


def _enumerated_histories(inst, spec, params, steps):
    # Reference: every history (k_1 .. k_t) evaluated on its own, in
    # itertools.product order, as the sum was first written.
    g = grover_operator(inst)
    ops = (g, build_chi(inst.n, spec) @ g)
    trans = conditional_probs(params)
    first = (1.0 - params.p, params.p)
    rho0 = projector(uniform_superposition(inst))
    states = [rho0]
    for t in range(1, steps + 1):
        acc = np.zeros_like(rho0)
        for hist in itertools.product((0, 1), repeat=t):
            weight = first[hist[0]]
            for prev, cur in zip(hist, hist[1:]):
                weight *= trans[cur, prev]
            if weight == 0.0:
                continue
            v = rho0
            for k in hist:
                v = ops[k] @ v @ np.conj(ops[k]).T
            acc += weight * v
        states.append(acc)
    probs = np.array([s[inst.marked, inst.marked].real for s in states])
    return probs, states


def _assert_close_to_enumeration(sums, inst, spec, params, steps):
    # The tree walk forms its sums from other products than one history at
    # a time, so they agree to rounding: at most 8.9e-16 on the n = 3, 4
    # grid and 1.2e-15 on the split cases.
    probs, states = _enumerated_histories(inst, spec, params, steps)
    assert len(sums) == steps + 1
    assert np.max(np.abs(sums[:, inst.marked, inst.marked].real - probs)) <= 1e-14, steps
    for ours, ref in zip(sums, states, strict=True):
        assert np.max(np.abs(ours - ref)) <= 1e-14, steps


@pytest.mark.parametrize(
    "p, mu", [(0.3, 0.7), (0.0, 0.4), (1.0, 0.2), (0.6, 1.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.0)]
)
@pytest.mark.parametrize("n", [3, 4])
def test_history_oracle_equals_enumeration(n, p, mu):
    # Zero-weight chains included: they drop out of both sums.
    rng = np.random.default_rng(600 + n)
    u = haar_noise(rng)
    inst = GroverInstance(n, int(rng.integers(2**n)))
    spec = noise_spec(u, 2, n, sorted(rng.choice(n, size=2, replace=False).tolist()))
    params = MarkovNoiseParams(p, mu)
    ops = dense_operators(inst, spec)
    for steps in range(9):
        sums = history_oracle(*ops, params, steps)
        _assert_close_to_enumeration(sums, inst, spec, params, steps)


@pytest.mark.parametrize(
    "n, p, mu, steps",
    [
        (2, 0.3, 0.7, HISTORY_MAX_STEPS),  # 4096 leaves, 4096 states a run: no cut
        (3, 0.3, 0.7, HISTORY_MAX_STEPS),  # 4096 leaves, 2048 states a run
        (4, 0.6, 0.2, HISTORY_MAX_STEPS),  # 4096 leaves, 1024 states a run
        (4, 0.0, 1.0, 9),
        (4, 1.0, 1.0, 10),
        (3, 0.0, 0.4, 11),
        (4, 0.7, 1.0, 11),
    ],
)
def test_history_oracle_equals_enumeration_where_batches_split(n, p, mu, steps):
    # A run holds _BATCH_ENTRIES // N states, 2^14 / 2^n. At the horizon
    # cap the deepest same-depth ranges of n = 3 and 4 outgrow a run and
    # are cut into runs; zero-weight chains drop whole ranges.
    rng = np.random.default_rng(700 + n)
    u = single_qubit_unitary(
        np.exp(2j * math.pi * rng.uniform()) * 0.6,
        np.exp(2j * math.pi * rng.uniform()) * 0.8,
        2.0 * math.pi * rng.uniform(),
    )
    inst = GroverInstance(n, int(rng.integers(2**n)))
    spec = noise_spec(u, 2, n, sorted(rng.choice(n, size=2, replace=False).tolist()))
    params = MarkovNoiseParams(p, mu)
    sums = history_oracle(*dense_operators(inst, spec), params, steps)
    _assert_close_to_enumeration(sums, inst, spec, params, steps)


@pytest.mark.parametrize("factor", [1, 3, 7])
@pytest.mark.parametrize("n", [3, 4])
def test_history_walk_cuts_its_runs_by_the_one_stack_rule(monkeypatch, n, factor):
    # Budgets of D, 3D and 7D entries (D = N here) give runs of 1, 3 and 7
    # states, which halving a range never makes. Every run that _chunks
    # hands the walk holds at most _BATCH_ENTRIES entries or one state,
    # and the sums still meet the enumeration.
    rng = np.random.default_rng(800 + n)
    inst = GroverInstance(n, int(rng.integers(2**n)))
    spec = noise_spec(haar_noise(rng), 2, n, sorted(rng.choice(n, size=2, replace=False).tolist()))
    params = MarkovNoiseParams(0.3, 0.7)
    budget = factor * inst.N
    monkeypatch.setattr(collision, "_BATCH_ENTRIES", budget)
    real, runs = markov._chunks, []

    def spy(sizes):
        sizes = list(sizes)
        for run in real(sizes):
            runs.append(sizes[run])
            yield run

    monkeypatch.setattr(markov, "_chunks", spy)
    ops = dense_operators(inst, spec)
    for steps in range(9):
        sums = history_oracle(*ops, params, steps)
        _assert_close_to_enumeration(sums, inst, spec, params, steps)
    assert all(len(run) == 1 or sum(run) <= budget for run in runs)
    assert max(len(run) for run in runs) == factor


@pytest.mark.parametrize("m", [31, 127])
def test_history_walk_keeps_one_run_per_depth(m):
    # d' = 2(m + 1) = 64 and 256 at n = m + 1. The walk's traced peak is
    # bounded by what its docstring keeps alive: the steps + 1 D x D sums
    # and one D x D product, one run of at most max(E, D) entries per depth
    # with its weights and its parent run's child weights (3 floats a
    # state), the rank-one sum's two run-sized temporaries, and 64 KiB for
    # the rest. A walk that forms a whole depth at once holds the last two
    # depths, 6144 states (6 MiB at D = 64, 24 MiB at D = 256), and fails.
    steps, entries = HISTORY_MAX_STEPS, collision._BATCH_ENTRIES
    spec = noise_spec(noise_unitary("hadamard"), m, m + 1)
    _, g, gp, s = noise._weight_system(m + 1, 0, spec.u, spec.positions)
    d = s.size
    assert d == 2 * (m + 1)
    run = max(entries, d)
    bound = 16 * (steps + 2) * d**2 + (steps + 2) * 16 * run + steps * 24 * (run // d) + 2**16
    tracemalloc.start()
    try:
        history_oracle(g, gp, s, MarkovNoiseParams(0.3, 0.6), steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (d, peak, bound)


@pytest.mark.parametrize("p, mu", [(0.3, 0.7), (0.0, 0.5), (1.0, 0.2), (0.6, 1.0), (0.5, 0.0)])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_history_oracle_states_are_density_matrices(n, p, mu):
    # Each sum adds rank-one terms from one matrix product, not exact
    # conjugations, so Hermiticity holds to rounding and is checked too.
    rng = np.random.default_rng(800 + n)
    u = haar_noise(rng)
    inst = GroverInstance(n, int(rng.integers(2**n)))
    spec = noise_spec(u, 2, n, sorted(rng.choice(n, size=2, replace=False).tolist()))
    sums = history_oracle(*dense_operators(inst, spec), MarkovNoiseParams(p, mu), 10)
    report = assert_density(sums, tol=1e-13)
    assert np.all(report.passed), report


@pytest.mark.parametrize("n", [7, 8])
def test_matches_history_oracle_states_at_the_step_cap(n):
    # The hot path against the dense history sum at the step cap, where the
    # oracle's batches hold 128 (n = 7) and 64 (n = 8) states.
    rng = np.random.default_rng(1000 + n)
    u = haar_noise(rng)
    inst = GroverInstance(n, int(rng.integers(2**n)))
    spec = noise_spec(u, 3, n, sorted(rng.choice(n, size=3, replace=False).tolist()))
    params = MarkovNoiseParams(0.35, 0.6)
    evolved = markov_evolve(inst, spec, params, HISTORY_MAX_STEPS)
    reference = history_oracle(*dense_operators(inst, spec), params, HISTORY_MAX_STEPS)
    states = lift(inst, spec, evolved.blocks.sum(axis=1))
    for a, b in zip(states, reference, strict=True):
        assert trace_distance(a, b) < 1e-12
    probs = reference[:, inst.marked, inst.marked].real
    assert np.max(np.abs(evolved.probabilities - probs)) < 1e-12


def test_history_oracle_refuses_large_horizons():
    for steps in (HISTORY_MAX_STEPS + 1, 17):
        with pytest.raises(ValueError, match="refused"):
            history_oracle(*dense_operators(INST3, SPEC_X1), MarkovNoiseParams(0.5, 0.5), steps)


def test_history_oracle_refuses_operators_that_do_not_match():
    g, gp, s = dense_operators(INST3, SPEC_X1)
    params = MarkovNoiseParams(0.5, 0.5)
    for ops in ((g, gp, s[:4]), (g, gp[:4, :4], s), (g[:, :4], gp, s), (g, gp, s[:, None])):
        with pytest.raises(ValueError, match="do not match"):
            history_oracle(*ops, params, 3)


def _require_joint_states(trace):
    # Every step's block-diagonal joint diag(sigma_0, sigma_1), t = 0
    # included, is a density matrix within 1e-9; raises naming the first
    # step that is not.
    require_density(trace.blocks, 1e-9, what="joint state t={}", blocks=True)


def test_trace_keeps_the_label_blocks():
    # A run keeps every step's label blocks at d x d, t = 0 included, and
    # they pass the joint density check.
    params = MarkovNoiseParams(0.4, 0.2)
    bare = markov_evolve(INST3, SPEC_X1, params, 5)
    _require_joint_states(bare)
    assert bare.probabilities.shape == (6,)
    d = bare.meta["dim"]
    assert bare.blocks.shape == (6, 2, d, d)
    # Lifted to N x N, the blocks' sums are density matrices whose marked
    # diagonal is the success probability.
    states = lift(INST3, SPEC_X1, bare.blocks.sum(axis=1))
    assert states.shape == (6, 8, 8)
    for t, rho in enumerate(states):
        assert assert_density(rho, tol=1e-9).passed
        assert abs(bare.probabilities[t] - rho[0, 0].real) < 1e-12


def _poison(kind, block):
    # Break one property of a d x d label block in place, d >= 2.
    if kind == "nan":
        block[0, 0] = math.nan
    elif kind == "skew":  # a non-Hermitian part
        block[0, -1] += 1e-6
    elif kind == "trace":
        block *= 1.01
    elif kind == "negative":  # same trace, an eigenvalue 1e-6 below the smallest
        _, vecs = np.linalg.eigh(block)
        block += 1e-6 * (projector(vecs[:, -1]) - projector(vecs[:, 0]))


@pytest.mark.parametrize("temperature", [None, 1.0])
@pytest.mark.parametrize("kind", ["nan", "skew", "trace", "negative"])
def test_validate_names_the_first_bad_step(monkeypatch, kind, temperature):
    # markov_evolve looks collision_evolve up in markov's namespace, so the
    # one patched there runs. Label block 1 is poisoned at steps 3 and 5; the check names
    # step 3, and the padded joint of each step fails assert_density
    # exactly at those steps.
    kept = []

    def poisoned(*args, **kwargs):
        trace = real(*args, **kwargs)
        blocks = trace.blocks.copy()
        for t in (3, 5):
            _poison(kind, blocks[t, 1])
        kept.append(blocks)
        return replace(trace, blocks=blocks)

    real = markov.collision_evolve
    monkeypatch.setattr(markov, "collision_evolve", poisoned)
    bath = None if temperature is None else thermal_weights(temperature)
    params = MarkovNoiseParams(0.4, 0.6)
    trace = markov_evolve(INST3, SPEC_X1, params, 6, bath=bath)
    with pytest.raises(InvariantViolation, match=r"joint state t=3 is not a density matrix"):
        _require_joint_states(trace)
    blocks = kept[0]
    d = blocks.shape[-1]
    for t, (upper, lower) in enumerate(blocks):
        joint = np.zeros((2 * d, 2 * d), dtype=complex)
        joint[:d, :d], joint[d:, d:] = upper, lower
        assert assert_density(joint, tol=1e-9).passed == (t not in (3, 5)), t
    # The run hands the poisoned blocks back unchecked.
    assert np.array_equal(trace.blocks, blocks, equal_nan=True)


@pytest.mark.parametrize("kind", ["nan", "skew", "trace", "negative"])
def test_validate_checks_the_start_blocks(monkeypatch, kind):
    # The blocks at t = 0 are all the loop reads of the start, and the
    # check reads them as it reads every later step.
    def poisoned(*args, **kwargs):
        trace = real(*args, **kwargs)
        blocks = trace.blocks.copy()
        _poison(kind, blocks[0, 0])
        return replace(trace, blocks=blocks)

    real = markov.collision_evolve
    monkeypatch.setattr(markov, "collision_evolve", poisoned)
    trace = markov_evolve(INST3, SPEC_X1, MarkovNoiseParams(0.4, 0.6), 4)
    with pytest.raises(InvariantViolation, match=r"joint state t=0 is not a density matrix"):
        _require_joint_states(trace)


@pytest.mark.parametrize("temperature", [None, 1.0])
@pytest.mark.parametrize("n", range(1, 7))
def test_validate_passes_clean_runs(n, temperature):
    rng = np.random.default_rng(900 + n)
    bath = None if temperature is None else thermal_weights(temperature)
    for m in range(n + 1):
        inst = GroverInstance(n, int(rng.integers(2**n)))
        u = haar_noise(rng)
        spec = noise_spec(u, m, n, sorted(rng.choice(n, size=m, replace=False).tolist()))
        params = MarkovNoiseParams(rng.uniform(), rng.uniform())
        _require_joint_states(markov_evolve(inst, spec, params, 12, bath=bath))


def test_perfect_memory_analytic_values():
    # t = 0 gives the initial 1/N; N = 8 lands on exactly 1/32 after one step
    assert perfect_memory_analytic(8, 0) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert perfect_memory_analytic(8, 1) == pytest.approx(1.0 / 32.0, abs=1e-14)


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (3, 3), (4, 2), (9, 4), (10, 10)])
def test_perfect_memory_matches_simulation(n, m):
    inst = GroverInstance(n)
    spec = noise_spec(noise_unitary("x"), m, n)
    trace = markov_evolve(inst, spec, MarkovNoiseParams(1.0, 1.0), 20)
    expected = [perfect_memory_analytic(inst.N, t) for t in range(21)]
    assert np.max(np.abs(trace.probabilities - expected)) < 1e-12


@pytest.mark.parametrize("n", [9, 10])
def test_large_n_matches_closed_forms(n):
    # Haar u, random positions and marked index: one faulty step from |s>
    # at p = 1, and the ideal series at p = 0.
    rng = np.random.default_rng(500 + n)
    for m in range(n + 1):
        u = haar_noise(rng)
        inst = GroverInstance(n, int(rng.integers(2**n)))
        positions = sorted(rng.choice(n, size=m, replace=False).tolist())
        spec = noise_spec(u, m, n, positions)
        q = sum((inst.marked >> (n - 1 - pos)) & 1 for pos in positions)
        faulty = markov_evolve(inst, spec, MarkovNoiseParams(1.0, rng.uniform()), 1)
        assert abs(faulty.probabilities[1] - closed_form_overlaps(u, n, m, q).p1) < 1e-12
        clean = markov_evolve(inst, spec, MarkovNoiseParams(0.0, rng.uniform()), 30)
        ideal = [ideal_success_closed_form(inst.N, t) for t in range(31)]
        assert np.max(np.abs(clean.probabilities - ideal)) < 1e-12


def test_perfect_memory_first_max():
    loc = perfect_memory_first_max(8)
    assert abs(loc - 1.8833960613578387) < 1e-12
    # it is a genuine local maximum of the continuous curve
    h = 1e-5
    assert perfect_memory_analytic(8, loc) >= perfect_memory_analytic(8, loc - h)
    assert perfect_memory_analytic(8, loc) >= perfect_memory_analytic(8, loc + h)
