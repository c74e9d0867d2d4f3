"""The step loop over stacked systems and the tables that group systems by d':
stacked G, G' and start blocks against one call per member, the step's two
shapes, the first-maximum reader's shrinking batch, the grouped series
against per-class ``markov_series``, and the input checks of both."""

import concurrent.futures

import numpy as np
import pytest
from support import haar_noise

from noisygrover import cli, collision, markov
from noisygrover.cli import main
from noisygrover.collision import collision_evolve, collision_first_max, thermal_weights
from noisygrover.grover import GroverInstance
from noisygrover.markov import MarkovNoiseParams, markov_first_max, markov_series
from noisygrover.noise import NoiseSpec, noise_spec, noise_unitary

POINTS = [MarkovNoiseParams(p, mu) for p in (0.0, 0.37, 1.0) for mu in (0.0, 0.6, 1.0)]
PRESETS = ("identity", "x", "y", "z", "hadamard")


def _stack(systems, params, bath=None):
    # The inputs of one d'-group, through the grouping itself.
    members, groups = markov._table_groups(systems, params, bath)
    assert members == [list(range(len(systems)))]
    return markov._group_inputs(groups[0])


# Systems of equal d' = 4 (m = 1 < n) whose first maxima fall at
# very different steps: t* grows like sqrt(N).
U = haar_noise(np.random.default_rng(5))
SPREAD = [(GroverInstance(n, 2**n - 1 - n), noise_spec(U, 1, n, (n // 2,))) for n in (2, 4, 6, 9)]


@pytest.mark.parametrize("temperature", [None, 0.7])
def test_stacked_evolve_equals_one_call_per_member(temperature):
    bath = thermal_weights(temperature) if temperature else None
    g, gp, first, steady, sigma0 = _stack(SPREAD, POINTS, bath)
    assert g.shape == gp.shape == (4, 1, 4, 4) and sigma0.shape == (4, 1, 2, 4, 4)
    stacked = collision_evolve(g, gp, first, steady, sigma0, 12, keep_blocks=True)
    assert stacked.probabilities.shape == (4, len(POINTS), 13)
    assert stacked.blocks.shape == (4, len(POINTS), 13, 2, 4, 4)
    for i in range(4):
        for b in range(len(POINTS)):
            single = collision_evolve(
                g[i, 0], gp[i, 0], first[b], steady[b], sigma0[i, 0], 12, keep_blocks=True
            )
            assert np.max(np.abs(stacked.probabilities[i, b] - single.probabilities)) < 1e-13
            assert np.max(np.abs(stacked.blocks[i, b] - single.blocks)) < 1e-13
    # One member per system on a flat batch: G, G', the start and the
    # weights all carry the same axis.
    flat = collision_evolve(g[:, 0], gp[:, 0], first[:4], steady[:4], sigma0[:, 0], 12)
    for i in range(4):
        assert np.max(np.abs(flat.probabilities[i] - stacked.probabilities[i, i])) < 1e-13


@pytest.mark.parametrize("temperature", [None, 0.7])
def test_stacked_first_max_equals_one_call_per_member(temperature):
    bath = thermal_weights(temperature) if temperature else None
    params = [MarkovNoiseParams(p, mu) for p in (0.0, 0.2, 0.6) for mu in (0.0, 0.9)]
    g, gp, first, steady, sigma0 = _stack(SPREAD, params, bath)
    t_star, p_star = collision_first_max(g, gp, first, steady, sigma0, 60)
    assert t_star.shape == p_star.shape == (4, len(params))
    for i in range(4):
        t_one, p_one = collision_first_max(g[i, 0], gp[i, 0], first, steady, sigma0[i, 0], 60)
        assert np.array_equal(t_star[i], t_one)
        assert np.max(np.abs(p_star[i] - p_one)) < 1e-13
        for b in range(len(params)):
            t_b, p_b = collision_first_max(
                g[i, 0], gp[i, 0], first[b], steady[b], sigma0[i, 0], 60
            )
            assert int(t_b) == t_star[i, b] and abs(float(p_b) - p_star[i, b]) < 1e-13
    # The systems peak at different steps, so the early stop covers members
    # that leave the loop at different times.
    assert len(set(t_star.max(axis=1).tolist())) == 4


@pytest.mark.parametrize("temperature", [None, 0.01, 0.7])
def test_step_shape_follows_the_weights(temperature):
    # Pure ancillas, and a bath whose excited weight rounds to 0, feed block
    # r through op r alone (k = 1); a warmer bath feeds every block through
    # both ops (k = 2). The operators are views of the G, G' stack.
    bath = thermal_weights(temperature) if temperature else None
    g, gp, first, steady, _ = _stack(SPREAD, POINTS, bath)
    ops = np.stack([g, gp], axis=-3)
    ops_dag = ops.conj().swapaxes(-1, -2)
    k = 2 if temperature == 0.7 else 1
    for weights in (first, steady):
        mix, op, op_dag = collision._step_terms(weights, ops, ops_dag)
        assert mix.shape == weights.shape[:-3] + (2 * k, 2)
        assert op.shape == op_dag.shape == (4, 1) + ((2, 1) if k == 1 else (1, 2)) + (4, 4)
        assert np.shares_memory(op, ops) and np.shares_memory(op_dag, ops_dag)
        # Slot (r, j) conjugates the blocks it mixes by op r (k = 1) or j.
        op = np.broadcast_to(op, (4, 1, 2, k, 4, 4))
        for r in range(2):
            for j in range(k):
                which = r if k == 1 else j
                assert np.array_equal(mix[..., r * k + j, :], weights[..., r, :, which])
                assert np.array_equal(op[..., r, j, :, :], ops[..., which, :, :])


def test_cold_bath_runs_the_pure_step_bitwise():
    pure, cold = _stack(SPREAD, POINTS), _stack(SPREAD, POINTS, thermal_weights(0.01))
    assert np.array_equal(
        collision_evolve(*cold, 30, keep_blocks=True).blocks,
        collision_evolve(*pure, 30, keep_blocks=True).blocks,
    )
    for got, want in zip(collision_first_max(*cold, 60), collision_first_max(*pure, 60)):
        assert np.array_equal(got, want)


def test_stack_of_pure_and_thermal_points_equals_separate_runs():
    # One thermal member gives every member the two-op step; the pure ones
    # then carry zero-weight terms and must still give their own numbers.
    g, gp, pure_first, pure_steady, sigma0 = _stack(SPREAD, POINTS)
    hot_first, hot_steady = _stack(SPREAD, POINTS, thermal_weights(0.7))[2:4]
    first = np.concatenate([pure_first, hot_first])
    steady = np.concatenate([pure_steady, hot_steady])
    both = collision_evolve(g, gp, first, steady, sigma0, 30, keep_blocks=True)
    alone = [
        collision_evolve(g, gp, f, s, sigma0, 30, keep_blocks=True)
        for f, s in ((pure_first, pure_steady), (hot_first, hot_steady))
    ]
    for name in ("probabilities", "blocks"):
        apart = np.concatenate([getattr(run, name) for run in alone], axis=1)
        assert np.max(np.abs(getattr(both, name) - apart)) < 1e-14
    t_both, p_both = collision_first_max(g, gp, first, steady, sigma0, 60)
    t_pure, p_pure = collision_first_max(g, gp, pure_first, pure_steady, sigma0, 60)
    t_hot, p_hot = collision_first_max(g, gp, hot_first, hot_steady, sigma0, 60)
    assert np.array_equal(t_both, np.concatenate([t_pure, t_hot], axis=1))
    assert np.max(np.abs(p_both - np.concatenate([p_pure, p_hot], axis=1))) < 1e-14


def test_first_max_drops_each_system_once_it_is_past(monkeypatch):
    # A system leaves the loop once all its members are past their first
    # maximum: it is stepped max t* + 1 times (at most the horizon), as it
    # would be on its own.
    shapes = []
    real = collision._step_stream

    def spy(*args):
        stream = real(*args)
        sigma = next(stream)
        while True:
            shapes.append(sigma.shape[:2])
            sigma = stream.send((yield sigma))

    monkeypatch.setattr(collision, "_step_stream", spy)
    g, gp, first, steady, sigma0 = _stack(SPREAD, POINTS)
    t_star, _ = collision_first_max(g, gp, first, steady, sigma0, 200)
    stepped = np.minimum(t_star.max(axis=1) + 1, 200)
    assert len(set(stepped.tolist())) == 4
    assert [shape[0] for shape in shapes[1:]] == [
        int(np.count_nonzero(stepped >= t)) for t in range(1, int(stepped.max()) + 1)
    ]
    assert [shape[1] for shape in shapes] == [len(POINTS)] * len(shapes)


@pytest.mark.parametrize("n", range(1, 7))
def test_grouped_series_equal_per_class_markov_series(n):
    # Every marked index, with the presets and one Haar u taken in turn (all
    # of them for n <= 2); one system per (m, q) class of position sets, as
    # the invariance table runs them.
    params = [MarkovNoiseParams(0.3, 0.6), MarkovNoiseParams(0.8, 0.1)]
    unitaries = [noise_unitary(name) for name in PRESETS] + [haar_noise(np.random.default_rng(n))]
    for marked in range(2**n):
        for u in unitaries if n <= 2 else [unitaries[marked % len(unitaries)]]:
            inst = GroverInstance(n, marked)
            ones = [i for i in range(n) if marked >> (n - 1 - i) & 1]
            zeros = [i for i in range(n) if not marked >> (n - 1 - i) & 1]
            systems = [
                (inst, noise_spec(u, m, n, sorted(ones[:q] + zeros[: m - q])))
                for m in range(n + 1)
                for q in range(max(0, m - len(zeros)), min(m, len(ones)) + 1)
            ]
            (grouped,) = markov._table(markov._group_series, systems, params, 8)
            for i, (inst_i, spec) in enumerate(systems):
                want = markov_series(inst_i, spec, params, 8)
                assert np.max(np.abs(grouped[i] - want)) < 1e-13, (marked, spec.positions)


def test_table_groups_by_exact_d_and_shares_the_set_up(monkeypatch):
    calls = {"frames": 0, "weights": 0}
    real_frame, real_weights = markov._eigen_frame, markov.transfer_weights

    def count(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(markov, "_eigen_frame", count("frames", real_frame))
    monkeypatch.setattr(markov, "transfer_weights", count("weights", real_weights))
    inst = GroverInstance(5, 6)  # 00110
    systems = [(inst, noise_spec(U, len(c), 5, c)) for c in ((0,), (2,), (0, 1), (0, 2), (2, 3))]
    members, groups = markov._table_groups(systems, POINTS, None)
    # d' = 2(m + 1) for m < n whatever q is: 4, 4, 6, 6, 6 (m = 1, 1, 2, 2, 2).
    assert members == [[0, 1], [2, 3, 4]]
    assert [markov._group_inputs(group)[0].shape for group in groups] == [
        (2, 1, 4, 4), (3, 1, 6, 6)
    ]
    # One eigen frame of u, one weights call, per table.
    assert calls == {"frames": 1, "weights": 1}


def test_stack_inputs_are_checked():
    g, gp, first, steady, sigma0 = _stack(SPREAD, POINTS)
    other = markov._group_inputs(
        markov._table_groups([(GroverInstance(3), noise_spec(U, 2, 3))], POINTS, None)[1][0]
    )
    for call in (collision_evolve, collision_first_max):
        with pytest.raises(ValueError, match=r"operator shapes \(4, 1, 4, 4\), \(1, 1, 6, 6\)"):
            call(g, other[1], first, steady, sigma0, 5)
        with pytest.raises(ValueError, match=r"\(4, 1, 4, 4\).*label blocks \(1, 1, 2, 6, 6\)"):
            call(g, gp, first, steady, other[4], 5)
        with pytest.raises(ValueError, match=r"do not broadcast") as info:
            call(g, gp, first[:3], steady[:3], sigma0[:, 0], 5)
        assert "(4, 2, 4, 4)" in str(info.value) and "(3, 2, 2, 2)" in str(info.value)
        with pytest.raises(ValueError, match=r"do not broadcast"):
            call(g[:2], gp, first, steady, sigma0, 5)


def test_out_of_range_position_raises_the_orbit_error():
    spec = NoiseSpec(U, (1, 5))
    with pytest.raises(ValueError, match=r"^positions \(1, 5\) outside \[0, 3\)$"):
        markov._table(markov._group_series, [(GroverInstance(3), spec)], POINTS, 4)
    with pytest.raises(ValueError, match=r"^positions \(1, 5\) outside \[0, 3\)$"):
        markov_first_max(GroverInstance(3), spec, POINTS, 4)


def _no_pool(*args, **kwargs):
    raise AssertionError("process pool created before validation")


@pytest.mark.parametrize("command", ["noisy", "invariance", "firstmax"])
def test_out_of_range_position_exits_one_before_any_pool(capsys, monkeypatch, command):
    # The CLI's own position check comes first; without it the grouped
    # path's check still rejects the table before a pool starts.
    def unchecked(u, m, n, positions=None):
        return NoiseSpec(u, tuple(p + n for p in (range(m) if positions is None else positions)))

    monkeypatch.setattr(cli, "noise_spec", unchecked)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    argv = {"noisy": ["--m", "1,2"], "invariance": [], "firstmax": ["--n", "3,4"]}[command]
    if command != "firstmax":
        argv = argv + ["--n", "3"]
    assert main([command, *argv, "--steps", "4", "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: positions") and "outside [0," in captured.err


@pytest.mark.parametrize("bad", ["d", "batch"])
def test_bad_stacks_exit_one(capsys, monkeypatch, bad):
    real = markov._group_inputs

    def broken(group):
        g, gp, first, steady, sigma0 = real(group)
        if bad == "d":
            return g, gp[..., :-1, :-1], first, steady, sigma0
        return g, gp, np.broadcast_to(first, (len(g) + 2,) + first.shape), steady, sigma0

    monkeypatch.setattr(markov, "_group_inputs", broken)
    code = main(["invariance", "--n", "3", "--marked", "5", "--steps", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    want = "do not match label blocks" if bad == "d" else "do not broadcast"
    assert captured.err.startswith("error:") and want in captured.err
