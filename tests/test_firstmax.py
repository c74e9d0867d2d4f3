"""The first-maximum reader against the rule applied row by row to the full
success series, its early stop, and the firstmax table against closed forms."""

import itertools
import math

import numpy as np
import pytest
from support import haar_noise, initial_joint_state, label_blocks

from noisygrover import collision, markov
from noisygrover.cli import main
from noisygrover.collision import (
    collision_evolve,
    collision_first_max,
    thermal_weights,
    transfer_weights,
)
from noisygrover.grover import GroverInstance, grover_operator, ideal_success_closed_form
from noisygrover.markov import (
    MarkovNoiseParams,
    markov_first_max,
    markov_series,
    perfect_memory_analytic,
)
from noisygrover.measures import n_blp, n_cp
from noisygrover.noise import (
    build_chi,
    noise_spec,
    noise_unitary,
    noisy_grover,
)

POINTS = [MarkovNoiseParams(p, mu) for p in (0.0, 0.37, 1.0) for mu in (0.0, 0.6, 1.0)]


def _rule(series):
    """The first-maximum rule, one series at a time: the first t >= 1 with
    P(t) >= P(t - 1) and P(t) >= P(t + 1), else the argmax of the series."""
    for t in range(1, len(series) - 1):
        if series[t] >= series[t - 1] and series[t] >= series[t + 1]:
            return t, float(series[t])
    t = int(np.argmax(series))
    return t, float(series[t])


def _same(got, want):
    # (t, P) pairs, with a NaN height equal to a NaN height.
    return got[0] == want[0] and (got[1] == want[1] or math.isnan(got[1]) and math.isnan(want[1]))


def _check_against_series(inst, spec, steps, bath=None):
    series = markov_series(inst, spec, POINTS, steps, bath=bath)
    t_star, p_star = markov_first_max(inst, spec, POINTS, steps, bath=bath)
    assert t_star.shape == p_star.shape == (len(POINTS),)
    assert t_star.dtype.kind == "i"
    for row, t, height in zip(series, t_star, p_star):
        assert (int(t), float(height)) == _rule(row), (inst, spec.positions, steps)


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 25])
def test_reader_equals_rule_on_haar_noise(steps):
    rng = np.random.default_rng(1300 + steps)
    for n in range(3, 7):
        u = haar_noise(rng)
        for m in range(n + 1):
            inst = GroverInstance(n, int(rng.integers(2**n)))
            positions = sorted(rng.choice(n, size=m, replace=False).tolist())
            spec = noise_spec(u, m, n, positions)
            _check_against_series(inst, spec, steps)
            if steps == 25:
                _check_against_series(inst, spec, steps, bath=thermal_weights(0.7))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_reader_equals_rule_on_identity_noise(n):
    # G' = G: the ideal series, flat at n = 1 (P = 1/2 up to rounding) and
    # periodic with repeated values at n = 2 (1/4, 1, 1/4, 1/4, 1, ...).
    spec = noise_spec(noise_unitary("identity"), n, n)
    for steps in (0, 1, 2, 3, 25):
        _check_against_series(GroverInstance(n), spec, steps)


def test_reader_without_interior_maximum_takes_the_argmax():
    # At n = 10 the noiseless walk rises until t = 25, so within 20 steps
    # the first maximum is the last step.
    inst, spec = GroverInstance(10), noise_spec(noise_unitary("x"), 1, 10)
    t_star, _ = markov_first_max(inst, spec, [MarkovNoiseParams(0.0, 0.0)], 20)
    assert t_star.tolist() == [20]
    _check_against_series(inst, spec, 20)


def _series_stream(rows):
    """A stand-in for the step loop whose members' success series are the
    rows of ``rows``, (B, T): it yields (B, 2, 1, 1) label-block stacks
    with P(t) in sigma_0, and cuts them to the slices the reader keeps."""

    def stream(sigma, *plans):
        live = rows
        for t in range(rows.shape[1]):
            stack = np.zeros((len(live), 2, 1, 1), dtype=complex)
            stack[:, 0, 0, 0] = live[:, t]
            keep = yield stack
            if keep is not None:
                live = live[keep]

    return stream


def test_first_max_rule_on_ties_and_nan(monkeypatch):
    # Every row of length 1..5 over {0, 0.5, 1, NaN}, through the reader's
    # own stream: ties everywhere, and NaN wherever np.argmax and the
    # comparisons meet it, with slices leaving the loop at every step.
    values = (0.0, 0.5, 1.0, math.nan)
    one = np.eye(1, dtype=complex)
    first, steady = transfer_weights(MarkovNoiseParams(0.5, 0.5))
    for length in range(1, 6):
        rows = np.array(list(itertools.product(values, repeat=length)))
        monkeypatch.setattr(collision, "_step_stream", _series_stream(rows))
        sigma0 = np.zeros((len(rows), 2, 1, 1))
        t_star, p_star = collision_first_max(one, one, first, steady, sigma0, length - 1)
        for row, t, height in zip(rows, t_star, p_star):
            assert _same((int(t), float(height)), _rule(row)), row


def test_reader_memory_follows_the_members_not_the_horizon():
    # Every point peaks well inside 60 steps, so a horizon of 10^12 steps
    # gives the same first maxima without storing any series.
    inst, spec = GroverInstance(6, 19), noise_spec(noise_unitary("hadamard"), 2, 6)
    t_star, p_star = markov_first_max(inst, spec, POINTS, 60)
    assert t_star.max() < 59
    t_far, p_far = markov_first_max(inst, spec, POINTS, 10**12)
    assert np.array_equal(t_far, t_star) and np.array_equal(p_far, p_star)


def test_reader_reads_nan_series_as_np_argmax(monkeypatch):
    # A NaN on the marked diagonal keeps every P NaN: no t passes the
    # comparisons, and the argmax is the first NaN, t = 0. The input check
    # rejects a NaN start, so the NaN enters the step loop's first stack,
    # past that check.
    real = collision._step_stream

    def poisoned(sigma, *plans):
        sigma = sigma.copy()
        sigma[:, 0, 0, 0] = math.nan
        return real(sigma, *plans)

    monkeypatch.setattr(collision, "_step_stream", poisoned)
    inst = GroverInstance(2)
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(2, noise_spec(noise_unitary("x"), 1, 2)))
    sigma0 = label_blocks(initial_joint_state(inst))
    first, steady = transfer_weights(POINTS[:3])
    series = collision_evolve(g, gp, first, steady, sigma0, 6).probabilities
    t_star, p_star = collision_first_max(g, gp, first, steady, sigma0, 6)
    for row, t, height in zip(series, t_star, p_star):
        assert _same((int(t), float(height)), _rule(row))
    assert t_star.tolist() == [0, 0, 0]


def test_reader_keeps_batch_shape_and_validates_eagerly():
    inst = GroverInstance(3)
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(3, noise_spec(noise_unitary("x"), 1, 3)))
    sigma0 = label_blocks(initial_joint_state(inst))
    first, steady = transfer_weights(POINTS)
    t_star, p_star = collision_first_max(
        g, gp, first.reshape(3, 3, 2, 2, 2), steady.reshape(3, 3, 2, 2, 2), sigma0, 10
    )
    assert t_star.shape == p_star.shape == (3, 3)
    flat = collision_first_max(g, gp, first, steady, sigma0, 10)
    assert np.array_equal(t_star.ravel(), flat[0]) and np.array_equal(p_star.ravel(), flat[1])
    t_one, p_one = collision_first_max(g, gp, first[4], steady[4], sigma0, 10)
    assert t_one.shape == p_one.shape == ()
    assert (int(t_one), float(p_one)) == (int(flat[0][4]), float(flat[1][4]))
    # The checks run at the call, before any step is taken.
    with pytest.raises(ValueError, match="non-negative"):
        collision_first_max(g, gp, first, steady, sigma0, -1)
    with pytest.raises(ValueError, match="marked index"):
        collision_first_max(g, gp, first, steady, sigma0, 5, marked=8)
    with pytest.raises(ValueError, match="transfer weights shape"):
        collision_first_max(g, gp, first[..., :1], steady, sigma0, 5)


def _spy_on_steps(monkeypatch):
    """Record t for every label-block stack the step loop hands out; the
    slices the reader keeps pass through to the loop."""
    drawn = []
    real = collision._step_stream

    def spy(*args):
        stream = real(*args)
        sigma = next(stream)
        for t in itertools.count():
            drawn.append(t)
            sigma = stream.send((yield sigma))

    monkeypatch.setattr(collision, "_step_stream", spy)
    return drawn


def test_reader_stops_after_the_last_first_maximum(monkeypatch):
    drawn = _spy_on_steps(monkeypatch)
    inst, spec = GroverInstance(8, 77), noise_spec(noise_unitary("hadamard"), 2, 8)
    t_star, _ = markov_first_max(inst, spec, POINTS, 500)
    last = int(t_star.max())
    assert 1 <= last < 100
    # Stacks for t = 0 .. max t* + 1: max t* + 1 steps, not 500.
    assert drawn == list(range(last + 2))
    drawn.clear()
    markov_series(inst, spec, POINTS, 7)
    assert drawn == list(range(8))
    # A zero start gives P = 0 exactly throughout: a tie is a maximum, so
    # every member stops at t* = 1, after 2 steps.
    drawn.clear()
    _, (group,) = markov._table_groups([(inst, spec)], POINTS, None)
    g, gp, first, steady, sigma0 = markov._group_inputs(group)
    t_star, p_star = collision_first_max(g, gp, first, steady, np.zeros_like(sigma0), 50)
    assert t_star.tolist() == [[1] * len(POINTS)] and not p_star.any()
    assert drawn == [0, 1, 2]


def test_empty_point_list_is_rejected():
    inst = GroverInstance(3)
    spec = noise_spec(noise_unitary("x"), 1, 3)
    calls = (
        lambda: markov_series(inst, spec, [], 5),
        lambda: markov_first_max(inst, spec, [], 5),
        lambda: transfer_weights([]),
        lambda: transfer_weights((), thermal_weights(1.0)),
        lambda: n_blp(inst, spec, [], 5),
        lambda: n_cp(inst, spec, [], 5),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^no \(p, mu\) points given$"):
            call()


def _firstmax_rows(capsys, *argv):
    code = main(["firstmax", *argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = [line for line in captured.out.splitlines() if not line.startswith("# ")]
    assert lines[0] == "n,p,mu,t_star,P_star"
    return [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize(
    "ns, steps", [(range(3, 13), 100), ((20,), 900)], ids=["n3-12", "n20"]
)
def test_firstmax_noiseless_matches_ideal_closed_form(capsys, ns, steps):
    rows = _firstmax_rows(
        capsys, "--n", ",".join(map(str, ns)), "--p", "0", "--mu", "0", "--steps", str(steps)
    )
    assert [int(row[0]) for row in rows] == list(ns)
    for n, row in zip(ns, rows):
        t_ref, p_ref = _rule([ideal_success_closed_form(2**n, t) for t in range(steps + 1)])
        assert int(row[3]) == t_ref, n
        assert abs(float(row[4]) - p_ref) <= 1e-12, n
    if tuple(ns) == (20,):
        assert int(rows[0][3]) == 804


@pytest.mark.parametrize("n, t_star, steps", [(20, 804, 810), (24, 3216, 3230)])
def test_noiseless_drift_grows_at_most_linearly_in_the_horizon(n, t_star, steps):
    # The step loop's rounding adds up along the horizon: at p = mu = 0 it
    # drifts from the closed form by about 2.2e-16 per step (1.97e-12 at
    # n = 20 and T = 10^4), so a fixed 1e-12 bound would fail near 5,000
    # steps; the bound is stated per step instead.
    inst, spec = GroverInstance(n), noise_spec(noise_unitary("x"), 1, n)
    point = [MarkovNoiseParams(0.0, 0.0)]
    drift = np.abs(
        markov_series(inst, spec, point, 10_000)[0]
        - [ideal_success_closed_form(2**n, t) for t in range(10_001)]
    )
    for horizon in (1_000, 3_000, 10_000):
        assert drift[: horizon + 1].max() <= 4e-16 * horizon, (n, horizon)
    (t,), (height,) = markov_first_max(inst, spec, point, steps)
    assert t == t_star
    assert abs(height - ideal_success_closed_form(2**n, t_star)) <= 1e-12


@pytest.mark.parametrize("n", range(3, 11))
def test_firstmax_perfect_memory_matches_closed_form(capsys, n):
    # p = mu = 1 with x on every qubit: G' = X^(x n) G at every step.
    steps = 25
    (row,) = _firstmax_rows(
        capsys, "--n", str(n), "--p", "1", "--mu", "1", "--noise", "x", "--m", str(n),
        "--steps", str(steps),
    )
    t_ref, p_ref = _rule([perfect_memory_analytic(2**n, t) for t in range(steps + 1)])
    assert int(row[3]) == t_ref
    assert abs(float(row[4]) - p_ref) <= 1e-12
