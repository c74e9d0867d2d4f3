"""End-to-end acceptance checks for the noisy-search library.

Each numbered criterion is one test that prints a single
``criterion NN: PASS/FAIL`` line (run with ``-s`` to see them live) and
asserts the same condition, at the stated tolerance. The suite covers the
headline behaviors: ideal search, position (in)dependence of good noise,
the exact collision construction against its brute-force and analytic
references, unitary dilations with pure and thermal ancillas, and the
non-Markovianity witnesses.
"""

import itertools
import math

import numpy as np
import pytest
from support import (
    completeness_defect,
    dense_operators,
    label_blocks,
    lift,
    random_density,
    reduced_sigma_x_walks,
)

from noisygrover.collision import (
    apply_kraus,
    dilation_unitary,
    extract_m,
    kraus_from_dilation,
    kraus_step,
    thermal_kraus,
    thermal_weights,
    unitarity_defect,
    verify_dilation,
)
from noisygrover.grover import GroverInstance, grover_operator, ideal_success_series
from noisygrover.linalg import (
    assert_density,
    require_density,
    tensor,
    trace_distance,
)
from noisygrover.markov import (
    MarkovNoiseParams,
    history_oracle,
    markov_evolve,
    perfect_memory_analytic,
    perfect_memory_first_max,
)
from noisygrover.measures import n_blp, n_cp
from noisygrover.noise import (
    build_chi,
    noise_spec,
    noise_unitary,
    noisy_grover,
)


def _report(label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {label}: {status} ({detail})")
    assert passed, f"criterion {label}: {detail}"


def _series(n, unitary, m, positions, p, mu, steps, bath=None):
    inst = GroverInstance(n)
    spec = noise_spec(noise_unitary(unitary), m, n, positions)
    return markov_evolve(inst, spec, MarkovNoiseParams(p, mu), steps, bath=bath)


PM_GRID = [(p, mu) for p in (0.1, 0.5) for mu in (0.0, 0.5, 0.9)]


def test_c01_ideal_search_peak():
    series = ideal_success_series(GroverInstance(5), 10)
    ok = (
        int(np.argmax(series)) == 4
        and series[4] >= 0.99
        and abs(series[0] - 1.0 / 32.0) <= 1e-12
    )
    _report(
        "01", ok,
        f"n=5 peak at t={int(np.argmax(series))}, P(4)={series[4]:.6f}, "
        f"P(0)-1/32={series[0] - 1/32:.2e}",
    )


def test_c02_good_noise_position_independence():
    n, steps, tol = 6, 25, 1e-9
    worst = 0.0
    for unitary in ("x", "z"):
        for p, mu in PM_GRID:
            reference = _series(n, unitary, 1, None, p, mu, steps).probabilities
            for m in range(1, n + 1):
                for positions in itertools.combinations(range(n), m):
                    probs = _series(n, unitary, m, positions, p, mu, steps).probabilities
                    worst = max(worst, float(np.max(np.abs(probs - reference))))
    _report(
        "02", worst <= tol,
        f"sigma_x/sigma_z over all position subsets, n=6, t<=25: "
        f"max deviation {worst:.3e} (tol {tol:.0e})",
    )


def test_c03_sigma_y_parity():
    n, steps, tol = 6, 25, 1e-9
    worst_parity = 0.0
    weakest_split = math.inf
    for p, mu in PM_GRID:
        by_m = {
            m: _series(n, "y", m, None, p, mu, steps).probabilities
            for m in range(1, n + 1)
        }
        for m in range(1, n - 1):
            worst_parity = max(
                worst_parity, float(np.max(np.abs(by_m[m] - by_m[m + 2])))
            )
        weakest_split = min(
            weakest_split, float(np.max(np.abs(by_m[1] - by_m[2])))
        )
    ok = worst_parity <= tol and weakest_split > 1e-6
    _report(
        "03", ok,
        f"sigma_y: same-parity deviation {worst_parity:.3e} (tol {tol:.0e}); "
        f"weakest odd/even split {weakest_split:.3e} (must exceed 1e-06)",
    )


def test_c04_non_good_noise_depends_on_m():
    p1 = _series(6, "hadamard", 1, None, 0.5, 0.0, 25).probabilities
    p5 = _series(6, "hadamard", 5, None, 0.5, 0.0, 25).probabilities
    split = float(np.max(np.abs(p1 - p5)))
    _report(
        "04", split > 1e-3,
        f"hadamard noise m=1 vs m=5, n=6: max split {split:.3e} (must exceed 1e-03)",
    )


def test_c05_perfect_memory_curve():
    steps = 20
    simulated = _series(3, "x", 2, None, 1.0, 1.0, steps).probabilities
    analytic = np.array([perfect_memory_analytic(8, t) for t in range(steps + 1)])
    dev = float(np.max(np.abs(simulated - analytic)))
    # locate the first maximum of the continuous curve on a fine grid
    ts = np.arange(0.5, 3.0, 1e-4)
    values = np.array([perfect_memory_analytic(8, t) for t in ts])
    loc = float(ts[int(np.argmax(values))])
    predicted = perfect_memory_first_max(8)
    ok = (
        dev <= 1e-10
        and abs(simulated[1] - 1.0 / 32.0) <= 1e-12
        and abs(loc - predicted) <= 0.01
    )
    _report(
        "05", ok,
        f"always-faulty walk N=8: curve deviation {dev:.2e}, "
        f"P(1)-1/32={simulated[1] - 1/32:.2e}, "
        f"first max at {loc:.4f} vs {predicted:.4f}",
    )


def test_c06_collision_matches_history_sum():
    inst = GroverInstance(3)
    spec = noise_spec(noise_unitary("x"), 1, 3)
    params = MarkovNoiseParams(0.5, 0.5)
    evolved = markov_evolve(inst, spec, params, 8)
    reference = history_oracle(*dense_operators(inst, spec), params, 8)
    worst = max(
        trace_distance(a, b)
        for a, b in zip(lift(inst, spec, evolved.blocks.sum(axis=1)), reference)
    )
    _report(
        "06", worst <= 1e-10,
        f"n=3 sigma_x p=mu=0.5, t<=8: max trace distance {worst:.3e} (tol 1e-10)",
    )


def _dilation_grid():
    ps = [round(0.1 * k, 1) for k in range(1, 10)]
    mus = [round(0.1 * k, 1) for k in range(0, 11)]
    return ps, mus


def test_c07_dilation_suite():
    inst = GroverInstance(3)
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(3, noise_spec(noise_unitary("x"), 1, 3)))
    ps, mus = _dilation_grid()
    worst_unitarity = 0.0
    worst_dev = 0.0
    columns_exact = True
    for p, mu in itertools.product(ps, mus):
        params = MarkovNoiseParams(p, mu)
        for step in (MarkovNoiseParams(p, 0.0), params):  # the first collision is mu = 0
            dil = dilation_unitary(step, g, gp)
            kset = kraus_step(step, g, gp)
            worst_unitarity = max(worst_unitarity, unitarity_defect(dil))
            columns_exact = columns_exact and all(
                np.array_equal(a, b)
                for a, b in zip(kset.ops, kraus_from_dilation(dil).ops)
            )
            worst_dev = max(worst_dev, verify_dilation(dil, step, g, gp, trials=20, seed=1234))
    ok = worst_unitarity <= 1e-10 and columns_exact and worst_dev <= 1e-12
    _report(
        "07", ok,
        f"9x11 grid, first and steady steps: unitarity {worst_unitarity:.2e} (tol 1e-10), "
        f"Kraus columns exact: {columns_exact}, "
        f"max evolution deviation {worst_dev:.2e} (tol 1e-12, 20 pure states each)",
    )


def test_c08_factorization_on_interior_grid():
    inst = GroverInstance(3)
    g = grover_operator(inst)
    chi = build_chi(3, noise_spec(noise_unitary("x"), 1, 3))
    gp = noisy_grover(g, chi)
    ps, _ = _dilation_grid()
    worst_residual = 0.0
    worst_defect = 0.0
    for p, mu in itertools.product(ps, ps):  # interior in both directions
        dil = dilation_unitary(MarkovNoiseParams(p, mu), g, gp)
        report = extract_m(dil, chi, g)
        worst_residual = max(worst_residual, report.residual)
        worst_defect = max(worst_defect, report.unitary_defect)
    ok = worst_residual <= 1e-8 and worst_defect <= 1e-8
    _report(
        "08", ok,
        f"coefficient grid on the interior 9x9: residual {worst_residual:.2e}, "
        f"unitarity defect {worst_defect:.2e} (tol 1e-08)",
    )


def _unitality_move(kset, dim):
    mixed = np.eye(dim, dtype=complex) / dim
    return trace_distance(apply_kraus(kset, mixed), mixed)


def test_c09_steady_step_non_unital_pure():
    inst = GroverInstance(3)
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(3, noise_spec(noise_unitary("x"), 1, 3)))
    # Exact reference: sum K K^dagger = diag((1 + a) I, (1 - a) I) with
    # a = (1 - mu)(1 - 2p), so the step sends I/2N to diag((1 + a) I,
    # (1 - a) I)/2N and moves it by 0.5 |a| in trace distance. The pure map
    # is non-unital exactly where p != 1/2 and mu < 1; at p = 1/2 the label
    # chain is doubly stochastic and I/2N is a fixed point for every mu.
    worst_dev = 0.0
    weakest_move = math.inf
    for p, mu in itertools.product((0.1, 0.3, 0.5, 0.7), (0.0, 0.5, 0.9, 1.0)):
        kset = kraus_step(MarkovNoiseParams(p, mu), g, gp)
        moved = _unitality_move(kset, 16)
        expected = 0.5 * (1.0 - mu) * abs(1.0 - 2.0 * p)
        worst_dev = max(worst_dev, abs(moved - expected))
        if p != 0.5 and mu < 1.0:
            weakest_move = min(weakest_move, moved)
    ok = worst_dev <= 1e-12 and weakest_move > 1e-4
    _report(
        "09 (pure ancillas)", ok,
        f"steady step over p in {{0.1, 0.3, 0.5, 0.7}}, mu in {{0, 0.5, 0.9, 1}}: "
        f"move of I/2N vs 0.5(1-mu)|1-2p| off by {worst_dev:.2e} (tol 1e-12); "
        f"weakest move where p != 1/2 and mu < 1: {weakest_move:.3e} "
        f"(must exceed 1e-04)",
    )


def test_c09_steady_step_non_unital_thermal():
    inst = GroverInstance(3)
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(3, noise_spec(noise_unitary("x"), 1, 3)))
    params = MarkovNoiseParams(0.5, 0.5)
    dil = dilation_unitary(params, g, gp)
    kset = thermal_kraus(dil, thermal_weights(1.0))
    moved = _unitality_move(kset, 16)
    _report(
        "09 (thermal)", moved > 1e-4,
        f"thermal steady step at p=0.5, mu=0.5, T=1 moves I/2N by {moved:.3e} "
        f"(required > 1e-04)",
    )


def test_c10_backflow_vanishes_without_label_mixing():
    inst = GroverInstance(3)
    spec = noise_spec(noise_unitary("x"), 1, 3)
    worst = 0.0
    for p in (0.0, 1.0):
        for mu in (0.0, 0.5, 1.0):
            value = n_blp(inst, spec, MarkovNoiseParams(p, mu), 45).value
            worst = max(worst, value)
    _report(
        "10", worst <= 1e-9,
        f"p in {{0, 1}}, mu in {{0, 0.5, 1}}, t<=45: max witness {worst:.3e} "
        f"(tol 1e-09)",
    )


def test_c11_backflow_needs_enough_memory():
    inst = GroverInstance(3)
    spec = noise_spec(noise_unitary("x"), 1, 3)
    high = n_blp(inst, spec, MarkovNoiseParams(0.33, 0.9), 45).value
    low = n_blp(inst, spec, MarkovNoiseParams(0.33, 0.3), 45).value
    ok = high > 1e-4 and low <= 1e-9
    _report(
        "11", ok,
        f"p=0.33: witness {high:.3e} at mu=0.9 (must exceed 1e-04), "
        f"{low:.3e} at mu=0.3 (tol 1e-09)",
    )


def test_c12_cp_divisibility_witness_fires():
    inst = GroverInstance(3)
    spec = noise_spec(noise_unitary("x"), 1, 3)
    value = n_cp(inst, spec, MarkovNoiseParams(0.5, 0.9), 20).value
    _report(
        "12", value > 1e-4,
        f"spectator witness at p=0.5, mu=0.9, t<=20: {value:.3e} (must exceed 1e-04)",
    )


def test_c13_thermal_channel_consistency():
    inst = GroverInstance(3)
    spec = noise_spec(noise_unitary("x"), 1, 3)
    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(3, spec))
    params = MarkovNoiseParams(0.5, 0.5)
    worst_completeness = 0.0
    for temperature in (0.1, 0.5, 1.0, 2.0, 10.0):
        bath = thermal_weights(temperature)
        for step in (MarkovNoiseParams(params.p, 0.0), params):
            kset = thermal_kraus(dilation_unitary(step, g, gp), bath)
            worst_completeness = max(worst_completeness, completeness_defect(kset.ops))
    cold = markov_evolve(inst, spec, MarkovNoiseParams(0.5, 0.9), 20, bath=thermal_weights(0.01))
    pure = markov_evolve(inst, spec, MarkovNoiseParams(0.5, 0.9), 20)
    cold_states, pure_states = (lift(inst, spec, run.blocks.sum(axis=1)) for run in (cold, pure))
    cold_dev = max(trace_distance(a, b) for a, b in zip(cold_states, pure_states))
    hot = n_blp(inst, spec, MarkovNoiseParams(0.5, 0.9), 45, bath=thermal_weights(2.0))
    warm = n_blp(inst, spec, MarkovNoiseParams(0.5, 0.9), 45, bath=thermal_weights(0.5))
    ok = worst_completeness <= 1e-12 and cold_dev <= 1e-5 and hot.value <= warm.value
    _report(
        "13", ok,
        f"completeness {worst_completeness:.2e} over T grid (tol 1e-12); "
        f"T=0.01 vs pure: {cold_dev:.2e} (tol 1e-05); "
        f"witness T=2: {hot.value:.3e} <= T=0.5: {warm.value:.3e}",
    )


def test_c14_memory_advantage():
    n, p, steps = 6, 0.7, 25
    frozen = _series(n, "x", 1, None, p, 1.0, steps).probabilities
    iid = _series(n, "x", 1, None, p, 0.0, steps).probabilities
    ref_frozen, ref_iid = reduced_sigma_x_walks(n, p, steps)
    dev = max(
        float(np.max(np.abs(frozen - ref_frozen))),
        float(np.max(np.abs(iid - ref_iid))),
    )
    t_frozen, t_iid = int(np.argmax(frozen)), int(np.argmax(iid))
    gap = float(frozen[t_frozen] - iid[t_iid])
    # A fixed-window efficiency statement: within t <= 25 the best success
    # probability with frozen labels beats the memoryless one. The
    # memoryless maximum lies on the window edge (t = 25) and is still
    # rising, so the gap shrinks as the window grows.
    ok = dev <= 1e-12 and gap > 0.0
    _report(
        "14", ok,
        f"n=6 sigma_x p=0.7, t<=25: series vs 3-level references off by "
        f"{dev:.2e} (tol 1e-12); max P {frozen[t_frozen]:.4f} at t={t_frozen} "
        f"with frozen labels vs {iid[t_iid]:.4f} at t={t_iid} memoryless; "
        f"gap {gap:.4f} (must be > 0)",
    )


def test_c15_state_validity_and_contractivity():
    inst = GroverInstance(3)
    # representative configurations, each re-validated at every step
    configs = [
        ("x", 1, MarkovNoiseParams(0.5, 0.9), None),
        ("x", 1, MarkovNoiseParams(0.5, 0.9), thermal_weights(1.0)),
        ("y", 2, MarkovNoiseParams(0.3, 0.5), None),
        ("hadamard", 3, MarkovNoiseParams(0.7, 0.2), None),
    ]
    worst_eig = 0.0
    for name, m, params, bath in configs:
        spec = noise_spec(noise_unitary(name), m, 3)
        trace = markov_evolve(inst, spec, params, 12, bath=bath)
        require_density(trace.blocks, 1e-9, what="joint state t={}", blocks=True)
        for rho in lift(inst, spec, trace.blocks.sum(axis=1)):
            report = assert_density(rho, tol=1e-9)
            assert report.passed, report
            worst_eig = min(worst_eig, report.min_eigenvalue)
    # joint trace distance between random initial pairs never grows after t=1;
    # from t = 1 on each joint is diag(sigma_0, sigma_1), so its distance is
    # the sum of the two label-block distances
    from noisygrover.collision import collision_evolve, transfer_weights
    from noisygrover.linalg import projector

    g = grover_operator(inst)
    gp = noisy_grover(g, build_chi(3, noise_spec(noise_unitary("x"), 1, 3)))
    first, steady = transfer_weights(MarkovNoiseParams(0.5, 0.7))
    plus = projector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    rng = np.random.default_rng(2024)
    worst_growth = -math.inf
    for _ in range(5):
        blocks = [
            collision_evolve(
                g, gp, first, steady, label_blocks(tensor(plus, random_density(8, rng))), 10,
                keep_blocks=True,
            ).blocks
            for _ in range(2)
        ]
        distances = np.array(
            [
                trace_distance(a[0], b[0]) + trace_distance(a[1], b[1])
                for a, b in zip(blocks[0][1:], blocks[1][1:])
            ]
        )
        worst_growth = max(worst_growth, float(np.max(np.diff(distances))))
    ok = worst_growth <= 1e-10
    _report(
        "15", ok,
        f"all evolved states valid at 1e-09 (min eigenvalue {worst_eig:.2e}); "
        f"joint contractivity: max growth {worst_growth:.2e} after t=1 "
        f"(tol 1e-10)",
    )
