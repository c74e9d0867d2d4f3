import itertools
import math

import numpy as np
import pytest
from support import haar_noise

from noisygrover.grover import GroverInstance, grover_operator, marked_state, uniform_superposition
from noisygrover.noise import (
    NoiseClassTag,
    NoiseSpec,
    build_chi,
    classify_noise,
    closed_form_overlaps,
    noise_spec,
    noise_unitary,
    noisy_grover,
    orbit_basis,
    sigma_x_reduced,
    sigma_y_p2,
    single_qubit_unitary,
    w_prime,
)

SIGMA = {
    "identity": np.eye(2),
    "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]]),
    "hadamard": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0),
}


@pytest.mark.parametrize("name", sorted(SIGMA))
def test_presets_build_expected_matrices(name):
    assert np.max(np.abs(noise_unitary(name).matrix - SIGMA[name])) < 1e-15


def test_unknown_preset():
    with pytest.raises(ValueError):
        noise_unitary("w")


def test_constructor_checks_normalization():
    with pytest.raises(ValueError):
        single_qubit_unitary(1.0, 1.0, 0.0)
    u = single_qubit_unitary(0.6, 0.8j, 2.0 * math.pi + 1.0)
    assert abs(u.theta - 1.0) < 1e-12  # angle is wrapped


def _random_unitary(rng):
    phi, alpha, beta, theta = rng.uniform(0.0, 2.0 * math.pi, size=4)
    a = math.cos(phi) * np.exp(1j * alpha)
    b = math.sin(phi) * np.exp(1j * beta)
    return single_qubit_unitary(a, b, theta)


@pytest.mark.parametrize("seed", range(6))
def test_parametrization_is_always_unitary(seed):
    u = _random_unitary(np.random.default_rng(seed)).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_build_chi_layouts():
    u = noise_unitary("hadamard")
    eye = np.eye(2)
    # default: prefix positions
    spec = noise_spec(u, 2, 3)
    assert spec.positions == (0, 1)
    expected = np.kron(np.kron(u.matrix, u.matrix), eye)
    assert np.max(np.abs(build_chi(3, spec) - expected)) < 1e-15
    # explicit non-contiguous positions
    spec = noise_spec(u, 2, 3, positions=(0, 2))
    expected = np.kron(np.kron(u.matrix, eye), u.matrix)
    assert np.max(np.abs(build_chi(3, spec) - expected)) < 1e-15
    # m = 0 is the identity
    assert np.array_equal(build_chi(2, noise_spec(u, 0, 2)), np.eye(4))


def _chi_per_qubit(n, spec):
    # One 2 x 2 factor per qubit, the lift build_chi shortens.
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, spec.u.matrix if q in spec.positions else np.eye(2, dtype=complex))
    return out


@pytest.mark.parametrize("name", sorted(SIGMA) + ["random"])
def test_build_chi_equals_per_qubit_kron(name):
    rng = np.random.default_rng(3)
    u = _random_unitary(rng) if name == "random" else noise_unitary(name)
    for n in range(1, 8):
        for m in range(n + 1):
            for positions in (None, sorted(rng.choice(n, size=m, replace=False).tolist())):
                spec = noise_spec(u, m, n, positions)
                assert np.array_equal(build_chi(n, spec), _chi_per_qubit(n, spec)), (n, spec)


def test_noise_spec_validation():
    u = noise_unitary("x")
    with pytest.raises(ValueError):
        noise_spec(u, 3, 2)
    with pytest.raises(ValueError):
        noise_spec(u, 2, 3, positions=(0,))
    with pytest.raises(ValueError):
        noise_spec(u, 2, 3, positions=(1, 1))
    with pytest.raises(ValueError):
        noise_spec(u, 1, 3, positions=(3,))


@pytest.mark.parametrize("n", range(2, 11))
def test_orbit_basis_is_orthonormal_invariant_and_starts_at_w(n):
    rng = np.random.default_rng(400 + n)
    u = haar_noise(rng)
    for m in range(n + 1):
        inst = GroverInstance(n, int(rng.integers(2**n)))
        spec = noise_spec(u, m, n, sorted(rng.choice(n, size=m, replace=False).tolist()))
        v = orbit_basis(inst, spec)
        assert np.array_equal(v[:, 0], marked_state(inst))
        assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < 1e-13
        gv = grover_operator(inst) @ v
        for image in (gv, build_chi(n, spec) @ gv):  # G V and G' V
            assert np.max(np.abs(image - v @ (v.T @ image))) < 1e-13, (m, spec)
    with pytest.raises(ValueError, match="exceed qubit count"):
        orbit_basis(GroverInstance(n), NoiseSpec(u, (n,)))


def test_noisy_grover_is_chi_g():
    inst = GroverInstance(2)
    g = grover_operator(inst)
    chi = build_chi(2, noise_spec(noise_unitary("z"), 1, 2))
    assert np.array_equal(noisy_grover(g, chi), chi @ g)
    with pytest.raises(ValueError):
        noisy_grover(g, np.eye(8))


def _marked_with_q_ones(n, m, q):
    # q one-bits inside the first m (noisy) positions, qubit 0 most significant
    bits = ["0"] * n
    for i in range(q):
        bits[i] = "1"
    return int("".join(bits), 2)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m,q", [(1, 0), (1, 1), (2, 1), (3, 0), (3, 2), (3, 3)])
def test_closed_form_overlaps_against_direct(seed, m, q):
    n = 3
    u = _random_unitary(np.random.default_rng(100 + seed))
    inst = GroverInstance(n, _marked_with_q_ones(n, m, q))
    chi = build_chi(n, noise_spec(u, m, n))
    g = grover_operator(inst)
    s = uniform_superposition(inst)
    cf = closed_form_overlaps(u, n, m, q)
    N = inst.N
    assert abs(cf.psi_q - math.sqrt(N) * (chi @ s)[inst.marked]) < 1e-12
    assert abs(cf.s_chi_s - s.conj() @ chi @ s) < 1e-12
    assert abs(cf.chi_ww - chi[inst.marked, inst.marked]) < 1e-12
    direct = abs((chi @ g @ s)[inst.marked]) ** 2
    assert abs(cf.p1 - direct) < 1e-12


def test_closed_form_overlaps_validation():
    u = noise_unitary("x")
    with pytest.raises(ValueError):
        closed_form_overlaps(u, 3, 4, 0)
    with pytest.raises(ValueError):
        closed_form_overlaps(u, 3, 2, 3)


def test_sigma_y_two_step_values():
    # N = 8: even m gives 81/128, odd m gives 49/128
    assert sigma_y_p2(8, 2) == pytest.approx(0.6328125, abs=1e-15)
    assert sigma_y_p2(8, 4) == pytest.approx(0.6328125, abs=1e-15)
    assert sigma_y_p2(8, 1) == pytest.approx(0.3828125, abs=1e-15)
    assert sigma_y_p2(8, 3) == pytest.approx(0.3828125, abs=1e-15)


def test_sigma_y_two_step_matches_simulation():
    inst = GroverInstance(3)
    g = grover_operator(inst)
    s = uniform_superposition(inst)
    for m in (1, 2, 3):
        chi = build_chi(3, noise_spec(noise_unitary("y"), m, 3))
        gp = chi @ g
        v = gp @ (gp @ s)
        assert abs(abs(v[0]) ** 2 - sigma_y_p2(8, m)) < 1e-12


@pytest.mark.parametrize(
    "name,tag",
    [
        ("identity", NoiseClassTag.FULL_INVARIANT),
        ("x", NoiseClassTag.FULL_INVARIANT),
        ("z", NoiseClassTag.FULL_INVARIANT),
        ("y", NoiseClassTag.PARITY_INVARIANT),
        ("hadamard", NoiseClassTag.NOT_GOOD),
    ],
)
def test_classify_presets(name, tag):
    result = classify_noise(noise_unitary(name))
    assert result.tag is tag
    assert (result.canonical == name) == (tag is not NoiseClassTag.NOT_GOOD)


def test_classify_up_to_global_phase():
    # e^{i phi} sigma_x arises from (a, b, theta) = (0, e^{i phi}, pi + 2 phi)
    phi = 0.7
    u = single_qubit_unitary(0.0, np.exp(1j * phi), math.pi + 2.0 * phi)
    got = classify_noise(u)
    assert got.tag is NoiseClassTag.FULL_INVARIANT and got.canonical == "x"
    # a visible perturbation must not classify as good noise
    eps = 1e-6
    u = single_qubit_unitary(eps, math.sqrt(1.0 - eps * eps), math.pi)
    assert classify_noise(u).tag is NoiseClassTag.NOT_GOOD


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (3, 3), (4, 2)])
def test_reduced_three_level_dynamics(n, m):
    # The 3x3 forms reproduce the full faulty walk on |sbar>, |w>, |w''>.
    inst = GroverInstance(n)
    N = inst.N
    g3, g3p = sigma_x_reduced(inst)
    assert np.max(np.abs(g3.T @ g3 - np.eye(3))) < 1e-12
    assert np.max(np.abs(g3p.T @ g3p - np.eye(3))) < 1e-12
    wp = w_prime(inst.marked, m, n)
    v3 = np.array(
        [math.sqrt((N - 2.0) / N), 1.0 / math.sqrt(N), 1.0 / math.sqrt(N)],
        dtype=complex,
    )
    g = grover_operator(inst)
    gp = build_chi(n, noise_spec(noise_unitary("x"), m, n)) @ g
    v = uniform_superposition(inst)
    for _ in range(10):
        v3 = g3p @ v3
        v = gp @ v
        assert abs(abs(v3[1]) ** 2 - abs(v[inst.marked]) ** 2) < 1e-12
        assert abs(abs(v3[2]) ** 2 - abs(v[wp]) ** 2) < 1e-12


def test_w_prime_values():
    assert w_prime(0, 2, 3) == 6
    assert w_prime(4, 1, 3) == 0
    assert w_prime(5, 1, 3) == 1
    assert w_prime(5, 3, 3) == 2  # full complement of 101
    assert w_prime(3, 0, 3) == 3  # no flips
    with pytest.raises(ValueError):
        w_prime(8, 1, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_w_prime_matches_chi_action(n):
    for m, w in itertools.product(range(n + 1), range(2 ** n)):
        chi = build_chi(n, noise_spec(noise_unitary("x"), m, n))
        col = chi[:, w]
        assert abs(col[w_prime(w, m, n)] - 1.0) < 1e-12
