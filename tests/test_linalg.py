import numpy as np
import pytest

from noisygrover.linalg import (
    InvariantViolation,
    assert_density,
    dagger,
    hermiticity_defect,
    partial_trace,
    projector,
    random_density,
    require_density,
    tensor,
    trace_distance,
    trace_norm,
)

RNG_SEED = 987


def test_tensor_matches_kron_chain():
    rng = np.random.default_rng(RNG_SEED)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))
    assert tensor(a).shape == (2, 2)
    with pytest.raises(ValueError):
        tensor()


def test_tensor_index_convention():
    # |1> (x) |0> of dims (2, 3) must sit at flat index 1*3 + 0.
    one = np.array([0.0, 1.0])
    zero3 = np.array([1.0, 0.0, 0.0])
    v = tensor(one.reshape(-1, 1), zero3.reshape(-1, 1)).reshape(-1)
    assert v[3] == 1.0 and np.count_nonzero(v) == 1


def test_projector_plus_state():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(projector(plus), np.full((2, 2), 0.5))


def test_partial_trace_product_state():
    rng = np.random.default_rng(RNG_SEED)
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    joint = tensor(rho_a, rho_b)
    assert np.allclose(partial_trace(joint, (2, 3), keep=(0,)), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), keep=(1,)), rho_b, atol=1e-12)
    # keeping everything is the identity
    assert np.allclose(partial_trace(joint, (2, 3), keep=(0, 1)), joint)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    reduced = partial_trace(projector(bell), (2, 2), keep=(0,))
    assert np.allclose(reduced, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_three_factors():
    rng = np.random.default_rng(RNG_SEED + 1)
    parts = [random_density(d, rng) for d in (2, 2, 4)]
    joint = tensor(*parts)
    mid = partial_trace(joint, (2, 2, 4), keep=(1,))
    assert np.allclose(mid, parts[1], atol=1e-12)
    pair = partial_trace(joint, (2, 2, 4), keep=(0, 2))
    assert np.allclose(pair, tensor(parts[0], parts[2]), atol=1e-12)
    # trace is preserved no matter what is kept
    assert abs(np.trace(pair).real - 1.0) < 1e-12


def test_partial_trace_rejects_bad_args():
    rho = np.eye(4) / 4.0
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 3), keep=(0,))
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 2), keep=(2,))


def test_trace_norm_known_spectrum():
    h = np.diag([0.7, -0.3, 0.0])
    assert abs(trace_norm(h) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_distance_values():
    e0 = projector(np.array([1.0, 0.0]))
    e1 = projector(np.array([0.0, 1.0]))
    assert abs(trace_distance(e0, e1) - 1.0) < 1e-14
    assert trace_distance(e0, e0) == 0.0
    d = trace_distance(np.diag([0.7, 0.3]), np.diag([0.3, 0.7]))
    assert abs(d - 0.4) < 1e-14
    with pytest.raises(ValueError):
        trace_distance(np.eye(2) / 2.0, np.eye(3) / 3.0)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_random_density_is_valid_and_seeded(dim):
    rho1 = random_density(dim, np.random.default_rng(5))
    rho2 = random_density(dim, np.random.default_rng(5))
    assert np.array_equal(rho1, rho2)
    report = assert_density(rho1)
    assert report.passed, report


def test_assert_density_catches_defects():
    good = np.diag([0.25, 0.75]).astype(complex)
    assert assert_density(good).passed
    assert not assert_density(2.0 * good).passed          # trace 2
    assert not assert_density(np.diag([1.5, -0.5])).passed  # negative eigenvalue
    lopsided = np.array([[0.5, 0.3], [0.0, 0.5]])
    assert not assert_density(lopsided).passed            # not Hermitian
    assert hermiticity_defect(lopsided) == pytest.approx(0.3)


def test_require_density_raises():
    require_density(np.eye(2) / 2.0)
    with pytest.raises(InvariantViolation):
        require_density(np.diag([1.5, -0.5]))


def test_dagger():
    a = np.array([[1.0, 2.0j], [3.0, 4.0]])
    assert np.array_equal(dagger(a), np.conj(a).T)


def test_dagger_and_hermiticity_defect_act_per_member_of_a_stack():
    rng = np.random.default_rng(RNG_SEED + 2)
    stack = np.stack([random_density(3, rng) for _ in range(4)])
    assert np.array_equal(dagger(stack), np.stack([dagger(a) for a in stack]))
    assert hermiticity_defect(stack) < 1e-15
    stack[2, 0, 1] += 0.25  # one non-Hermitian member
    assert hermiticity_defect(stack) == hermiticity_defect(stack[2]) == pytest.approx(0.25)
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_norm(stack)


def test_stacked_trace_norm_equals_the_per_matrix_loop():
    rng = np.random.default_rng(RNG_SEED + 3)
    stack = np.stack([
        [random_density(5, rng) - random_density(5, rng) for _ in range(3)] for _ in range(2)
    ])
    norms = trace_norm(stack)
    assert norms.shape == (2, 3)
    assert np.array_equal(norms, [[trace_norm(h) for h in row] for row in stack])
    assert isinstance(trace_norm(stack[0, 0]), float)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trace_norm_rejects_non_finite_input(bad):
    stack = np.stack([np.eye(2) / 2.0] * 3).astype(complex)
    stack[1, 1, 1] = bad
    with pytest.raises(ValueError, match="not finite"):
        trace_norm(stack)
    with pytest.raises(ValueError, match="not finite"):
        trace_norm(stack[1])
