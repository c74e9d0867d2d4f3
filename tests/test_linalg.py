import numpy as np
import pytest
from support import random_density, random_pure_state

from noisygrover.linalg import (
    InvariantViolation,
    assert_density,
    dagger,
    hermiticity_defect,
    partial_trace,
    projector,
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


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_random_pure_state_is_a_seeded_unit_vector(dim):
    psi1 = random_pure_state(dim, np.random.default_rng(5))
    psi2 = random_pure_state(dim, np.random.default_rng(5))
    assert psi1.shape == (dim,) and np.array_equal(psi1, psi2)
    assert abs(np.vdot(psi1, psi1) - 1.0) < 1e-14


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_matrix_fails_without_linalg_error(bad):
    rho = np.eye(3, dtype=complex) / 3.0
    rho[1, 2] = bad
    report = assert_density(rho)
    assert report.passed is False and np.isnan(report.min_eigenvalue)
    with pytest.raises(InvariantViolation, match="min eigenvalue nan"):
        require_density(rho)


def test_stacked_density_check_matches_each_member():
    rng = np.random.default_rng(RNG_SEED)
    stack = np.stack([random_density(4, rng) for _ in range(6)])
    stack[2] = np.diag([1.5, -0.5, 0.0, 0.0])   # negative eigenvalue
    stack[3] *= 1.01                            # trace 1.01
    stack[4, 0, 1] += 1e-3                      # not Hermitian
    stack[5, 3, 3] = np.nan
    report = assert_density(stack)
    for i, rho in enumerate(stack):
        one = assert_density(rho)
        assert report.passed[i] == one.passed == (i < 2)
        for field in ("hermiticity_defect", "trace_defect", "min_eigenvalue"):
            assert np.array_equal(getattr(report, field)[i], getattr(one, field), equal_nan=True)
    with pytest.raises(InvariantViolation, match=r"^member 2 is not a density matrix"):
        require_density(stack, what="member {}")
    require_density(stack[:2], what="member {}")


def test_block_check_pools_the_blocks_of_a_block_diagonal_matrix():
    # Each (2, d, d) member is diag(a, b) with trace a + trace b = 1; a block
    # on its own has the wrong trace, and one negative block fails the whole.
    rng = np.random.default_rng(RNG_SEED + 1)
    members = []
    for shift in (0.0, 0.0, 0.3):
        a, b = 0.4 * random_density(3, rng), 0.6 * random_density(3, rng)
        members.append([a, b - shift * np.eye(3) + shift * np.diag([3.0, 0.0, 0.0])])
    stack = np.array(members)
    report = assert_density(stack, blocks=True)
    assert report.passed.tolist() == [True, True, False]
    assert not assert_density(stack).passed.any()
    for i, (a, b) in enumerate(stack):
        joint = assert_density(np.block([[a, np.zeros((3, 3))], [np.zeros((3, 3)), b]]))
        assert report.passed[i] == joint.passed
        assert report.hermiticity_defect[i] == joint.hermiticity_defect
        assert report.trace_defect[i] == pytest.approx(joint.trace_defect, abs=1e-15)
        assert report.min_eigenvalue[i] == pytest.approx(joint.min_eigenvalue, abs=1e-14)
    with pytest.raises(InvariantViolation, match=r"^t=2 is not a density matrix"):
        require_density(stack, what="t={}", blocks=True)


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


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    # the input shape of every np.linalg.eigvalsh call, which linalg makes
    shapes, real = [], np.linalg.eigvalsh

    def spy(a):
        shapes.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def _hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + dagger(a)


def _block_diagonal(sizes, rng, lead=()):
    h = np.zeros(lead + (sum(sizes),) * 2, dtype=complex)
    for index in np.ndindex(*lead):
        lo = 0
        for s in sizes:
            h[index + (slice(lo, lo + s),) * 2] = _hermitian(s, rng)
            lo += s
    return h


@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
@pytest.mark.parametrize("sizes", [(1, 1), (3, 1, 4), (5, 2, 2, 1, 6), (32, 32)])
def test_block_diagonal_trace_norm_equals_one_dense_eigvalsh(sizes, lead):
    rng = np.random.default_rng(RNG_SEED + 4)
    h = _block_diagonal(sizes, rng, lead)
    dense = np.sum(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    assert np.max(np.abs(trace_norm(h) - dense)) < 1e-13 * np.max(dense)


def test_trace_norm_blocks_are_the_finest_split_common_to_a_stack(eigvalsh_shapes):
    # Member 0 splits after index 1, member 1 after indices 1 and 2; the
    # stack splits only where both are zero.
    rng = np.random.default_rng(RNG_SEED + 5)
    stack = np.stack([_block_diagonal((2, 3), rng), _block_diagonal((2, 1, 2), rng)])
    dense = np.sum(np.abs(np.linalg.eigvalsh(stack)), axis=-1)
    eigvalsh_shapes.clear()
    norms = trace_norm(stack)
    assert eigvalsh_shapes == [(2, 2, 2), (2, 3, 3)]
    assert np.max(np.abs(norms - dense)) < 1e-13 * np.max(dense)


@pytest.mark.parametrize("entry", [(2, 3), (3, 2)])
def test_a_tiny_entry_between_blocks_prevents_the_split(eigvalsh_shapes, entry):
    # one entry, above or below the diagonal: Hermitian within tol, not zero
    rng = np.random.default_rng(RNG_SEED + 6)
    h = _block_diagonal((3, 3), rng)
    h[entry] = 1e-300
    trace_norm(h)
    assert eigvalsh_shapes == [(6, 6)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_block_diagonal_non_finite_input_raises(bad):
    rng = np.random.default_rng(RNG_SEED + 7)
    h = _block_diagonal((2, 2), rng)
    h[3, 3] = bad
    with pytest.raises(ValueError, match="not finite"):
        trace_norm(h)


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
def test_dense_trace_norm_is_one_eigvalsh_on_the_full_shape(eigvalsh_shapes, lead):
    rng = np.random.default_rng(RNG_SEED + 8)
    members = int(np.prod(lead))
    h = np.stack([random_density(6, rng) - random_density(6, rng) for _ in range(members)])
    h = h.reshape(lead + (6, 6))
    h[..., 0, -1] = h[..., -1, 0] = 0.0  # a zero corner still leaves no cut
    expected = np.sum(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    eigvalsh_shapes.clear()
    norms = trace_norm(h)
    assert eigvalsh_shapes == [h.shape]
    assert np.array_equal(norms, expected)
