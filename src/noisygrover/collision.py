"""Collisional realization of the correlated noise channel.

One time step of the walker+system state R is the completely positive map

    R -> sum_k K_k R K_k^dagger

with four Kraus operators built from G, G' and the label chain's
transition matrix P of :mod:`~noisygrover.noise`. The first collision has
no previous label: it is the same step at memory mu = 0, whose columns of
P are both the stationary law (1 - p, p). The same step is also realized
as a unitary collision: two fresh ancilla qubits in |00> interact with
walker+system through a unitary U, after which the ancillas are traced
out. With G and G' given D x D, U is 8D x 8D, stored as an 8 x 8 grid of
D x D blocks, each a multiple of G or G'; the minus signs in the lower
half make the columns orthonormal for every parameter choice. Replacing
the pure ancillas with thermal ones (Gibbs weights at temperature T)
yields the finite-temperature channel via the same U. The verification
layer below is written for any D: ``dilation-check`` passes G, G' and chi
at d' x d' on the weight basis B of :mod:`~noisygrover.noise` (D = d'),
which holds |s> and is invariant under G and chi, so the register's U at
D = N = 2^n meets that U_d' as U (I_8 (x) B) = (I_8 (x) B) U_d'.

The step loop never builds those matrices. Every block of U sits in one
walker row r and column c, so the step keeps the walker label classical
and is carried by the two D x D label blocks sigma_0, sigma_1 alone:

    sigma'_r = sum_op op (sum_c W[r, c, op] sigma_c) op^dagger,  op in {G, G'}

``transfer_weights`` reads the 2 x 2 x 2 tensor W off the same block
table that ``dilation_unitary`` assembles U from, weighting each ancilla
input by its population (|00> only for pure ancillas, Gibbs products for
a thermal bath). It takes one (p, mu) point or a sequence, whose tensors
it stacks from one incidence table of that block layout. The Kraus sets,
the dilation and its factorization are the verification layer: each
check returns its measurements (defects, deviations, residuals), which
``dilation-check`` gates in one table and the tests bound themselves.
``verify_dilation`` ties U to the step the tables run: it compares U's
reduced image of seeded pure probes with one step of the step loop on W,
G and G'. The Kraus sets serve the check that they are U's |00> columns,
and ``apply_kraus``, the dense sum K R K^dagger, is the tests' reference.
The Kraus sets and unitaries of a sequence of points come as stacks,
which the checks take whole, one value per member.

The step loop is one generator, dense at whatever size it is given, that
runs a batch at once: transfer tensors, G, G' and the start each may carry
leading batch axes (the (p, mu) points, or the systems of one d), which
broadcast against each other, so a shared operator is never copied per
member. The label blocks of every member form one batch + (2, d, d)
stack, taken at the start and yielded for t = 0, 1, 2, ... The loop
writes only into buffers it made, each step over the one before, so a
reader that keeps a stack copies it. Two readers draw from it, each
reading success off entry (0, 0) of sigma_0 + sigma_1, where the weight
basis puts |w>: ``collision_evolve`` takes the first steps + 1 stacks
and keeps the success series (and, on request, copies of the label
blocks) in an :class:`EvolutionTrace`, the result type of every
evolution run, and ``collision_first_max`` drops each slice of the
first batch axis once its members have passed their first success
maximum and stops when none is left, so its cost follows the first
maxima and its memory the members, not the horizon. No 2d x 2d joint
is taken or formed. Every caller hands the loop G and G' at d' x d' on
the weight basis of :mod:`~noisygrover.noise` (for blp's pair, qubit 0
times that of the other n - 1 qubits); the size is reported as
``meta["dim"]``.

U also factors as

    U = CX . (M (x) I_D) . (I_8 (x) G)

where CX applies chi to the system when the first ancilla is |1> and M is
the 8 x 8 coefficient grid; ``extract_m`` recovers M numerically and
measures how far it is from unitary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Generator, Iterable, Optional, Sequence

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    ComplexMatrix,
    dagger,
    hermiticity_defect,
    trace_norm,
)
from .noise import MarkovNoiseParams, _transition, conditional_probs

# Most entries one stack of states holds where the verification layer
# batches its dense work: the same-depth amplitude vectors of
# ``markov.history_oracle`` (1024 states at D = 16, 64 at D = 256), the
# 2D x 2D trial images of ``verify_dilation`` (256 trials at D = 4, 4 at
# D = 32, one from D = 64 on, per member), the D x D block products of
# ``unitarity_defect`` and ``extract_m`` (all 32 up to D = 22, one from
# D = 91 on), for D x D operators, the 8D x 8D unitaries that
# ``dilation-check`` stacks (two up to D = 11) and the D x D steps that
# ``oracle-check`` compares. ``_chunks`` cuts every one of those stacks.
_BATCH_ENTRIES = 2**14


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of one collision step."""

    ops: tuple[ComplexMatrix, ...]


def _points(params: MarkovNoiseParams | Sequence[MarkovNoiseParams]) -> list[MarkovNoiseParams]:
    """The (p, mu) points of one point or a sequence; an empty one raises
    ``ValueError``."""
    points = [params] if isinstance(params, MarkovNoiseParams) else list(params)
    if not points:
        raise ValueError("no (p, mu) points given")
    return points


def _check_operators(g: ComplexMatrix, gp: ComplexMatrix) -> int:
    """D of two D x D operators G, G'; other shapes raise ``ValueError``."""
    n_dim = g.shape[0]
    if g.shape != gp.shape or g.shape != (n_dim, n_dim):
        raise ValueError(f"operator shapes {g.shape} vs {gp.shape} invalid")
    return n_dim


def kraus_step(
    params: MarkovNoiseParams | Sequence[MarkovNoiseParams], g: ComplexMatrix, gp: ComplexMatrix
) -> KrausSet:
    """Four Kraus operators on walker (x) system, 2D x 2D each for D x D
    ``g`` and ``gp``, or (B, 2D, 2D) stacks for a sequence of B points.

    Walker index 0 is the clean branch (G fires), index 1 the faulty one
    (G' fires). Operator 2 r + c puts sqrt(P[r, c]) times G (r = 0) or G'
    (r = 1) in walker block (r, c), with P the chain's transition matrix
    (:func:`~noisygrover.noise.conditional_probs`):

        K_1 = sqrt(P[0, 0]) [[G, 0], [0, 0]]
        K_2 = sqrt(P[0, 1]) [[0, G], [0, 0]]
        K_3 = sqrt(P[1, 0]) [[0, 0], [G', 0]]
        K_4 = sqrt(P[1, 1]) [[0, 0], [0, G']]

    The first collision is this step at mu = 0. The set is trace preserving
    for any parameters. It is unital only on a thin set:
    sum K K^dagger = diag((1 + a) I, (1 - a) I) with a = (1 - mu)(1 - 2p),
    so it is unital iff p = 1/2 or mu = 1, and it moves I/2N by 0.5 |a| in
    trace distance (p=0.3, mu=0.5 gives a = 0.2).
    """
    n_dim = _check_operators(g, gp)
    weights = [conditional_probs(point) for point in _points(params)]
    ops = []
    for row, col in np.ndindex(2, 2):
        k = np.zeros((len(weights), 2 * n_dim, 2 * n_dim), dtype=complex)
        for member, w in zip(k, weights):
            member[row * n_dim : (row + 1) * n_dim, col * n_dim : (col + 1) * n_dim] = (
                math.sqrt(w[row, col]) * (g, gp)[row]
            )
        ops.append(k[0] if isinstance(params, MarkovNoiseParams) else k)
    return KrausSet(tuple(ops))


def apply_kraus(kset: KrausSet, r: ComplexMatrix) -> ComplexMatrix:
    """sum_k K_k R K_k^dagger, dense, for one matrix R or each member of a
    stack ``(..., 2D, 2D)``: the reference that tests compare the step loop
    with. A set whose operators are (B, 2D, 2D) stacks maps every R through
    each of its B members: the result is (B,) + ``r.shape``.
    """
    batch = kset.ops[0].shape[:-2]
    out = np.zeros(batch + r.shape, dtype=complex)
    for k in kset.ops:
        k = k.reshape(batch + (1,) * (r.ndim - 2) + k.shape[-2:])
        out += k @ r @ dagger(k)
    return out


# Block layout of the collision unitary: (grid row, grid col, sign, weight
# P[next, previous] as the pair (next, previous), operator index) with
# operator 0 = G, 1 = G'. Grid index = binary (ancilla1, ancilla2, walker);
# ancilla-in columns 0..1 are the |00> slice.
_LAYOUT = (
    (0, 0, 1.0, (0, 0), 0),
    (0, 5, 1.0, (1, 0), 0),
    (1, 2, 1.0, (0, 1), 0),
    (1, 7, 1.0, (1, 1), 0),
    (2, 1, 1.0, (0, 1), 0),
    (2, 4, 1.0, (1, 1), 0),
    (3, 3, 1.0, (1, 0), 0),
    (3, 6, 1.0, (0, 0), 0),
    (4, 2, 1.0, (1, 1), 1),
    (4, 7, -1.0, (0, 1), 1),
    (5, 0, 1.0, (1, 0), 1),
    (5, 5, -1.0, (0, 0), 1),
    (6, 3, 1.0, (0, 0), 1),
    (6, 6, -1.0, (1, 0), 1),
    (7, 1, 1.0, (1, 1), 1),
    (7, 4, -1.0, (0, 1), 1),
)


def dilation_unitary(
    params: MarkovNoiseParams | Sequence[MarkovNoiseParams], g: ComplexMatrix, gp: ComplexMatrix
) -> ComplexMatrix:
    """The 8D x 8D collision unitary on ancilla1 (x) ancilla2 (x) walker (x)
    system of the step at ``params``, for D x D ``g`` and ``gp`` (the first
    collision is the step at mu = 0), or the (B, 8D, 8D) stack of them for
    a sequence of B points.

    Tracing the ancillas out of U (R (x) |00><00|-style input, ancillas
    leftmost) reproduces exactly :func:`kraus_step` at the same ``params``;
    the ancilla-in |00> block columns *are* the Kraus operators. Column
    normalization holds because each column of the chain's transition
    matrix sums to one, so U is unitary for every p, mu in [0, 1].
    """
    n_dim = _check_operators(g, gp)
    weights = [conditional_probs(point) for point in _points(params)]
    ops = (g, gp)
    u = np.zeros((len(weights), 8 * n_dim, 8 * n_dim), dtype=complex)
    for member, w in zip(u, weights):
        for row, col, sign, pair, which in _LAYOUT:
            block = sign * (math.sqrt(w[pair]) * ops[which])
            member[row * n_dim : (row + 1) * n_dim, col * n_dim : (col + 1) * n_dim] = block
    return u[0] if isinstance(params, MarkovNoiseParams) else u


def _grid(u: ComplexMatrix) -> tuple[np.ndarray, np.ndarray]:
    """U, or a stack of them, as its 8 x 8 grid of D x D blocks, a view of
    shape (..., 8, D, 8, D), and the blocks that are not all zero in some
    member, (8, 8), found with ``any`` on U itself (a NaN counts)."""
    n_dim = u.shape[-1] // 8
    grid = u.reshape(u.shape[:-2] + (8, n_dim, 8, n_dim))
    nonzero = grid.reshape((-1, 8, n_dim, 8, n_dim)).any(axis=(0, 2, 4))
    return grid, nonzero


def _blocks(grid: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Grid blocks (rows[i], cols[i]) of every member, (len(rows),) + the
    batch shape + (D, D): gathered for several blocks, a view for one."""
    if len(rows) == 1:
        return grid[..., rows[0], :, cols[0], :][None]
    return grid[..., rows, :, cols, :]


def _chunks(sizes: Iterable[int]) -> Generator[slice, None, None]:
    """Consecutive runs of items, as slices, whose ``sizes`` in entries sum
    to at most ``_BATCH_ENTRIES``, the one stack rule of the verification
    layer; an item larger than that has a run of its own. Items of one
    size s go floor(_BATCH_ENTRIES / s) to a run, at least one. ``sizes``
    is read one item at a time, so a run is cut before the next is read."""
    start, total, end, budget = 0, 0, -1, _BATCH_ENTRIES
    for end, size in enumerate(sizes):
        total += size
        if total > budget and end > start:
            yield slice(start, end)
            start, total = end, size
    if end >= start:
        yield slice(start, end + 1)


def unitarity_defect(u: ComplexMatrix) -> float | np.ndarray:
    """max |U^dagger U - I| of an 8D x 8D collision unitary U, one D x D
    block of U^dagger U at a time; for a stack (B, 8D, 8D), one value per
    member.

    Block (j, k) of U^dagger U is sum_i U_ij^dagger U_ik over U's 8 block
    rows i. Each row is taken on the column blocks where it is nonzero
    (``any`` on U itself, over all members of a stack, so a NaN counts),
    and every term left out is an exact zero: only the block pairs (j, k)
    that share a nonzero block row are summed, 16 of the 64 for the
    layout, with 32 D x D products in place of the dense 8D x 8D one. The
    products run over runs of whole pairs of at most ``_BATCH_ENTRIES``
    entries, one batched matmul per rank of a row within its pair, so each
    pair's terms are added in the order of its rows. A run of one pair
    takes views of U, one product at a time, so no 8D x 8D matrix besides
    U is formed. Every other block is an exact zero, so its defect is 1 on
    the diagonal and 0 off it. A NaN entry makes the defect NaN.
    """
    grid, nonzero = _grid(u)
    pairs = np.argwhere(nonzero.T @ nonzero)
    rows = [np.flatnonzero(nonzero[:, j] & nonzero[:, k]) for j, k in pairs]
    sizes = np.array([len(r) for r in rows])
    defects = np.broadcast_to(np.eye(8), u.shape[:-2] + (8, 8)).copy()
    eye = np.eye(grid.shape[-1])
    block_entries = math.prod(grid.shape[:-4]) * grid.shape[-1] ** 2  # one block, every member
    for run in _chunks((sizes * block_entries).tolist()):
        (j, k), counts = pairs[run].T, sizes[run]
        for rank in range(counts.max()):  # each pair's rows in order
            has = np.flatnonzero(counts > rank)
            i = np.array([r[rank] for r in rows[run] if len(r) > rank])
            product = dagger(_blocks(grid, i, j[has])) @ _blocks(grid, i, k[has])
            if rank:
                block[has] += product
            else:
                block = product
        block[j == k] -= eye
        defects[..., j, k] = np.moveaxis(np.max(np.abs(block), axis=(-2, -1)), 0, -1)
    worst = np.max(defects, axis=(-2, -1))
    return float(worst) if u.ndim == 2 else worst


def kraus_from_dilation(u: ComplexMatrix) -> KrausSet:
    """Read the four Kraus operators out of the collision unitary's |00>
    columns; for a stack (B, 8D, 8D), each operator is a (B, 2D, 2D) stack."""
    n2 = u.shape[-1] // 4  # walker+system dimension 2D
    return KrausSet(tuple(u[..., alpha * n2 : (alpha + 1) * n2, :n2].copy() for alpha in range(4)))


def _probes(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` seeded Haar-random unit vectors of size ``dim``, (count,
    dim), from one draw: row i is bitwise the i-th of ``count`` successive
    draws of one complex Gaussian vector each (its real parts, then its
    imaginary parts), divided by the root of ``np.linalg.norm``'s
    ``x.real.dot(x.real) + x.imag.dot(x.imag)``."""
    draw = rng.standard_normal((count, 2, dim))
    v = draw[:, 0] + 1j * draw[:, 1]
    norms = np.sqrt([x.real.dot(x.real) + x.imag.dot(x.imag) for x in v])
    return v / norms[:, None]


def verify_dilation(
    u: ComplexMatrix,
    params: MarkovNoiseParams | Sequence[MarkovNoiseParams],
    g: ComplexMatrix,
    gp: ComplexMatrix,
    trials: int = 20,
    seed: int = 1234,
) -> float | np.ndarray:
    """The largest trace distance between Tr_anc[ U (|00><00| (x) R) U^dagger ]
    and one step of the step loop from R, for the collision unitary U of
    the step at ``params`` with D x D ``g``, ``gp`` (the arguments of
    :func:`dilation_unitary`); for a stack of B unitaries (B, 8D, 8D) and
    a sequence of B points, one value per member.

    R runs over ``trials`` seeded Haar-random pure states psi on walker (x)
    system (``trials`` < 1 raises ``ValueError``); a trial whose image has
    a NaN or inf entry reads NaN, which is kept as the maximum. Pure probes
    lose nothing: ||(E - F)(R)||_1 is convex in R, so the difference of two
    channels is largest on a pure input.

    The step side is the one every table runs: :func:`_step_stream` on the
    steady tensor of :func:`transfer_weights` at ``params`` (at (p, 0), the
    first collision), G and G', from psi's walker-diagonal blocks
    psi_c psi_c^dagger. U's side reads every entry of its |00> columns:
    the joint states U (|00> (x) psi) = U[:, :2D] psi are pure, and their
    four 2D-entry ancilla rows phi_a give the reduced state
    sum_a phi_a phi_a^dagger. The step image is subtracted in place from
    its two diagonal walker blocks; the off-diagonal ones, which the step
    drops, stay in the one ``trace_norm`` call per stack, which gives one
    norm per member and trial.

    The probes are drawn once for every member, in stacks of at most
    ``_BATCH_ENTRIES // (2D)**2`` trials (at least one, :func:`_chunks`),
    each from one draw (:func:`_probes`), so every trial sees the state it
    would see alone. A stack of one trial takes the U product as two rows,
    the trial and a copy, and keeps the first: numpy would take one row as
    a matrix-vector product, which rounds differently. So a trial's
    distance is bitwise the same whatever stack it falls in: ``trials = k``
    gives the largest of the first k distances of a longer run, and each
    member's value is bitwise the one it gets alone.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n_dim = _check_operators(g, gp)
    batch, n2 = u.shape[:-2], 2 * n_dim
    if u.shape[-2:] != (8 * n_dim, 8 * n_dim):
        raise ValueError(f"unitary shape {u.shape} does not fit {n_dim} x {n_dim} operators")
    # Each member's tensor, broadcast over the trials of a stack: one plan
    # of the step for every stack.
    steady = transfer_weights(params)[1].reshape(batch + (1, 2, 2, 2))
    plan = _step_terms(steady, *_operator_pair(np.asarray(g, complex), np.asarray(gp, complex)))
    columns = u[..., :, :n2].swapaxes(-1, -2)
    rng = np.random.default_rng(seed)
    deviations = []
    for run in _chunks(itertools.repeat(n2**2, trials)):
        psi = _probes(rng, run.stop - run.start, n2)
        # A lone trial goes through the product as two rows, itself and a
        # copy: as one row it would take numpy's matrix-vector product.
        rows = psi if len(psi) > 1 else np.concatenate((psi, psi))
        phi = (rows @ columns)[..., : len(psi), :].reshape(batch + (-1, 4, n2))
        image = phi.swapaxes(-1, -2) @ phi.conj()
        step = _pure_step(psi.reshape(-1, 2, n_dim), batch, plan)
        image[..., :n_dim, :n_dim] -= step[..., 0, :, :]
        image[..., n_dim:, n_dim:] -= step[..., 1, :, :]
        step = None  # the step loop's buffers die here, before trace_norm's
        # trace_norm refuses a non-finite entry: such a trial is zeroed for
        # it and reads NaN.
        bad = ~np.isfinite(image).all(axis=(-2, -1))
        image[bad] = 0.0
        norms = 0.5 * trace_norm(image)
        norms[bad] = np.nan
        deviations.append(norms)
    worst = np.max(np.concatenate(deviations, axis=-1), axis=-1)
    return float(worst) if u.ndim == 2 else worst


def _pure_step(halves: np.ndarray, batch: tuple[int, ...], plan) -> np.ndarray:
    """One step of the step loop on ``plan`` from the walker-diagonal
    blocks psi_c psi_c^dagger of pure states with halves psi_c, (t, 2, d),
    for every member of ``batch``: batch + (t, 2, d, d)."""
    start = halves[..., :, None] * halves.conj()[..., None, :]
    _check_hermitian(start)
    stream = _step_stream(np.broadcast_to(start, batch + start.shape), plan, plan)
    next(stream)
    return next(stream)


@dataclass(frozen=True)
class FactorizationReport:
    """Result of pulling the coefficient grid M out of the collision unitary."""

    m_grid: ComplexMatrix
    residual: float
    unitary_defect: float


def extract_m(u: ComplexMatrix, chi: ComplexMatrix, g: ComplexMatrix) -> FactorizationReport:
    """Recover M from U = CX . (M (x) I_D) . (I_8 (x) G), for D x D ``chi``
    and ``g``.

    CX applies ``chi`` to the system when the first ancilla is |1>, since
    the layout puts every G' block in grid rows 4-7. The residual is
    max |CX^dagger U (I_8 (x) G^dagger) - M (x) I_D| with M the blockwise
    normalized trace; ``unitary_defect`` is max |M^dagger M - I|. CX is
    block diagonal on U's 8 x 8 grid of D x D blocks, so block (i, j) of
    the product is C_i^dagger U_ij G^dagger: no 8D x 8D matrix besides U
    is formed. Only the blocks of U that are not all zero are multiplied
    (``any`` on U itself, so a NaN counts), as batched matmuls of at most
    ``_BATCH_ENTRIES`` entries (at least one block, a view of U;
    :func:`_chunks`); the others give M_ij = 0 and residual 0, as the
    product does. A NaN block residual is kept as the maximum.
    """
    grid, nonzero = _grid(u)
    n_dim = grid.shape[-1]
    g_dag, chi_dag = dagger(g), dagger(chi)
    eye_n = np.eye(n_dim)
    m_grid = np.zeros((8, 8), dtype=complex)
    residuals = np.zeros((8, 8))
    rows, cols = np.nonzero(nonzero)
    for run in _chunks([n_dim**2] * len(rows)):
        i, j = rows[run], cols[run]
        blocks = _blocks(grid, i, j) @ g_dag
        faulty = i >= 4
        blocks[faulty] = chi_dag @ blocks[faulty]
        m = np.trace(blocks, axis1=-2, axis2=-1) / n_dim
        m_grid[i, j] = m
        residuals[i, j] = np.max(np.abs(blocks - m[:, None, None] * eye_n), axis=(-2, -1))
    residual = float(np.max(residuals))
    defect = float(np.max(np.abs(dagger(m_grid) @ m_grid - np.eye(8))))
    return FactorizationReport(m_grid, residual, defect)


@dataclass(frozen=True)
class ThermalBathParams:
    """Gibbs weights of one ancilla qubit at temperature ``temperature`` > 0.

    z1 (ground) and z2 (excited) with z1 + z2 = 1; each collision draws two
    fresh ancilla qubits in the product state diag(z1, z2) (x) diag(z1, z2).
    """

    temperature: float
    z1: float
    z2: float


def thermal_weights(temperature: float) -> ThermalBathParams:
    """Gibbs weights z1 = 1/(1 + e^{-1/T}), z2 = e^{-1/T}/(1 + e^{-1/T})."""
    t = float(temperature)
    if not t > 0.0:
        raise ValueError(f"temperature must be positive, got {t!r}")
    boltz = math.exp(-1.0 / t)
    z1 = 1.0 / (1.0 + boltz)
    return ThermalBathParams(t, z1, 1.0 - z1)


def thermal_kraus(u: ComplexMatrix, bath: ThermalBathParams) -> KrausSet:
    """Sixteen Kraus operators K_{ab} = pi_b <a|U|b> of the thermal collision.

    pi weights are the square roots of the two-qubit Gibbs populations:
    pi_00 = z1, pi_01 = pi_10 = sqrt(z1 z2), pi_11 = z2. Completeness
    follows from (z1 + z2)^2 = 1. At T -> 0 only the b = 00 column
    survives and the pure-ancilla step is recovered.
    """
    n2 = u.shape[0] // 4
    root = math.sqrt(bath.z1 * bath.z2)
    pi = (bath.z1, root, root, bath.z2)
    return KrausSet(tuple(
        pi[beta] * u[alpha * n2 : (alpha + 1) * n2, beta * n2 : (beta + 1) * n2]
        for alpha in range(4)
        for beta in range(4)
    ))


def channel_maps(
    params: MarkovNoiseParams,
    g: ComplexMatrix,
    gp: ComplexMatrix,
    bath: Optional[ThermalBathParams] = None,
) -> tuple[KrausSet, KrausSet]:
    """(first step, steady step) Kraus sets, pure-ancilla or thermal; the
    first step is the steady one at mu = 0."""
    steps = (MarkovNoiseParams(params.p, 0.0), params)
    if bath is None:
        return tuple(kraus_step(step, g, gp) for step in steps)
    return tuple(thermal_kraus(dilation_unitary(step, g, gp), bath) for step in steps)


def _incidence() -> np.ndarray:
    """T[b, k, r, c, op]: how many ``_LAYOUT`` blocks of weight
    P[next, previous], k = 2 next + previous, sit in ancilla-in column b
    and feed walker block c into walker block r through op (0 = G, 1 = G')."""
    table = np.zeros((4, 4, 2, 2, 2))
    for row, col, _sign, (nxt, prev), which in _LAYOUT:
        table[col // 2, 2 * nxt + prev, row % 2, col % 2, which] += 1.0
    return table


_INCIDENCE = _incidence()


def transfer_weights(
    params: MarkovNoiseParams | Sequence[MarkovNoiseParams],
    bath: Optional[ThermalBathParams] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(first step, steady step) transfer tensors W[r, c, op], shape
    (2, 2, 2) for one point, or stacks (B, 2, 2, 2) for a sequence of B
    points (an empty one raises ``ValueError``).

    W[r, c, op] is the weight with which walker block c feeds walker block
    r through op (0 = G, 1 = G'). Each ``_LAYOUT`` entry of U adds
    pop[b] * P[next, previous] at (walker out, walker in, op), with b its
    ancilla-in index, P the chain's transition matrix and pop the ancilla
    populations: (1, 0, 0, 0) for pure ancillas, (z1^2, z1 z2, z1 z2,
    z2^2) for a thermal bath. The sign squares away. So W is P of every
    point contracted with pop and the incidence table ``_INCIDENCE``, read
    off ``_LAYOUT`` once. The first collision is the step at mu = 0, so
    both steps' P come from one call, stacked. Pure ancillas leave one
    weight per entry, exactly; a thermal bath sums the populations first.
    Every column sums to one over (r, op), so the step is trace preserving.
    """
    single = isinstance(params, MarkovNoiseParams)
    points = _points(params)
    p = np.array([point.p for point in points], dtype=float)
    mu = np.array([[0.0] * len(points), [point.mu for point in points]])
    chain = _transition(p, mu).reshape(2, len(points), 4)  # [step, point, 2 next + previous]
    if bath is None:
        pop = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        mixed = bath.z1 * bath.z2
        pop = np.array([bath.z1**2, mixed, mixed, bath.z2**2])
    # [k, (r, c, op)]: each entry takes one ancilla input b, so the product
    # is that population exactly.
    table = (pop @ _INCIDENCE.reshape(4, -1)).reshape(4, 8)
    first, steady = (chain[..., None] * table).sum(axis=-2).reshape(2, len(points), 2, 2, 2)
    if single:
        return first[0], steady[0]
    return first, steady


# The step loop's generator: it yields label-block stacks and takes the
# indices of the first-axis slices to keep (or None) in return.
_Stream = Generator[np.ndarray, Optional[np.ndarray], None]


def _step_terms(weights: np.ndarray, ops: np.ndarray, ops_dag: np.ndarray):
    """The (r, op) terms of one step, k per output block r.

    ``weights`` is the stack (..., 2, 2, 2) of transfer tensors and ``ops``,
    ``ops_dag`` are G, G' and their adjoints, (..., 2, d, d), each with its
    own batch axes. ``transfer_weights`` gives two shapes: pure ancillas
    (and a bath whose excited weight rounds to 0) feed block r through op r
    alone, so k = 1; any other bath weighs G' into block 0 or G into block
    1 for some member, and then every block takes both ops, k = 2.
    Returns the mixing weights (..., 2k, 2) over c, slot r k + j, and the
    operators and adjoints as views (..., 2, 1, d, d) for k = 1 or
    (..., 1, 2, d, d) for k = 2, each keeping the batch axes it came with.
    """
    # Complex up front, so the product in the loop needs no cast.
    if weights[..., 0, :, 1].any() or weights[..., 1, :, 0].any():
        mix = weights.swapaxes(-1, -2).reshape(weights.shape[:-3] + (4, 2))
        return mix.astype(complex), ops[..., None, :, :, :], ops_dag[..., None, :, :, :]
    mix = np.diagonal(weights, axis1=-3, axis2=-1).swapaxes(-1, -2)
    return mix.astype(complex), ops[..., None, :, :], ops_dag[..., None, :, :]


def _label_steps(
    g: ComplexMatrix,
    gp: ComplexMatrix,
    first: np.ndarray,
    steady: np.ndarray,
    sigma0: np.ndarray,
) -> tuple[tuple[int, ...], _Stream]:
    """Check the inputs of a step loop and set it up: returns the batch
    shape and the generator :func:`_step_stream` of its label-block
    stacks. The checks run here, at the call, not at the generator's first
    item.

    The batch shape broadcasts the leading axes of G and G' (before their
    last two) and of ``sigma0`` and the transfer tensors (before their last
    three). Each input keeps its own axes: matmul broadcasts a shared
    operator or weight over the members, so none is copied per member."""
    g, gp, sigma0 = (np.asarray(a, dtype=complex) for a in (g, gp, sigma0))
    shape = sigma0.shape
    if len(shape) < 3 or shape[-3] != 2 or shape[-2] != shape[-1]:
        raise ValueError(f"label blocks shape {shape} is not (..., 2, d, d)")
    n_dim = shape[-1]
    if g.shape[-2:] != (n_dim, n_dim) or gp.shape[-2:] != (n_dim, n_dim):
        raise ValueError(f"operator shapes {g.shape}, {gp.shape} do not match label blocks {shape}")
    first, steady = (np.asarray(w, dtype=float) for w in (first, steady))
    for weights in (first, steady):
        if weights.shape[-3:] != (2, 2, 2):
            raise ValueError(f"transfer weights shape {weights.shape} is not (..., 2, 2, 2)")
        if not np.isfinite(weights).all():
            raise ValueError("transfer weights are not finite")
    try:
        batch = np.broadcast_shapes(
            g.shape[:-2], gp.shape[:-2], shape[:-3], first.shape[:-3], steady.shape[:-3]
        )
    except ValueError:
        raise ValueError(
            f"batch axes of operator shapes {g.shape}, {gp.shape}, label blocks {shape} "
            f"and transfer weights {first.shape}, {steady.shape} do not broadcast"
        ) from None
    # Input check: label blocks are Hermitian, and the success probability
    # reads only the real part of a diagonal entry, so a non-Hermitian block
    # would otherwise pass unnoticed. A NaN or inf entry makes the defect
    # NaN or inf, which fails the check too.
    _check_hermitian(sigma0)
    ops = _operator_pair(g, gp)
    plans = [_step_terms(w, *ops) for w in (first, steady)]
    return batch, _step_stream(np.broadcast_to(sigma0, batch + shape[-3:]), *plans)


def _check_hermitian(sigma0: np.ndarray) -> None:
    """Refuse a start whose label blocks are not Hermitian."""
    defect = hermiticity_defect(sigma0)
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"label blocks are not Hermitian: defect {defect:.3e}")


def _operator_pair(g: np.ndarray, gp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G and G' as one stack (..., 2, d, d) over their broadcast batch
    axes, and its adjoint: the ``ops`` and ``ops_dag`` of :func:`_step_terms`."""
    if g.shape != gp.shape:
        g, gp = np.broadcast_arrays(g, gp)
    ops = np.concatenate((g[..., None, :, :], gp[..., None, :, :]), axis=-3)
    return ops, np.conj(ops).swapaxes(-1, -2)


def _take(plan, keep: np.ndarray, ndim: int) -> tuple:
    """A plan of :func:`_step_terms` cut to the slices ``keep`` of the first
    of ``ndim`` batch axes; an array that broadcasts along it stays whole."""
    return tuple(
        a[keep] if a.ndim - core == ndim and a.shape[0] > 1 else a
        for a, core in zip(plan, (2, 4, 4))
    )


def _step_stream(sigma: np.ndarray, first_plan, steady_plan) -> _Stream:
    """The step loop: yields the label-block stack, batch + (2, d, d), after
    t = 0, 1, 2, ... collisions, without end; the consumer stops it. The
    stack at t = 0 is ``sigma`` itself, which the loop only reads; every
    later one is a buffer the loop made, so it writes into no array of its
    caller. A stack stays valid until the next one is drawn: the loop
    writes each step over the one before, and a reader that keeps a stack
    copies it.

    A step is one mixing product over the input blocks c, one batched
    conjugation of the k mixed blocks per output block and, for k = 2 (a
    thermal bath), one sum of each block's two terms; the plans of
    :func:`_step_terms` fix k. The first collision uses ``first_plan``, all
    later ones ``steady_plan``. Every product writes into a buffer made
    once per batch and k, so a step allocates nothing. A consumer that is
    done with some slices of the first batch axis sends the indices of the
    others: from the next step on, the loop carries only those, and yields
    stacks cut to them.
    """
    n_dim, ndim, plan = sigma.shape[-1], sigma.ndim - 3, first_plan
    rows = sigma.reshape(sigma.shape[:-3] + (2, -1))
    (out, out_rows, out_pure), buffers = _stack_views(np.empty(sigma.shape, dtype=complex)), {}
    while True:
        keep = yield sigma
        if keep is not None:
            # The cut stack is a new array, which the next step writes over.
            out, out_rows, out_pure = _stack_views(sigma[keep])
            sigma, rows = out, out_rows
            plan, steady_plan = _take(plan, keep, ndim), _take(steady_plan, keep, ndim)
            buffers.clear()
        (mix, op, op_dag), batch = plan, sigma.shape[:-3]
        k = mix.shape[-2] // 2
        if k not in buffers:
            mixed = np.empty(batch + (2 * k, n_dim * n_dim), dtype=complex)
            half = np.empty(batch + (2, k, n_dim, n_dim), dtype=complex)
            terms = np.empty_like(half) if k == 2 else None
            buffers[k] = (mixed, mixed.reshape(half.shape), half, terms)
        mixed, mixed_blocks, half, terms = buffers[k]
        np.matmul(mix, rows, out=mixed)
        np.matmul(op, mixed_blocks, out=half)
        # A pure step has one term per block, which needs no sum.
        if k == 1:
            np.matmul(half, op_dag, out=out_pure)
        else:
            np.matmul(half, op_dag, out=terms)
            terms.sum(axis=-3, out=out)
        sigma, rows, plan = out, out_rows, steady_plan


def _stack_views(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A label-block stack batch + (2, d, d) and two views of it: its rows
    batch + (2, d^2), the input of a step's mixing product, and
    batch + (2, 1, d, d), the output of a pure step's last product."""
    return sigma, sigma.reshape(sigma.shape[:-3] + (2, -1)), sigma[..., :, None, :, :]


@dataclass(frozen=True)
class EvolutionTrace:
    """Result of an evolution run.

    ``probabilities[t]`` is the success probability after t steps,
    t = 0..steps. ``blocks`` are the label blocks that ``collision_evolve``
    keeps on request and ``markov_evolve`` always keeps, t = 0 included.
    """

    probabilities: np.ndarray
    meta: dict = field(default_factory=dict)
    blocks: Optional[np.ndarray] = None


def _success(diagonal: np.ndarray) -> np.ndarray:
    """Success probabilities from entry (0, 0), the marked state |w>, of
    the label blocks sigma_0 and sigma_1, (..., 2): the sum of their real
    parts."""
    return diagonal[..., 0].real + diagonal[..., 1].real


def collision_evolve(
    g: ComplexMatrix,
    gp: ComplexMatrix,
    first: np.ndarray,
    steady: np.ndarray,
    sigma0: np.ndarray,
    steps: int,
    keep_blocks: bool = False,
) -> EvolutionTrace:
    """Iterate the collision map for ``steps`` steps from label blocks ``sigma0``.

    ``first`` and ``steady`` are transfer tensors from
    :func:`transfer_weights`, shape (2, 2, 2), or stacks of them with
    leading batch axes (..., 2, 2, 2); the first collision uses ``first``,
    all later ones ``steady``. G and G' (n x n) and the start ``sigma0``,
    the label blocks (sigma_0, sigma_1) as (2, n, n), may carry leading
    batch axes too, such as one system per member. All these batch axes
    broadcast against each other; every member runs with its own weights,
    operators and start, and every result gains the batch shape in front.
    A shared operator is broadcast by matmul, not copied per member. The
    walker label stays classical, so the loop carries only these blocks
    (walker coherences never feed back), as one batch + (2, n, n) stack, with

        sigma'_r = sum_op op (sum_c W[r, c, op] sigma_c) op^dagger

    over op in (G, G'). The stacks come from the one step loop
    :func:`_step_stream`, which :func:`collision_first_max` shares; this
    function takes its first ``steps`` + 1. The weights fix the step's
    shape (:func:`_step_terms`): pure ancillas feed block r through op r
    alone, 2 conjugations per member; a thermal bath feeds every block
    through both ops, 4 conjugations (a bath whose excited weight rounds
    to 0 runs the pure step). The loop is dense at whatever size it is
    given: N x N G, G' for the full register, or the forms on an invariant
    subspace: ``markov_evolve``, ``markov_series``, ``markov_first_max``,
    ``n_cp`` and ``n_blp`` pass d' x d' ones on the weight basis
    (:func:`~noisygrover.noise._weight_operators`). ``meta["dim"]`` is that
    size.
    Success probability is entry (0, 0) of sigma_0 + sigma_1: the weight
    basis puts the marked state |w> at index 0, and a caller whose basis
    puts it elsewhere reads its own entry off kept blocks. Each stack's
    two entries are read as it is drawn, and the series is formed from
    them once at the end. A start that is not (..., 2, n, n), blocks
    that are not finite and Hermitian, transfer tensors that are not
    finite, operators and start of mismatched size, or batch axes that do
    not broadcast raise ``ValueError``.
    ``keep_blocks`` keeps the stacks as ``blocks``, shape batch +
    (steps + 1, 2, n, n), with ``sigma0`` at t = 0: this function makes
    that array and copies each stack the loop yields into it. Without it,
    memory is the loop's few stacks plus 40 bytes per member and step. No
    joint is formed: from t = 1 on it is diag(sigma_0, sigma_1).
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    batch, stream = _label_steps(g, gp, first, steady, sigma0)
    diagonal, blocks = np.empty(batch + (steps + 1, 2), dtype=complex), None
    if keep_blocks:
        blocks = np.empty(batch + (steps + 1,) + np.shape(sigma0)[-3:], dtype=complex)
    for t, sigma in zip(range(steps + 1), stream):
        diagonal[..., t, :] = sigma[..., :, 0, 0]
        if keep_blocks:
            blocks[..., t, :, :, :] = sigma
    return EvolutionTrace(_success(diagonal), meta={"dim": np.shape(sigma0)[-1]}, blocks=blocks)


def collision_first_max(
    g: ComplexMatrix,
    gp: ComplexMatrix,
    first: np.ndarray,
    steady: np.ndarray,
    sigma0: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(t*, P*) of every member's success series within ``steps`` steps:
    where its first maximum falls and how high it is, each of the batch
    shape of :func:`collision_evolve`, t* as integers.

    t* is the first t >= 1 with P(t) >= P(t - 1) and P(t) >= P(t + 1), so
    it lies in 1..``steps`` - 1; a member with no such t takes the argmax
    of P over the whole horizon 0..``steps``, where a NaN counts as the
    maximum, as in ``np.argmax``. P* = P(t*). The inputs and the series
    are those of :func:`collision_evolve` with the same arguments, from
    the same step loop (:func:`_step_stream`), so (t*, P*) equal the rule
    applied to its rows exactly.

    The rule is read in the stream: the stop test that closes a member at
    its first maximum records it, and until then each member keeps its
    running argmax. No series is stored, so memory follows the members,
    not ``steps``. The loop stops as soon as every member has passed its
    first maximum, after max t* + 1 steps, so the cost follows t* and not
    ``steps``; only a member with no interior maximum runs it to the
    horizon. A slice of the first batch axis (one system of a stack, or
    one member of a flat batch) leaves the loop once all its members have
    passed theirs, so a stack of systems whose t* differ costs what
    separate runs would.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    batch, stream = _label_steps(g, gp, first, steady, sigma0)
    # A lone member runs as a batch (1,): the loop works on first-axis slices.
    shape = batch or (1,)
    t_out, p_out = np.empty(shape, dtype=np.intp), np.empty(shape)
    # For the members of the slices the loop still carries (live): no first
    # maximum seen yet (open_), and the first maximum or, while open, the
    # running argmax in np.argmax's order (the first maximum wins, and the
    # first NaN beats every number).
    live, keep, older, last = np.arange(shape[0]), None, None, None
    open_ = np.ones(shape, dtype=bool)
    t_star, p_star = np.zeros(shape, dtype=np.intp), np.full(shape, -np.inf)
    for t in range(steps + 1):
        sigma = stream.send(keep) if t else next(stream)
        now = _success(sigma[..., :, 0, 0]).reshape((-1,) + shape[1:])
        keep = None
        if t >= 2:  # close the members whose P(t - 1) is their first maximum
            peak = open_ & (last >= older) & (last >= now)
            t_star[peak], p_star[peak] = t - 1, last[peak]
            open_ &= ~peak
            going = open_.reshape(len(open_), -1).any(axis=1)
            if not going.all():  # hand out the slices whose members are all past it
                done, keep = ~going, np.flatnonzero(going)
                t_out[live[done]], p_out[live[done]] = t_star[done], p_star[done]
                live, open_, t_star, p_star = live[keep], open_[keep], t_star[keep], p_star[keep]
                if not keep.size:
                    break
                last, now = last[keep], now[keep]
        ahead = open_ & ((now > p_star) | np.isnan(now) & ~np.isnan(p_star))
        t_star[ahead], p_star[ahead] = t, now[ahead]
        older, last = last, now
    t_out[live], p_out[live] = t_star, p_star
    return t_out.reshape(batch), p_out.reshape(batch)
