"""Collisional realization of the correlated noise channel.

One time step of the walker+system state R is the completely positive map

    R -> sum_k K_k R K_k^dagger

with four Kraus operators built from G, G' and the label-chain
probabilities of :mod:`~noisygrover.noise` (stationary ones for the first
collision, conditional ones afterwards). The same step is also realized
as a unitary collision: two fresh ancilla qubits in |00> interact with
walker+system through an 8N x 8N unitary U, after which the ancillas are
traced out. U is stored as an 8 x 8 grid of N x N blocks, each a multiple
of G or G'; the minus signs in the lower half make the columns
orthonormal for every parameter choice. Replacing the pure ancillas with
thermal ones (Gibbs weights at temperature T) yields the
finite-temperature channel via the same U.

The simulator never builds those matrices. Every block of U sits in one
walker row r and column c, so the step keeps the walker label classical
and is carried by the two N x N label blocks sigma_0, sigma_1 alone:

    sigma'_r = sum_op op (sum_c W[r, c, op] sigma_c) op^dagger,  op in {G, G'}

``transfer_weights`` reads the 2 x 2 x 2 tensor W off the same block
table that ``dilation_unitary`` assembles U from, weighting each ancilla
input by its population (|00> only for pure ancillas, Gibbs products for
a thermal bath). It takes one (p, mu) point or a sequence, whose tensors
it stacks from one incidence table of that block layout. The Kraus sets,
the dilation and its factorization are the verification layer: the tests
and ``dilation-check`` compare against them.

The step loop is one generator, dense at whatever size it is given, that
runs a batch at once: transfer tensors, G, G' and the start each may carry
leading batch axes (the (p, mu) points, or the systems of one d), which
broadcast against each other, so a shared operator is never copied per
member. The label blocks of every member form one batch + (2, d, d)
stack, taken at the start and yielded for t = 0, 1, 2, ... Two readers
draw from it: ``collision_evolve`` takes the first steps + 1 stacks and
keeps the success series (and, on request, the label blocks themselves)
in an :class:`EvolutionTrace`, the result type of every evolution run,
and ``collision_first_max`` drops each slice of the first batch axis once
its members have passed their first success maximum and stops when none
is left, so its cost follows the first maxima and not the horizon. No
2d x 2d joint is taken or formed. The success and witness series hand
the loop G and G' at d x d on the orbit space of
:mod:`~noisygrover.noise` (for blp's pair, qubit 0 times that of the
other n - 1 qubits); the size is reported as ``meta["dim"]``.

U also factors as

    U = CX . (M (x) I_N) . (I_8 (x) G)

where CX applies chi to the system when the first ancilla is |1> and M is
the 8 x 8 coefficient grid; ``extract_m`` recovers M numerically and
checks it is unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, NamedTuple, Optional, Sequence

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    ComplexMatrix,
    dagger,
    hermiticity_defect,
    random_density,
    trace_distance,
)
from .noise import ConditionalProbs, MarkovNoiseParams, conditional_probs

KINDS = ("initial", "steady")

# Weight keys "next|previous" of the label chain, in Kraus-operator order.
_KEYS = ("g|g", "g|g'", "g'|g", "g'|g'")


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of one collision step, with human-readable labels."""

    ops: tuple[ComplexMatrix, ...]
    labels: tuple[str, ...]
    kind: str

    def completeness_defect(self) -> float:
        """max | sum_k K_k^dagger K_k  -  I |."""
        dim = self.ops[0].shape[1]
        acc = np.zeros((dim, dim), dtype=complex)
        for k in self.ops:
            acc += dagger(k) @ k
        return float(np.max(np.abs(acc - np.eye(dim))))

    def unitality_defect(self) -> float:
        """max | sum_k K_k K_k^dagger  -  I |; zero iff the map is unital."""
        dim = self.ops[0].shape[0]
        acc = np.zeros((dim, dim), dtype=complex)
        for k in self.ops:
            acc += k @ dagger(k)
        return float(np.max(np.abs(acc - np.eye(dim))))


class _PointStack(NamedTuple):
    """The (p, mu) points of a batch as (B,) arrays, with the fields of
    MarkovNoiseParams that the chain's weights read, so :func:`_weights`
    gives each weight for every point at once."""

    p_g: np.ndarray
    p_gp: np.ndarray
    mu: np.ndarray


def _weights(
    kind: str, params: MarkovNoiseParams | _PointStack
) -> dict[str, float | np.ndarray]:
    # Branch weights keyed by the conditional label "next|previous". The
    # first collision has no previous label, so both columns carry the
    # stationary distribution. A _PointStack gives (B,) arrays.
    if kind == "initial":
        return {
            "g|g": params.p_g,
            "g|g'": params.p_g,
            "g'|g": params.p_gp,
            "g'|g'": params.p_gp,
        }
    if kind == "steady":
        c: ConditionalProbs = conditional_probs(params)
        return {
            "g|g": c.g_given_g,
            "g|g'": c.g_given_gp,
            "g'|g": c.gp_given_g,
            "g'|g'": c.gp_given_gp,
        }
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def kraus_step(
    kind: str, params: MarkovNoiseParams, g: ComplexMatrix, gp: ComplexMatrix
) -> KrausSet:
    """Four Kraus operators on walker (x) system (2N x 2N each).

    Walker index 0 is the clean branch (G fires), index 1 the faulty one
    (G' fires). In block form, with w(key) the weight dict of the kind:

        K_1 = sqrt(w(g|g))   [[G, 0], [0, 0]]
        K_2 = sqrt(w(g|g'))  [[0, G], [0, 0]]
        K_3 = sqrt(w(g'|g))  [[0, 0], [G', 0]]
        K_4 = sqrt(w(g'|g')) [[0, 0], [0, G']]

    The set is trace preserving for any parameters. It is unital only on
    a thin set: sum K K^dagger = diag((1 + a) I, (1 - a) I), with
    a = (1 - mu)(1 - 2p) for the steady step and a = 1 - 2p for the initial
    one. So the steady step is unital iff p = 1/2 or mu = 1, the initial
    step iff p = 1/2, and the steady step moves I/2N by 0.5 |a| in trace
    distance (p=0.3, mu=0.5 gives a = 0.2).
    """
    n_dim = g.shape[0]
    if g.shape != gp.shape or g.shape != (n_dim, n_dim):
        raise ValueError(f"operator shapes {g.shape} vs {gp.shape} invalid")
    w = _weights(kind, params)
    ops = []
    labels = []
    for key, op, row, col in (
        ("g|g", g, 0, 0),
        ("g|g'", g, 0, 1),
        ("g'|g", gp, 1, 0),
        ("g'|g'", gp, 1, 1),
    ):
        k = np.zeros((2 * n_dim, 2 * n_dim), dtype=complex)
        k[row * n_dim : (row + 1) * n_dim, col * n_dim : (col + 1) * n_dim] = (
            math.sqrt(w[key]) * op
        )
        ops.append(k)
        labels.append(key)
    return KrausSet(tuple(ops), tuple(labels), kind)


def apply_kraus(kset: KrausSet, r: ComplexMatrix) -> ComplexMatrix:
    """sum_k K_k R K_k^dagger."""
    out = np.zeros_like(r)
    for k in kset.ops:
        out += k @ r @ dagger(k)
    return out


# Block layout of the collision unitary: (grid row, grid col, sign, weight
# key, operator index) with operator 0 = G, 1 = G'. Grid index = binary
# (ancilla1, ancilla2, walker); ancilla-in columns 0..1 are the |00> slice.
_LAYOUT = (
    (0, 0, 1.0, "g|g", 0),
    (0, 5, 1.0, "g'|g", 0),
    (1, 2, 1.0, "g|g'", 0),
    (1, 7, 1.0, "g'|g'", 0),
    (2, 1, 1.0, "g|g'", 0),
    (2, 4, 1.0, "g'|g'", 0),
    (3, 3, 1.0, "g'|g", 0),
    (3, 6, 1.0, "g|g", 0),
    (4, 2, 1.0, "g'|g'", 1),
    (4, 7, -1.0, "g|g'", 1),
    (5, 0, 1.0, "g'|g", 1),
    (5, 5, -1.0, "g|g", 1),
    (6, 3, 1.0, "g|g", 1),
    (6, 6, -1.0, "g'|g", 1),
    (7, 1, 1.0, "g'|g'", 1),
    (7, 4, -1.0, "g|g'", 1),
)


@dataclass(frozen=True)
class DilationUnitary:
    """The 8N x 8N collision unitary on ancilla1 (x) ancilla2 (x) walker (x) system."""

    matrix: ComplexMatrix
    kind: str

    def unitarity_defect(self) -> float:
        u = self.matrix
        return float(np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))))


def dilation_unitary(
    kind: str, params: MarkovNoiseParams, g: ComplexMatrix, gp: ComplexMatrix
) -> DilationUnitary:
    """Assemble the collision unitary for the given step kind.

    Tracing the ancillas out of U (R (x) |00><00|-style input, ancillas
    leftmost) reproduces exactly the Kraus step of the same kind; the
    ancilla-in |00> block columns *are* the Kraus operators. Column
    normalization holds because each weight column of the label chain sums
    to one, so U is unitary for every p, mu in [0, 1].
    """
    n_dim = g.shape[0]
    if g.shape != gp.shape or g.shape != (n_dim, n_dim):
        raise ValueError(f"operator shapes {g.shape} vs {gp.shape} invalid")
    w = _weights(kind, params)
    ops = (g, gp)
    u = np.zeros((8 * n_dim, 8 * n_dim), dtype=complex)
    for row, col, sign, key, which in _LAYOUT:
        block = sign * (math.sqrt(w[key]) * ops[which])
        u[row * n_dim : (row + 1) * n_dim, col * n_dim : (col + 1) * n_dim] = block
    return DilationUnitary(u, kind)


def kraus_from_dilation(dil: DilationUnitary) -> KrausSet:
    """Read the four Kraus operators out of the dilation's |00> columns."""
    n2 = dil.matrix.shape[0] // 4  # walker+system dimension 2N
    ops = []
    for alpha in range(4):
        ops.append(dil.matrix[alpha * n2 : (alpha + 1) * n2, 0:n2].copy())
    labels = ("g|g", "g|g'", "g'|g", "g'|g'")
    return KrausSet(tuple(ops), labels, dil.kind)


@dataclass(frozen=True)
class DilationReport:
    trials: int
    max_deviation: float
    tol: float
    passed: bool


def verify_dilation(
    dil: DilationUnitary,
    kset: KrausSet,
    trials: int = 20,
    seed: int = 1234,
    tol: float = 1e-12,
) -> DilationReport:
    """Check Tr_anc[ U (|00><00| (x) R) U^dagger ] against the Kraus map.

    Runs ``trials`` random full-rank states R on walker (x) system and
    reports the largest trace distance between the two one-step images;
    ``trials`` < 1 raises ``ValueError``, since no state would be checked.
    A NaN deviation is kept as the maximum and fails the check.

    The ancilla input |00><00| (x) R is zero outside its first 2N rows and
    columns, so only U's |00> columns C = U[:, :2N] are reached and the
    joint state is C R C^dagger. Tracing out the leading 4-dim ancilla
    factor sums its four 2N x 2N diagonal blocks, so with C_a the a-th
    2N-row block of C the reduced state is sum_a C_a R C_a^dagger; the
    off-diagonal blocks are never formed. Each C_a is read in full from U,
    so an entry anywhere in the |00> columns reaches the check.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n2 = dil.matrix.shape[0] // 4
    blocks = [dil.matrix[a * n2 : (a + 1) * n2, :n2] for a in range(4)]
    rng = np.random.default_rng(seed)
    deviations = []
    for _ in range(trials):
        r = random_density(n2, rng)
        reduced = sum(c @ r @ dagger(c) for c in blocks)
        deviations.append(trace_distance(reduced, apply_kraus(kset, r)))
    worst = float(np.max(deviations))
    return DilationReport(trials, worst, tol, worst <= tol)


@dataclass(frozen=True)
class FactorizationReport:
    """Result of pulling the coefficient grid M out of the dilation."""

    m_grid: ComplexMatrix
    residual: float
    control_value: int
    unitary_defect: float
    passed: bool


def extract_m(
    dil: DilationUnitary,
    chi: ComplexMatrix,
    g: ComplexMatrix,
    tol: float = 1e-8,
) -> FactorizationReport:
    """Recover M from U = CX . (M (x) I_N) . (I_8 (x) G).

    CX applies ``chi`` to the system when the first ancilla is |1>, since
    the layout puts every G' block in grid rows 4-7; ``control_value`` is
    that 1. The residual is max |CX^dagger U (I_8 (x) G^dagger) - M (x) I_N|
    with M the blockwise normalized trace; ``unitary_defect`` is
    max |M^dagger M - I|. CX is block diagonal on U's 8 x 8 grid of N x N
    blocks, so every one of the 64 blocks of the product is
    C_i^dagger U_ij G^dagger, taken one at a time: no 8N x 8N matrix
    besides U is formed. A NaN block residual is kept as the maximum.
    """
    u = dil.matrix
    n_dim = g.shape[0]
    g_dag, chi_dag = dagger(g), dagger(chi)
    eye_n = np.eye(n_dim)
    m_grid = np.empty((8, 8), dtype=complex)
    residuals = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            block = u[i * n_dim : (i + 1) * n_dim, j * n_dim : (j + 1) * n_dim] @ g_dag
            if i >= 4:
                block = chi_dag @ block
            m_grid[i, j] = np.trace(block) / n_dim
            residuals[i, j] = np.max(np.abs(block - m_grid[i, j] * eye_n))
    residual = float(np.max(residuals))
    defect = float(np.max(np.abs(dagger(m_grid) @ m_grid - np.eye(8))))
    return FactorizationReport(m_grid, residual, 1, defect, residual <= tol)


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


def thermal_kraus(dil: DilationUnitary, bath: ThermalBathParams) -> KrausSet:
    """Sixteen Kraus operators K_{ab} = pi_b <a|U|b> of the thermal collision.

    pi weights are the square roots of the two-qubit Gibbs populations:
    pi_00 = z1, pi_01 = pi_10 = sqrt(z1 z2), pi_11 = z2. Completeness
    follows from (z1 + z2)^2 = 1. At T -> 0 only the b = 00 column
    survives and the pure-ancilla step is recovered.
    """
    u = dil.matrix
    n2 = u.shape[0] // 4
    root = math.sqrt(bath.z1 * bath.z2)
    pi = (bath.z1, root, root, bath.z2)
    ops = []
    labels = []
    for alpha in range(4):
        for beta in range(4):
            block = u[alpha * n2 : (alpha + 1) * n2, beta * n2 : (beta + 1) * n2]
            ops.append(pi[beta] * block)
            labels.append(f"{alpha:02b}|{beta:02b}")
    return KrausSet(tuple(ops), tuple(labels), dil.kind)


def channel_maps(
    params: MarkovNoiseParams,
    g: ComplexMatrix,
    gp: ComplexMatrix,
    bath: Optional[ThermalBathParams] = None,
) -> tuple[KrausSet, KrausSet]:
    """(first step, steady step) Kraus sets, pure-ancilla or thermal."""
    if bath is None:
        return (
            kraus_step("initial", params, g, gp),
            kraus_step("steady", params, g, gp),
        )
    return (
        thermal_kraus(dilation_unitary("initial", params, g, gp), bath),
        thermal_kraus(dilation_unitary("steady", params, g, gp), bath),
    )


def _incidence() -> np.ndarray:
    """T[b, key, r, c, op]: how many ``_LAYOUT`` blocks of weight ``key``
    sit in ancilla-in column b and feed walker block c into walker block r
    through op (0 = G, 1 = G'). Keys are in ``_KEYS`` order."""
    table = np.zeros((4, 4, 2, 2, 2))
    for row, col, _sign, key, which in _LAYOUT:
        table[col // 2, _KEYS.index(key), row % 2, col % 2, which] += 1.0
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
    pop[b] * w(key) at (walker out, walker in, op), with b its ancilla-in
    index and pop the ancilla populations: (1, 0, 0, 0) for pure ancillas,
    (z1^2, z1 z2, z1 z2, z2^2) for a thermal bath. The sign squares away.
    So W is the chain weights of every point contracted with pop and the
    incidence table ``_INCIDENCE``, read off ``_LAYOUT`` once. Pure
    ancillas leave one weight per entry, exactly; a thermal bath sums the
    populations first. Every column sums to one over (r, op), so the step
    is trace preserving.
    """
    single = isinstance(params, MarkovNoiseParams)
    points = [params] if single else list(params)
    if not points:
        raise ValueError("no (p, mu) points given")
    p = np.array([point.p for point in points], dtype=float)
    stack = _PointStack(1.0 - p, p, np.array([point.mu for point in points], dtype=float))
    if bath is None:
        pop = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        mixed = bath.z1 * bath.z2
        pop = np.array([bath.z1**2, mixed, mixed, bath.z2**2])
    table = np.tensordot(pop, _INCIDENCE, axes=1)  # [key, r, c, op]
    out = []
    for kind in KINDS:
        w = _weights(kind, stack)
        keyed = np.stack([w[key] for key in _KEYS], axis=-1)
        out.append(np.einsum("bk,krco->brco", keyed, table))
    if single:
        return out[0][0], out[1][0]
    return out[0], out[1]


# The step loop's generator: it yields label-block stacks and takes the
# indices of the first-axis slices to keep (or None) in return.
_Stream = Generator[np.ndarray, Optional[np.ndarray], None]


def _step_terms(weights: np.ndarray, ops: np.ndarray, ops_dag: np.ndarray):
    """The (r, op) terms of one step kind, laid out as k slots per output
    block r.

    ``weights`` is the stack (..., 2, 2, 2) of transfer tensors and ``ops``,
    ``ops_dag`` are G, G' and their adjoints, (..., 2, d, d), each with its
    own batch axes. A term is active when its weight is nonzero for some
    member and some input block c, and k is the most active terms of one
    block. Each block lists its active ops first; a block with fewer than k
    fills up with its inactive ops, whose weights are zero for every member.
    Returns the mixing weights (..., 2k, 2) over c, and the operators and
    adjoints (..., 2k, d, d), each keeping the batch axes it came with.
    """
    active = weights.reshape(-1, 2, 2, 2).any(axis=(0, 2))  # [r, op]
    k = int(active.sum(axis=1).max())
    rows = np.repeat([0, 1], k)
    which = np.argsort(~active, axis=1, kind="stable")[:, :k].ravel()
    # Complex up front, so the product in the loop needs no cast.
    mix = np.moveaxis(weights[..., rows, :, which], 0, -2).astype(complex)
    return mix, ops[..., which, :, :], ops_dag[..., which, :, :]


def _label_steps(
    g: ComplexMatrix,
    gp: ComplexMatrix,
    first: np.ndarray,
    steady: np.ndarray,
    sigma0: np.ndarray,
    marked: int,
) -> tuple[tuple[int, ...], _Stream]:
    """Check the inputs of a step loop and set it up: returns the batch
    shape and the generator :func:`_step_stream` of its label-block stacks.
    The checks run here, at the call, not at the generator's first item.

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
    if not 0 <= marked < n_dim:
        raise ValueError(f"marked index {marked} outside [0, {n_dim})")
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
    defect = hermiticity_defect(sigma0)
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"label blocks are not Hermitian: defect {defect:.3e}")
    ops = np.stack(np.broadcast_arrays(g, gp), axis=-3)
    ops_dag = np.conj(ops).swapaxes(-1, -2)
    plans = [_step_terms(w, ops, ops_dag) for w in (first, steady)]
    return batch, _step_stream(np.broadcast_to(sigma0, batch + shape[-3:]), *plans)


def _take(plan, keep: np.ndarray, ndim: int) -> tuple:
    """A plan of :func:`_step_terms` cut to the slices ``keep`` of the first
    of ``ndim`` batch axes; an array that broadcasts along it stays whole."""
    return tuple(
        a[keep] if a.ndim - core == ndim and a.shape[0] > 1 else a
        for a, core in zip(plan, (2, 3, 3))
    )


def _step_stream(sigma: np.ndarray, first_plan, steady_plan) -> _Stream:
    """The step loop: yields the label-block stack, batch + (2, d, d), after
    t = 0, 1, 2, ... collisions, without end; the consumer stops it.

    A step is one mixing product over the input blocks c, one batched
    conjugation and, where a block has more than one term (a thermal bath),
    one sum of each output block's terms (the plans of :func:`_step_terms`);
    the first collision uses ``first_plan``, all later ones ``steady_plan``.
    A consumer that is done with some slices of the first batch axis sends
    the indices of the others: from the next step on, the loop carries only
    those, and yields stacks cut to them.
    """
    n_dim, ndim, plan = sigma.shape[-1], sigma.ndim - 3, first_plan
    while True:
        keep = yield sigma
        if keep is not None:
            sigma = sigma[keep]
            plan, steady_plan = _take(plan, keep, ndim), _take(steady_plan, keep, ndim)
        batch, (mix, op, op_dag) = sigma.shape[:-3], plan
        slots = op.shape[-3]
        mixed = (mix @ sigma.reshape(batch + (2, -1))).reshape(batch + (slots, n_dim, n_dim))
        terms = (op @ mixed @ op_dag).reshape(batch + (2, slots // 2, n_dim, n_dim))
        # A pure step has one term per block, which needs no sum.
        sigma = terms[..., 0, :, :] if slots == 2 else terms.sum(axis=-3)
        plan = steady_plan


@dataclass(frozen=True)
class EvolutionTrace:
    """Result of an evolution run.

    ``probabilities[t]`` is the success probability after t steps,
    t = 0..steps. ``states`` (system marginals) and ``blocks`` (the label
    blocks that ``collision_evolve`` keeps) are kept only on request; both
    include t = 0.
    """

    probabilities: np.ndarray
    states: Optional[tuple[ComplexMatrix, ...]] = None
    meta: dict = field(default_factory=dict)
    blocks: Optional[np.ndarray] = None


def _success(sigma: np.ndarray, marked: int) -> np.ndarray:
    """Success probability of every member of a label-block stack: the
    ``marked`` diagonal entry of sigma_0 + sigma_1."""
    return sigma[..., 0, marked, marked].real + sigma[..., 1, marked, marked].real


def collision_evolve(
    g: ComplexMatrix,
    gp: ComplexMatrix,
    first: np.ndarray,
    steady: np.ndarray,
    sigma0: np.ndarray,
    steps: int,
    marked: int = 0,
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
    function takes its first ``steps`` + 1. (r, op) terms whose weights
    are zero for every member are skipped (:func:`_step_terms`): a pure
    step costs 2 conjugations per member and a thermal one 4. The loop is
    dense at whatever size it is given: N x N G, G' for the full register,
    or d x d forms on an invariant subspace (``markov_evolve``,
    ``markov_series``, ``n_cp`` and ``n_blp`` pass those, see
    :func:`~noisygrover.noise._orbit_chi`). ``meta["dim"]`` is that size.
    Success probability is the ``marked`` diagonal entry of
    sigma_0 + sigma_1. A start that is not (..., 2, n, n), blocks that are
    not finite and Hermitian, transfer tensors that are not finite,
    operators and start of mismatched size, or batch axes that do not
    broadcast raise ``ValueError``. ``keep_blocks`` keeps the stacks as
    ``blocks``, shape batch + (steps + 1, 2, n, n), with ``sigma0`` at
    t = 0. No joint is formed: from t = 1 on it is diag(sigma_0, sigma_1).
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    batch, stream = _label_steps(g, gp, first, steady, sigma0, marked)
    n_dim = np.shape(sigma0)[-1]
    probs = np.empty(batch + (steps + 1,), dtype=float)
    blocks = np.empty(batch + (steps + 1, 2, n_dim, n_dim), dtype=complex) if keep_blocks else None
    for t, sigma in zip(range(steps + 1), stream):
        probs[..., t] = _success(sigma, marked)
        if keep_blocks:
            blocks[..., t, :, :, :] = sigma
    return EvolutionTrace(probs, meta={"steps": steps, "dim": n_dim}, blocks=blocks)


def _first_max(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t*, P*) of every row of ``series``, (B, T): t* is the first t in
    1..T - 2 with P(t) >= P(t - 1) and P(t) >= P(t + 1), else the argmax of
    the row (a NaN counts as the maximum, as in ``np.argmax``); P* = P(t*)."""
    t_star = series.argmax(axis=1)
    if series.shape[1] > 2:
        mid = series[:, 1:-1]
        peaks = (mid >= series[:, :-2]) & (mid >= series[:, 2:])
        found = peaks.any(axis=1)
        t_star[found] = peaks[found].argmax(axis=1) + 1
    return t_star, series[np.arange(len(series)), t_star]


def collision_first_max(
    g: ComplexMatrix,
    gp: ComplexMatrix,
    first: np.ndarray,
    steady: np.ndarray,
    sigma0: np.ndarray,
    steps: int,
    marked: int = 0,
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

    The loop stops as soon as every member has passed its first maximum,
    after max t* + 1 steps, so the cost follows t* and not ``steps``; only
    a member with no interior maximum runs it to the horizon. A slice of
    the first batch axis (one system of a stack, or one member of a flat
    batch) leaves the loop once all its members have passed theirs, so a
    stack of systems whose t* differ costs what separate runs would.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    batch, stream = _label_steps(g, gp, first, steady, sigma0, marked)
    # A lone member runs as a batch (1,): the loop works on first-axis slices.
    shape = batch or (1,)
    probs = np.zeros(shape + (steps + 1,), dtype=float)
    open_ = np.ones(shape, dtype=bool)  # no first maximum seen yet
    # The slices the loop still carries; open_, older and last cover only those.
    live, keep, older, last = slice(None), None, None, None
    for t in range(steps + 1):
        sigma = stream.send(keep) if t else next(stream)
        now, keep = _success(sigma, marked).reshape((-1,) + shape[1:]), None
        probs[live, ..., t] = now
        if t >= 2:  # stop once every member has passed its first maximum
            open_ &= ~((last >= older) & (last >= now))
            going = open_.reshape(len(open_), -1).any(axis=1)
            if not going.any():
                break
            if not going.all():  # drop the slices whose members are all past it
                keep = np.flatnonzero(going)
                live = keep if isinstance(live, slice) else live[keep]
                open_, last, now = open_[keep], last[keep], now[keep]
        older, last = last, now
    # The rule reads only the part of each series up to where its slice left
    # the loop: the first maximum lies before that, and the zeros after it
    # are never reached.
    t_star, p_star = _first_max(probs[..., : t + 1].reshape(-1, t + 1))
    return t_star.reshape(batch), p_star.reshape(batch)
