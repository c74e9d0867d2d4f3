"""The noise model: which unitary hits which qubits, and when.

A noise event applies the same single-qubit unitary

    U = [[ a,                  b                ],
         [ -conj(b) e^{i th},  conj(a) e^{i th} ]]

to m of the n qubits (a chosen position set; default is the first m), i.e.
the faulty iteration is G' = chi_m G with chi_m the tensor lift of U. A
two-state Markov chain with fault probability p and memory mu picks G or
G' at each step (:class:`MarkovNoiseParams`): its transition matrix
(:func:`conditional_probs`) is written here once, and the first collision,
which has no previous label, is its step at mu = 0.

For U proportional to a Pauli or the identity the success probability
admits closed forms in the overlaps <w| chi G |s>, and is independent of
which qubits are hit (identity, sigma_x, sigma_z up to phase) or depends
only on the parity of m (sigma_y up to phase). Those overlaps and the
classifier for this "good noise" family live here, and so does the one
basis the simulator runs in, the weight basis: the span of P_j |s> and
P_j |w>, with P_j the projector onto total weight j = 0 .. m of the noisy
qubits in u's eigenbasis. It holds |s> and |w>, is invariant under G and
G', and has dimension d' <= 2(m + 1) (:func:`_orbit_class`), whatever q
and n are. G, G', chi and |s> on it come from u's 2 x 2 eigen frame
(:func:`_eigen_frame`) and binomial closed forms of order m
(:func:`_weight_coordinates`), formed for a stack of systems of one d'
(:func:`_weight_operators`) or for one system (:func:`_weight_system`);
n enters only through scalars. The success tables, the witnesses,
``markov_evolve`` and the verification subcommands all run on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .grover import GroverInstance, reduced_grover_operator
from .linalg import ComplexMatrix

NORM_TOL = 1e-10
CLASSIFY_TOL = 1e-10


@dataclass(frozen=True)
class SingleQubitUnitary:
    """Parameters (a, b, theta) of the 2x2 unitary above, |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex
    theta: float

    @property
    def matrix(self) -> ComplexMatrix:
        e = cmath.exp(1j * self.theta)
        return np.array(
            [
                [self.a, self.b],
                [-np.conj(self.b) * e, np.conj(self.a) * e],
            ],
            dtype=complex,
        )


def single_qubit_unitary(a: complex, b: complex, theta: float) -> SingleQubitUnitary:
    """Validated constructor; wraps theta into [0, 2*pi).

    A NaN or infinite ``a``, ``b`` or ``theta`` raises ``ValueError``.
    """
    a = complex(a)
    b = complex(b)
    theta = float(theta)
    if not all(cmath.isfinite(x) for x in (a, b, theta)):
        raise ValueError(f"noise parameters must be finite, got a={a!r}, b={b!r}, theta={theta!r}")
    norm = abs(a) ** 2 + abs(b) ** 2
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"|a|^2 + |b|^2 = {norm!r} is not 1 within {NORM_TOL:.1e}")
    return SingleQubitUnitary(a, b, theta % (2.0 * math.pi))


# Named parameter points. x, y, z are the Paulis, up to the convention's
# global phase: (0, 1, pi) -> sigma_x, (0, -1j, pi) -> sigma_y, (1, 0, pi) -> sigma_z.
PRESETS = {
    "identity": (1.0, 0.0, 0.0),
    "x": (0.0, 1.0, math.pi),
    "y": (0.0, -1.0j, math.pi),
    "z": (1.0, 0.0, math.pi),
    "hadamard": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), math.pi),
}


def noise_unitary(name: str) -> SingleQubitUnitary:
    """Preset lookup, see :data:`PRESETS`."""
    try:
        a, b, theta = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown unitary {name!r}; have {sorted(PRESETS)}") from None
    return single_qubit_unitary(a, b, theta)


@dataclass(frozen=True)
class NoiseSpec:
    """A unitary and the qubit positions it acts on (0-based, qubit 0 leftmost)."""

    u: SingleQubitUnitary
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.positions)) != len(self.positions):
            raise ValueError(f"duplicate positions in {self.positions}")
        if any(p < 0 for p in self.positions):
            raise ValueError(f"negative position in {self.positions}")


def noise_spec(
    u: SingleQubitUnitary,
    m: int,
    n: int,
    positions: Optional[Sequence[int]] = None,
) -> NoiseSpec:
    """Build a :class:`NoiseSpec` for ``n`` qubits.

    With ``positions`` omitted the unitary hits the first ``m`` qubits;
    otherwise ``positions`` must contain exactly ``m`` distinct indices
    below ``n``.
    """
    if not 0 <= m <= n:
        raise ValueError(f"m={m} outside [0, {n}]")
    if positions is None:
        positions = tuple(range(m))
    positions = tuple(int(p) for p in positions)
    if len(positions) != m:
        raise ValueError(f"{len(positions)} positions given for m={m}")
    if any(p >= n for p in positions):
        raise ValueError(f"positions {positions} exceed qubit count {n}")
    return NoiseSpec(u, positions)


@dataclass(frozen=True)
class MarkovNoiseParams:
    """Stationary fault probability ``p`` and memory ``mu``, both in [0, 1]."""

    p: float
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu={self.mu} outside [0, 1]")


def _transition(p, mu) -> np.ndarray:
    """P[..., next, previous] = (1 - mu) pi[next] + mu delta(next, previous),
    pi = (1 - p, p), for p and mu floats or arrays that broadcast."""
    p, mu = np.asarray(p, dtype=float), np.asarray(mu, dtype=float)
    pi = np.stack([1.0 - p, p], axis=-1)[..., :, None]
    return (1.0 - mu)[..., None, None] * pi + mu[..., None, None] * np.eye(2)


def conditional_probs(params: MarkovNoiseParams) -> np.ndarray:
    """The label chain's transition matrix P[next, previous], 2 x 2, label
    0 = g and 1 = g'; each column sums to 1. The first collision has no
    previous label and draws from pi = (1 - p, p): it is the step at
    mu = 0, whose columns are both pi."""
    return _transition(params.p, params.mu)


def build_chi(n: int, spec: NoiseSpec) -> ComplexMatrix:
    """Tensor lift of ``spec.u`` onto its positions, identity elsewhere."""
    if any(p >= n for p in spec.positions):
        raise ValueError(f"positions {spec.positions} exceed qubit count {n}")
    u = spec.u.matrix
    out = np.ones((1, 1), dtype=complex)
    run = 0  # identity qubits not yet lifted, as one 2**run identity
    for q in range(n):
        if q in spec.positions:
            out = np.kron(np.kron(out, np.eye(2**run, dtype=complex)), u)
            run = 0
        else:
            run += 1
    return np.kron(out, np.eye(2**run, dtype=complex)) if run else out


def noisy_grover(g: ComplexMatrix, chi: ComplexMatrix) -> ComplexMatrix:
    """Faulty iteration G' = chi G."""
    if g.shape != chi.shape:
        raise ValueError(f"shape mismatch: G {g.shape}, chi {chi.shape}")
    return chi @ g


def _orbit_class(n: int, marked: int, positions: tuple[int, ...]) -> tuple[int, int, int]:
    """(m, q, d') of a set of noisy positions: its size m, the number q of
    them where the marked index has a 1 bit, and the dimension d' of its
    weight basis (:func:`_weight_coordinates`): 2(m + 1) when m < n, and at
    m = n, m + 1 when q = 0 or q = m and 2m otherwise (1 for n = 0). A
    position outside [0, n) raises ``ValueError``."""
    if any(not 0 <= p < n for p in positions):
        raise ValueError(f"positions {positions} outside [0, {n})")
    m = len(positions)
    q = sum(marked >> (n - 1 - p) & 1 for p in positions)
    return m, q, 2 * (m + 1) if m < n else (2 * m if 0 < q < m else m + 1)


def _orbit_representatives(n: int, marked: int) -> list[tuple[int, ...]]:
    """One position set per class (m, q) of :func:`_orbit_class` with
    m >= 1, in order of m and then q: the first q positions where the
    marked index has a 1 bit and the first m - q where it has a 0 bit.
    G, G' and |s> depend on a position set only through its class, so every
    nonempty subset shares its success series with one of these; (0,)
    represents itself, since position 0 comes first in its own list."""
    ones = [i for i in range(n) if marked >> (n - 1 - i) & 1]
    zeros = [i for i in range(n) if not marked >> (n - 1 - i) & 1]
    return [
        tuple(sorted(ones[:q] + zeros[: m - q]))
        for m in range(1, n + 1)
        for q in range(max(0, m - len(zeros)), min(m, len(ones)) + 1)
    ]


def _eigen_frame(u: SingleQubitUnitary) -> tuple[tuple[complex, complex], ...]:
    """(l, p, z, z') of u: its eigenvalues l = (l0, l1), each of modulus 1,
    and the coordinates p = V^dagger |+>, z = V^dagger |0> and
    z' = V^dagger |1> in its eigenbasis V = (v0, v1), from scalars alone.

    e^(-i theta/2) u = Re(alpha) I + i r.sigma with alpha = a e^(-i theta/2),
    beta = b e^(-i theta/2) and r = (Im beta, Re beta, Im alpha). So v0 is
    the +1 eigenvector of the unit axis r/|r| . sigma, taken from whichever
    of its two closed forms has the larger norm, v1 = (-conj v0[1],
    conj v0[0]) is orthogonal to it by construction, and l = e^(i theta/2)
    (Re alpha +- i |r|), each divided by its modulus. r = 0 (u a multiple
    of I) gives V = I.
    """
    half = cmath.exp(-0.5j * u.theta)
    alpha, beta = u.a * half, u.b * half
    size = math.hypot(beta.imag, beta.real, alpha.imag)
    v0 = (1.0 + 0j, 0j)
    if size:
        nx, ny, nz = beta.imag / size, beta.real / size, alpha.imag / size
        norm = math.sqrt(2.0 * (1.0 + abs(nz)))
        if nz >= 0.0:
            v0 = ((1.0 + nz) / norm + 0j, complex(nx, ny) / norm)
        else:
            v0 = (complex(nx, -ny) / norm, (1.0 - nz) / norm + 0j)
    v1 = (-v0[1].conjugate(), v0[0].conjugate())
    l0, l1 = (complex(alpha.real, sign * size) for sign in (1.0, -1.0))
    l0, l1 = l0 / (abs(l0) * half), l1 / (abs(l1) * half)
    root = math.sqrt(0.5)
    p = tuple((v[0] + v[1]).conjugate() * root for v in (v0, v1))
    z = (v0[0].conjugate(), v1[0].conjugate())
    zf = (v0[1].conjugate(), v1[1].conjugate())
    return (l0, l1), p, z, zf


def _binomial_product(k0: int, a: tuple, k1: int, b: tuple) -> list:
    """The coefficients of t^0 .. t^(k0 + k1) in (a0 + a1 t)^k0 (b0 + b1 t)^k1."""
    left = [math.comb(k0, i) * a[0] ** (k0 - i) * a[1] ** i for i in range(k0 + 1)]
    right = [math.comb(k1, i) * b[0] ** (k1 - i) * b[1] ** i for i in range(k1 + 1)]
    out = [0.0] * (k0 + k1 + 1)
    for i, x in enumerate(left):
        for k, y in enumerate(right):
            out[i + k] += x * y
    return out


def _weight_coordinates(n: int, m: int, q: int, frame) -> tuple[list, list, list, int]:
    """(lambda, s, w, N): the eigenvalue of chi and the coordinates of |s>
    and |w> on each of the d' slots of the weight basis of class (m, q) on
    n qubits, from u's :func:`_eigen_frame` alone, and N = 2^n.

    The weight basis spans P_j |s> and P_j |w>, with P_j the projector onto
    total weight j = 0 .. m of the noisy qubits in u's eigenbasis; chi is
    the scalar lambda_j = l0^(m-j) l1^j (divided by its modulus) on that
    block, so the span holds |s> and |w> and is invariant under chi and G.
    Flip the q noisy qubits where the marked index has a 1 bit: then |w> is
    |0> on every qubit, the other m - q noisy qubits see u and the q
    flipped ones X u X, whose eigenvectors are X v_i, and a product state
    phi^(x k) has eigen-Dicke coordinates sqrt(C(k, a)) (v0^dagger phi)^(k-a)
    (v1^dagger phi)^a. With p, z, z' of the frame, x = P_j s and y = P_j w:

        |x| = sqrt(C(m, j)) |p0|^(m-j) |p1|^j,
        |y|^2 = [t^j] (|z0|^2 + |z1|^2 t)^(m-q) (|z'0|^2 + |z'1|^2 t)^q,
        x^dagger y = g0 conj(p0)^(m-j) conj(p1)^j
                     [t^j] (z0 + z1 t)^(m-q) (z'0 + z'1 t)^q,

    with g0 = 2^(-(n-m)/2) the overlap of the clean parts. Slot j, 0 is
    x / |x| and slot j, 1 the rest of y: |s> reads (|x|, 0) and |w> reads
    (c, sqrt(max(|y|^2 - |c|^2, 0))) with c = x^dagger y / |x|, formed as
    g0 e0^(m-j) e1^j [t^j](...) / sqrt(C(m, j)) with e_i = conj(p_i) / |p_i|,
    so a tiny |x| loses nothing; a zero p_i takes e_i = 1. Every word of G
    and chi maps |s> into Sym^(m-q) (x) Sym^q on the noisy qubits (in the
    flipped frame) times span{|0>, |+..+>} on the n - m clean ones (one
    vector when m = n), and P_j maps that space into itself. The second
    slot exists where its weight-j block, of dimension
    nc #{a + b = j : a <= m - q, b <= q} with nc = 2 when m < n and 1 when
    m = n, is not a line; chi is lambda_j on
    the whole block, so its value is exact even when it is 0. So d' depends
    on (n, m, q) alone: 2(m + 1) when m < n (nc = 2), and at m = n, m + 1
    when q = 0 or q = m and 2m otherwise.
    """
    (l0, l1), p, z, zf = frame
    size = (abs(p[0]), abs(p[1]))
    phase = tuple(c.conjugate() / a if a else 1.0 for c, a in zip(p, size))
    y_norms = _binomial_product(m - q, (abs(z[0]) ** 2, abs(z[1]) ** 2),
                                q, (abs(zf[0]) ** 2, abs(zf[1]) ** 2))
    overlaps = _binomial_product(m - q, z, q, zf)
    clean = 2.0 ** (-(n - m) / 2)
    lam, s, w = [], [], []
    for j in range(m + 1):
        root = math.sqrt(math.comb(m, j))
        c = clean * phase[0] ** (m - j) * phase[1] ** j * overlaps[j] / root
        eigenvalue = l0 ** (m - j) * l1**j
        lam.append(eigenvalue / abs(eigenvalue))
        s.append(root * size[0] ** (m - j) * size[1] ** j)
        w.append(c)
        if m < n or 0 < j < m and 0 < q < m:
            lam.append(lam[-1])
            s.append(0.0)
            w.append(math.sqrt(max(y_norms[j] - abs(c) ** 2, 0.0)))
    return lam, s, w, 2**n


def _weight_operators(
    coordinates,
) -> tuple[ComplexMatrix, np.ndarray, ComplexMatrix, np.ndarray]:
    """(chi, G, G', |s>), stacked (S, d', d') and (S, d'), of S systems of
    one d' from their :func:`_weight_coordinates`, with |w> at index 0 and
    G and |s> real.

    The basis change is B = P H. The Householder reflection
    H = I - c v v^dagger, v = w + e^(i phi) e_0 with w normalized, e^(i phi)
    the phase of w_0 and c = 1 / (1 + |w_0|), maps w onto -e^(i phi) e_0,
    and the diagonal phase P makes H s real and nonnegative. With y = P v
    and mu = sum_k lambda_k |v_k|^2, chi = B diag(lambda) B^dagger is
    diag(lambda) plus a rank-2 term,

        chi[k, l] = lambda_k delta_kl + y_k conj(y_l) (c^2 mu - c (lambda_k + lambda_l)),

    G is :func:`reduced_grover_operator` of |s> and G' = chi G. |s> is
    |H s| with s_0 = <w|s> = sqrt(1/N) put back exactly,
    and the rest scaled to norm sqrt(1 - 1/N): H leaves an absolute rounding
    error in every entry, and s_0 sets every step's rotation angle. The
    reflection runs on scalars, per system; the matrices are formed for the
    whole stack. At d' = 1 (n = 0, the empty register) |s> is |w>, the
    1 x 1 case.
    """
    rows, sizes = [], []
    for lam, s, w, N in coordinates:
        overlap = math.sqrt(1.0 / N)
        norm = math.sqrt(sum(abs(x) ** 2 for x in w))
        head = abs(w[0]) / norm
        phase = w[0] / (head * norm) if head else 1.0
        v = [w[0] / norm + phase] + [x / norm for x in w[1:]]
        c = 1.0 / (1.0 + head)
        # H s = s - c v (v^dagger s), with v^dagger s = <w|s> + conj(phase) s_0
        t = c * (overlap + phase.conjugate() * s[0])
        hs = [b - a * t for a, b in zip(v, s)]
        rest = [abs(x) for x in hs[1:]]
        scale = math.sqrt((1.0 - overlap**2) / sum(x * x for x in rest)) if rest else 0.0
        y = [a * b.conjugate() / abs(b) if b else a for a, b in zip(v, hs)]
        mu = sum(x * abs(a) ** 2 for x, a in zip(lam, v))
        # chi = diag(lambda) + y left^T + right y^dagger
        left = [b.conjugate() * (c * c * mu - c * x) for x, b in zip(lam, y)]
        right = [-c * x * b for x, b in zip(lam, y)]
        y_dag = [b.conjugate() for b in y]
        rows.append((lam, y, left, right, y_dag, [overlap] + [x * scale for x in rest]))
        sizes.append(N)
    lam, y, left, right, y_dag, s = np.array(rows).transpose(1, 0, 2)
    chi = y[:, :, None] * left[:, None, :] + right[:, :, None] * y_dag[:, None, :]
    chi.reshape(len(chi), -1)[:, :: lam.shape[-1] + 1] += lam
    s = s.real.copy()
    g = reduced_grover_operator(s, 0, np.array(sizes, dtype=float))
    return chi, g, chi @ g, s


def _weight_system(
    n: int, marked: int, u: SingleQubitUnitary, positions: tuple[int, ...]
) -> tuple[ComplexMatrix, np.ndarray, ComplexMatrix, np.ndarray]:
    """(chi, G, G', |s>) of one system on the weight basis, d' x d' and d',
    built from n, the marked index, u and the noisy positions as
    :func:`_weight_operators` builds the members of a d'-group: |w> at
    index 0, G and |s> real. n = 0 gives the 1 x 1 case. A position
    outside [0, n) raises ``ValueError`` (:func:`_orbit_class`)."""
    m, q, _ = _orbit_class(n, marked, positions)
    chi, g, gp, s = _weight_operators([_weight_coordinates(n, m, q, _eigen_frame(u))])
    return chi[0], g[0], gp[0], s[0]


@dataclass(frozen=True)
class ClosedFormOverlaps:
    """Analytic one-step quantities for noise on m qubits, q of them bit-flipped.

    ``psi_q`` is <w'| chi |w> restricted to the relevant pair (the product of
    per-qubit matrix elements), ``s_chi_s`` is <s| chi |s>, ``chi_ww`` the
    diagonal element <w| chi |w>, and ``p1`` the resulting success
    probability after one faulty iteration from |s>.
    """

    psi_q: complex
    s_chi_s: complex
    chi_ww: complex
    p1: float


def closed_form_overlaps(
    u: SingleQubitUnitary, n: int, m: int, q: int
) -> ClosedFormOverlaps:
    """Evaluate the one-step closed forms.

    Parameters
    ----------
    u
        The single-qubit unitary.
    n, m
        Total qubits and number of noisy qubits, 0 <= m <= n.
    q
        How many of the m noisy positions hold a 1 bit of the marked index,
        0 <= q <= m. The marked-state diagonal element and transition
        amplitude depend on the positions only through q.
    """
    if not 0 <= m <= n:
        raise ValueError(f"m={m} outside [0, {n}]")
    if not 0 <= q <= m:
        raise ValueError(f"q={q} outside [0, {m}]")
    N = 2 ** n
    a, b, theta = u.a, u.b, u.theta
    phase = cmath.exp(1j * q * theta)
    psi_q = phase * (a + b) ** (m - q) * (np.conj(a) - np.conj(b)) ** q
    chi_ww = phase * a ** (m - q) * np.conj(a) ** q
    s_chi_s = (
        2 ** (n - m)
        / N
        * ((a + b) + cmath.exp(1j * theta) * (np.conj(a) - np.conj(b))) ** m
    )
    p1 = abs((1.0 - 4.0 / N) * psi_q + 2.0 * chi_ww) ** 2 / N
    return ClosedFormOverlaps(complex(psi_q), complex(s_chi_s), complex(chi_ww), float(p1))


def sigma_y_p2(N: int, m: int) -> float:
    """Two-step success probability under sigma_y noise on m qubits.

    Depends on m only through its parity:

        P(2) = (1/N) | (4/N)(1 - 4/N)(-1)^m - 8/N + 3 |^2
    """
    val = (4.0 / N) * (1.0 - 4.0 / N) * (-1.0) ** m - 8.0 / N + 3.0
    return abs(val) ** 2 / N


class NoiseClassTag(Enum):
    """Position-(in)dependence class of a noise unitary."""

    FULL_INVARIANT = "full_invariant"      # probability independent of m and positions
    PARITY_INVARIANT = "parity_invariant"  # depends only on parity of m
    NOT_GOOD = "not_good"                  # no such guarantee


@dataclass(frozen=True)
class NoiseClass:
    tag: NoiseClassTag
    canonical: Optional[str]  # preset name matched up to global phase, else None


# Candidates checked up to a global phase. Identity, sigma_x and sigma_z give
# fully position-independent success series; sigma_y gives parity dependence.
_CANDIDATES = (
    ("identity", np.eye(2, dtype=complex), NoiseClassTag.FULL_INVARIANT),
    ("x", np.array([[0, 1], [1, 0]], dtype=complex), NoiseClassTag.FULL_INVARIANT),
    ("z", np.array([[1, 0], [0, -1]], dtype=complex), NoiseClassTag.FULL_INVARIANT),
    ("y", np.array([[0, -1j], [1j, 0]], dtype=complex), NoiseClassTag.PARITY_INVARIANT),
)


def classify_noise(u: SingleQubitUnitary, tol: float = CLASSIFY_TOL) -> NoiseClass:
    """Match ``u`` against identity/sigma_x/sigma_z (full invariance) and
    sigma_y (parity invariance), up to a global phase.

    The phase is fixed on the first nonzero entry of the candidate, then the
    whole matrix must agree entrywise within ``tol``.
    """
    mat = u.matrix
    for name, cand, tag in _CANDIDATES:
        i, j = divmod(int(np.argmax(np.abs(cand) > 0.5)), 2)
        phase = mat[i, j] / cand[i, j]
        if abs(abs(phase) - 1.0) > tol:
            continue
        if np.max(np.abs(mat - phase * cand)) <= tol:
            return NoiseClass(tag, name)
    return NoiseClass(NoiseClassTag.NOT_GOOD, None)


def sigma_x_reduced(inst: GroverInstance) -> tuple[np.ndarray, np.ndarray]:
    """3x3 forms of G and G' for sigma_x noise on any nonempty position set.

    Bit flips map |w> to another basis state |w''> (see :func:`w_prime`),
    permute the rest among themselves, and the dynamics closes on
    span{|sbar>, |w>, |w''>} where |sbar> is the uniform superposition of
    the remaining N - 2 states. Returns (G3, G3'); the initial state in
    this basis is (sqrt((N-2)/N), 1/sqrt(N), 1/sqrt(N)). G3' is G3 with
    the last two rows exchanged, since the noise swaps the two basis states.
    """
    N = inst.N
    if N < 4:
        raise ValueError("reduced form needs N >= 4")
    r = math.sqrt(N - 2.0)
    g3 = np.array(
        [
            [2.0 * (N - 2.0) / N - 1.0, -2.0 * r / N, 2.0 * r / N],
            [2.0 * r / N, 1.0 - 2.0 / N, 2.0 / N],
            [2.0 * r / N, -2.0 / N, 2.0 / N - 1.0],
        ],
        dtype=complex,
    )
    g3p = g3[[0, 2, 1], :].copy()
    return g3, g3p


def w_prime(w: int, m: int, n: int) -> int:
    """Image of marked index ``w`` under bit flips on the first ``m`` qubits.

    0-based throughout: with M = N / 2**m, the low ``n - m`` bits survive and
    the high ``m`` bits are complemented, i.e.

        w' = (N - M) - (w - w mod M) + (w mod M)
    """
    if not 0 <= m <= n:
        raise ValueError(f"m={m} outside [0, {n}]")
    N = 2 ** n
    if not 0 <= w < N:
        raise ValueError(f"index {w} outside [0, {N})")
    M = N >> m
    low = w % M
    return (N - M) - (w - low) + low
