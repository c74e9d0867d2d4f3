"""Dense linear algebra primitives for finite-dimensional quantum states.

Everything in this package works with explicit complex matrices, so the
helpers here are thin wrappers around numpy with the conventions pinned
down once: tensor factors multiply left to right, composite indices are
row-major over the factor dims, and Hermitian spectra come from ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Tolerance of the Hermiticity checks (the step loop's start, trace_norm).
HERMITICITY_TOL = 1e-10

ComplexMatrix = np.ndarray


class InvariantViolation(RuntimeError):
    """A runtime quantity broke a property it is guaranteed to satisfy."""


def dagger(a: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose over the last two axes, so each member of a
    stack ``(..., m, n)`` is taken on its own."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def tensor(*factors: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product of one or more matrices, left factor most significant.

    Parameters
    ----------
    factors
        Matrices (or vectors) combined as ``factors[0] (x) factors[1] (x) ...``.
        The composite index is row-major: basis state ``|i, j>`` of a pair of
        dims ``(d0, d1)`` sits at flat index ``i * d1 + j``.

    Returns
    -------
    numpy.ndarray
        The full product. At least one factor is required.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def projector(v: np.ndarray) -> ComplexMatrix:
    """Rank-one projector |v><v| of a (not necessarily normalized) vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, np.conj(v))


def partial_trace(
    r: ComplexMatrix, dims: Sequence[int], keep: Iterable[int]
) -> ComplexMatrix:
    """Trace out every tensor factor not listed in ``keep``.

    Parameters
    ----------
    r
        Square matrix on the composite space ``prod(dims)``.
    dims
        Dimension of each tensor factor, in the same order used to build
        the composite with :func:`tensor`.
    keep
        Indices (into ``dims``) of the factors to retain. Order of the
        surviving factors follows their original order.

    Returns
    -------
    numpy.ndarray
        Reduced matrix of dimension ``prod(dims[i] for i in keep)``.
    """
    dims = tuple(int(d) for d in dims)
    r = np.asarray(r, dtype=complex)
    total = int(np.prod(dims))
    if r.shape != (total, total):
        raise ValueError(f"matrix shape {r.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    arr = r.reshape(dims + dims)
    n_row = len(dims)
    # Trace highest dropped axis first so earlier axis numbers stay valid.
    for i in sorted(set(range(len(dims))) - set(keep), reverse=True):
        arr = np.trace(arr, axis1=i, axis2=i + n_row)
        n_row -= 1
    d_out = int(np.prod([dims[i] for i in keep])) if keep else 1
    return arr.reshape(d_out, d_out)


def hermiticity_defect(a: ComplexMatrix, axis=None) -> float | np.ndarray:
    """Largest entrywise deviation of ``a`` from its conjugate transpose,
    over every member of a stack ``(..., d, d)``, or per member with
    ``axis=(-2, -1)``; NaN or inf if an entry is not finite."""
    a = np.asarray(a)
    with np.errstate(invalid="ignore"):  # inf - inf is the NaN reported
        defect = np.max(np.abs(a - dagger(a)), axis=axis, initial=0.0)
    return float(defect) if axis is None else defect


def trace_norm(h: ComplexMatrix) -> float | np.ndarray:
    """Sum of absolute eigenvalues of a Hermitian matrix, or of each member
    of a stack ``(..., d, d)``.

    Parameters
    ----------
    h
        Matrix or stack that must be Hermitian within ``HERMITICITY_TOL``;
        the skew part is discarded by ``eigh``, so feeding a genuinely
        non-Hermitian matrix would silently compute the wrong norm. Hence
        the check: one pass over the whole stack, which also rejects
        non-finite entries with ``ValueError``, as it does a defect above
        that tolerance.

    Returns
    -------
    float or numpy.ndarray
        A float for one matrix, an array of shape ``h.shape[:-2]`` for a
        stack. The spectrum of a block-diagonal matrix is the union of its
        blocks' spectra, so ``h`` is cut into the diagonal blocks of
        :func:`_diagonal_blocks` and each block takes one ``eigvalsh``
        call; a matrix with no such cut takes one call on the whole stack.
    """
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if not np.isfinite(defect):  # a NaN or inf entry makes the defect NaN or inf
        raise ValueError(f"matrix is not finite: hermiticity defect {defect}")
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {HERMITICITY_TOL:.1e}")
    norms = sum(
        np.sum(np.abs(np.linalg.eigvalsh(h[..., lo:hi, lo:hi])), axis=-1)
        for lo, hi in _diagonal_blocks(h)
    )
    return float(norms) if h.ndim == 2 else norms


def _diagonal_blocks(h: np.ndarray) -> list[tuple[int, int]]:
    """The finest split of the index range of ``h`` (d x d, or a stack of
    them) into contiguous diagonal blocks [lo, hi) with only exact zeros
    between them in every member, as read off ``h`` itself. A nonzero
    corner entry spans every cut, so a dense stack is told by its corners
    alone; otherwise one ``any`` pass over the stack gives the union of
    the members' nonzero entries, and a cut falls after index i when no
    entry in rows or columns 0..i reaches past i."""
    d = h.shape[-1]
    if d < 2 or h[..., 0, -1].any() or h[..., -1, 0].any():
        return [(0, d)]
    nonzero = h.reshape(-1, d, d).any(axis=0)
    index = np.arange(d)
    reach = np.maximum.accumulate(np.where(nonzero | nonzero.T, index, index[:, None]).max(axis=1))
    ends = (np.flatnonzero(reach == index) + 1).tolist()
    return list(zip([0] + ends[:-1], ends))


def trace_distance(rho1: ComplexMatrix, rho2: ComplexMatrix) -> float | np.ndarray:
    """Half the trace norm of the difference of two Hermitian matrices, or
    of each pair of members of two stacks ``(..., d, d)`` of one shape: a
    float for one pair, an array of shape ``rho1.shape[:-2]`` for stacks,
    by :func:`trace_norm`, which rejects a difference that is not Hermitian
    within ``HERMITICITY_TOL``."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError(f"shape mismatch: {rho1.shape} vs {rho2.shape}")
    return 0.5 * trace_norm(rho1 - rho2)


@dataclass(frozen=True)
class DensityReport:
    """Validation summary for a candidate density matrix, or for each member
    of a stack (array fields of the stack's shape)."""

    hermiticity_defect: float | np.ndarray
    trace_defect: float | np.ndarray
    min_eigenvalue: float | np.ndarray
    tol: float
    passed: bool | np.ndarray


def assert_density(rho: ComplexMatrix, tol: float = 1e-10, blocks: bool = False) -> DensityReport:
    """Check Hermiticity, unit trace, and positivity of ``rho``, or of each
    member of a stack ``(..., d, d)``.

    Returns a :class:`DensityReport`; ``passed`` is true iff the hermiticity
    defect and trace defect are at most ``tol`` and the smallest eigenvalue
    (NaN for a member that is not finite) is at least ``-tol``. With
    ``blocks`` the last stack axis holds the diagonal blocks of one
    block-diagonal matrix, whose spectrum is the union of theirs, so they
    are checked as one. Nothing is raised here so callers can decide how
    strict to be; see :func:`require_density` for the raising variant.
    """
    rho = np.asarray(rho, dtype=complex)
    finite = np.isfinite(rho).all(axis=(-2, -1))
    herm = hermiticity_defect(rho, axis=(-2, -1))
    tr = np.trace(rho, axis1=-2, axis2=-1)
    # Positivity is judged on the Hermitian part; for near-Hermitian input
    # this perturbs eigenvalues by at most the hermiticity defect.
    safe = np.where(finite[..., None, None], rho, 0.0)
    lo = np.linalg.eigvalsh(0.5 * (safe + dagger(safe))).min(axis=-1, initial=np.inf)
    lo = np.where(finite, lo, np.nan)
    if blocks:
        herm, tr, lo = herm.max(axis=-1), tr.sum(axis=-1), lo.min(axis=-1)
    tr = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    ok = (herm <= tol) & (tr <= tol) & (lo >= -tol)
    if ok.ndim == 0:
        return DensityReport(float(herm), float(tr), float(lo), tol, bool(ok))
    return DensityReport(herm, tr, lo, tol, ok)


def require_density(
    rho: ComplexMatrix, tol: float = 1e-10, what: str = "state", blocks: bool = False
) -> None:
    """Raise :class:`InvariantViolation` unless ``rho`` passes
    :func:`assert_density`. ``what`` names the matrix in the message; for a
    stack it is formatted (``str.format``) with the index of the first
    member that fails."""
    report = assert_density(rho, tol=tol, blocks=blocks)
    bad = np.argwhere(~np.asarray(report.passed))
    if len(bad):  # one row per failing member; a row of no indices for one matrix
        i = tuple(bad[0])
        fields = (report.hermiticity_defect, report.trace_defect, report.min_eigenvalue)
        herm, tr, lo = (np.asarray(f)[i] for f in fields)
        raise InvariantViolation(
            f"{what.format(*i) if i else what} is not a density matrix within {tol:.1e}: "
            f"hermiticity {herm:.3e}, trace defect {tr:.3e}, min eigenvalue {lo:.3e}"
        )
