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

# Default numerical tolerances for state validation.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

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


def hermiticity_defect(a: ComplexMatrix) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose,
    over every member of a stack ``(..., d, d)``; NaN or inf if an entry
    is not finite."""
    a = np.asarray(a)
    with np.errstate(invalid="ignore"):  # inf - inf is the NaN reported
        return float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0


def trace_norm(h: ComplexMatrix, tol: float = HERMITICITY_TOL) -> float | np.ndarray:
    """Sum of absolute eigenvalues of a Hermitian matrix, or of each member
    of a stack ``(..., d, d)``.

    Parameters
    ----------
    h
        Matrix or stack that must be Hermitian within ``tol``; the skew
        part is discarded by ``eigh``, so feeding a genuinely non-Hermitian
        matrix would silently compute the wrong norm. Hence the check: one
        pass over the whole stack, which also rejects non-finite entries.

    Returns
    -------
    float or numpy.ndarray
        A float for one matrix, an array of shape ``h.shape[:-2]`` for a
        stack, all from one ``eigvalsh`` call.
    """
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if not np.isfinite(defect):  # a NaN or inf entry makes the defect NaN or inf
        raise ValueError(f"matrix is not finite: hermiticity defect {defect}")
    if not defect <= tol:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.1e}")
    norms = np.sum(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    return float(norms) if h.ndim == 2 else norms


def trace_distance(
    rho1: ComplexMatrix, rho2: ComplexMatrix, tol: float = HERMITICITY_TOL
) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError(f"shape mismatch: {rho1.shape} vs {rho2.shape}")
    return 0.5 * trace_norm(rho1 - rho2, tol=tol)


@dataclass(frozen=True)
class DensityReport:
    """Validation summary for a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float
    passed: bool


def assert_density(rho: ComplexMatrix, tol: float = 1e-10) -> DensityReport:
    """Check Hermiticity, unit trace, and positivity of ``rho``.

    Returns a :class:`DensityReport`; ``passed`` is true iff the hermiticity
    defect and trace defect are at most ``tol`` and the smallest eigenvalue
    is at least ``-tol``. Nothing is raised here so callers can decide how
    strict to be; see :func:`require_density` for the raising variant.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = hermiticity_defect(rho)
    tr = abs(float(np.trace(rho).real) - 1.0) + abs(float(np.trace(rho).imag))
    # Positivity is judged on the Hermitian part; for near-Hermitian input
    # this perturbs eigenvalues by at most the hermiticity defect.
    sym = 0.5 * (rho + dagger(rho))
    lo = float(np.min(np.linalg.eigvalsh(sym))) if rho.size else 0.0
    ok = herm <= tol and tr <= tol and lo >= -tol
    return DensityReport(herm, tr, lo, tol, ok)


def require_density(rho: ComplexMatrix, tol: float = 1e-10, what: str = "state") -> None:
    """Raise :class:`InvariantViolation` unless ``rho`` passes :func:`assert_density`."""
    report = assert_density(rho, tol=tol)
    if not report.passed:
        raise InvariantViolation(
            f"{what} is not a density matrix within {tol:.1e}: "
            f"hermiticity {report.hermiticity_defect:.3e}, "
            f"trace defect {report.trace_defect:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e}"
        )


def random_density(dim: int, rng: np.random.Generator) -> ComplexMatrix:
    """Random full-rank density matrix (normalized Wishart / Ginibre form)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real
