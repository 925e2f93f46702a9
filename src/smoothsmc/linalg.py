"""Small dense symmetric linear algebra: Kronecker expansion by the identity,
a cyclic-Jacobi symmetric eigensolver, and positive-definiteness tests.

The certificate matrices have the structure ``M (x) I_n``; their spectra equal
the spectrum of the small factor with each eigenvalue repeated ``n`` times, so
all eigenvalue work happens on the small blocks.  The expansion exists mainly
so that this identity can be tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Sweep-level convergence: all off-diagonal magnitudes must drop below this
# factor times the largest diagonal magnitude.
JACOBI_CONV_FACTOR = 1e-14
JACOBI_MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Raised when the rotation sweeps exhaust their budget before converging."""

    def __init__(self, sweeps: int, off_residual: float):
        self.sweeps = sweeps
        self.off_residual = off_residual
        super().__init__(
            f"Jacobi eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {off_residual:.3e})"
        )


@dataclass(frozen=True)
class SymMatrix:
    """A real symmetric matrix; symmetry is exact after construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix order must be >= 1")
        if not np.array_equal(a, a.T):
            raise ValueError("entries are not exactly symmetric")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenSummary:
    """Sorted spectrum of a symmetric matrix with its extreme eigenvalues."""

    lambda_min: float
    lambda_max: float
    spectrum: tuple[float, ...]


def kron_with_identity(base: SymMatrix, n: int) -> SymMatrix:
    """Return ``base (x) I_n``, order ``base.order * n``."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"identity factor must be a positive integer, got {n!r}")
    return SymMatrix(np.kron(base.entries, np.eye(int(n))))


def jacobi_eigh(matrix, *, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Cyclic-Jacobi eigendecomposition of a symmetric matrix.

    Returns ``(values, vectors)`` with eigenvalues ascending and eigenvectors
    as matching columns.  Fails loudly on non-convergence.
    """
    a = matrix.entries if isinstance(matrix, SymMatrix) else np.asarray(matrix, dtype=float)
    a = a.astype(float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    off_diagonal = v == 0.0

    converged = False
    off = 0.0
    for _ in range(max_sweeps):
        # a stays exactly symmetric, so both triangles give the same maximum
        off = float(np.abs(a[off_diagonal]).max(initial=0.0))
        diag_scale = float(np.abs(np.diagonal(a)).max())
        if off <= JACOBI_CONV_FACTOR * diag_scale:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                if abs(theta) > 1e154:
                    # avoid overflow in theta**2 for extreme ratios
                    t = 1.0 / (2.0 * theta)
                else:
                    # theta may be -0.0, whose copysign is -1: keep t = 1 there
                    t = math.copysign(1.0, theta) if theta != 0.0 else 1.0
                    t /= abs(theta) + math.sqrt(theta * theta + 1.0)
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # each right-hand side is evaluated before either row is assigned
                a[p], a[q] = c * a[p] - s * a[q], s * a[p] + c * a[q]
                a[:, p], a[:, q] = c * a[:, p] - s * a[:, q], s * a[:, p] + c * a[:, q]
                a[p, q] = a[q, p] = 0.0
                v[:, p], v[:, q] = c * v[:, p] - s * v[:, q], s * v[:, p] + c * v[:, q]
    if not converged:
        raise JacobiConvergenceError(max_sweeps, off)

    values = np.diagonal(a).copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


def eig_sym(mat: SymMatrix) -> EigenSummary:
    """Spectrum of a symmetric matrix via the Jacobi solver."""
    values, _ = jacobi_eigh(mat)
    spectrum = tuple(float(x) for x in values)
    return EigenSummary(lambda_min=spectrum[0], lambda_max=spectrum[-1], spectrum=spectrum)


def is_positive_definite(mat: SymMatrix | EigenSummary, tol: float | None = None) -> bool:
    """True iff the smallest eigenvalue exceeds ``tol``; pass the spectrum
    when it is already known, so the matrix is not solved again.

    ``tol=None`` uses ``1e-12 * |lambda_max|`` to absorb rounding.
    """
    summary = mat if isinstance(mat, EigenSummary) else eig_sym(mat)
    if tol is None:
        tol = 1e-12 * abs(summary.lambda_max)
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    return summary.lambda_min > tol
