"""Small dense symmetric linear algebra: Kronecker expansion by the identity,
a cyclic-Jacobi symmetric eigensolver, and positive-definiteness tests.

The certificate matrices have the structure ``M (x) I_n``; their spectra equal
the spectrum of the small factor with each eigenvalue repeated ``n`` times, so
all eigenvalue work happens on the small blocks.  The expansion exists mainly
so that this identity can be tested.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Sweep-level convergence: all off-diagonal magnitudes must drop below this
# factor times the largest diagonal magnitude.
JACOBI_CONV_FACTOR = 1e-14
JACOBI_MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Raised when the rotation sweeps exhaust their budget before converging,
    or with ``sweeps == 0`` for input that never converges (see ``_jacobi``)."""

    def __init__(self, sweeps: int, off_residual: float):
        self.sweeps = sweeps
        self.off_residual = off_residual
        super().__init__(
            f"Jacobi eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {off_residual:.3e})"
        )


@dataclass(frozen=True)
class SymMatrix:
    """A read-only float copy of a real, exactly symmetric matrix without NaN
    (a -0.0/+0.0 mirror pair is symmetric; infinite entries are accepted)."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix order must be >= 1")
        # the lists hold distinct float objects, so a NaN equals nothing here
        if (rows := a.tolist()) != a.T.tolist():
            if any(x != x for row in rows for x in row):
                raise ValueError("entries contain a NaN")
            raise ValueError("entries are not exactly symmetric")
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
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"identity factor must be a positive integer, got {n!r}")
    return SymMatrix(np.kron(base.entries, np.eye(int(n))))


@functools.lru_cache(maxsize=8)
def _cyclic_order(n: int) -> tuple:
    """The ``(p, q, other indices)`` of each rotation of a sweep of order ``n``."""
    return tuple((p, q, tuple(r for r in range(n) if r != p and r != q))
                 for p in range(n - 1) for q in range(p + 1, n))


def _jacobi(matrix, vectors: bool):
    """The cyclic-Jacobi sweeps of :func:`jacobi_eigh`: returns the rotated
    matrix, diagonal, as rows of Python floats, and the rotated identity, or
    ``[]`` without ``vectors`` (the rotations of one never read the other).

    A rotation computes each entry of the upper triangle once and mirrors it
    into the lower, as ``J'AJ`` keeps an exactly symmetric matrix exactly
    symmetric.  A raw 2-D array that is not exactly symmetric, or holds a NaN,
    can never converge and is refused before the first sweep (``sweeps == 0``),
    and other raw input as :class:`SymMatrix` refuses it."""
    if not isinstance(matrix, SymMatrix):
        m = np.asarray(matrix, dtype=float)
        # the lists hold distinct float objects, so a NaN equals nothing here
        if m.ndim == 2 and m.tolist() != m.T.tolist():
            raise JacobiConvergenceError(0, float(np.abs(m[~np.eye(*m.shape, dtype=bool)]).max(initial=0.0)))
        matrix = SymMatrix(m)
    a, n = matrix.entries.tolist(), matrix.order
    order = _cyclic_order(n)
    v = [[float(i == j) for j in range(n)] for i in range(n)] if vectors else []
    off = 0.0
    for _ in range(JACOBI_MAX_SWEEPS):
        # a NaN, which an infinite entry can still produce, never converges and
        # is the residual, as with numpy's max
        offs = [abs(a[p][q]) for p, q, _others in order]
        diag = [abs(row[i]) for i, row in enumerate(a)]
        off = math.nan if math.isnan(sum(offs)) else max(offs, default=0.0)
        if off <= JACOBI_CONV_FACTOR * max(diag) and not math.isnan(sum(diag)):
            return a, v
        for p, q, others in order:
            rp, rq = a[p], a[q]
            apq = rp[q]
            if apq == 0.0:
                continue
            app, aqq = rp[p], rq[q]
            theta = (aqq - app) / (2.0 * apq)
            if abs(theta) > 1e154:
                # avoid overflow in theta**2 for extreme ratios
                t = 1.0 / (2.0 * theta)
            else:
                # theta may be -0.0, whose copysign is -1: keep t = 1 there
                t = math.copysign(1.0, theta) if theta != 0.0 else 1.0
                t /= abs(theta) + math.sqrt(theta * theta + 1.0)
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            # the 2x2 core by rows from the old rows, then by columns
            pp, pq = c * app - s * apq, c * apq - s * aqq
            qp, qq = s * app + c * apq, s * apq + c * aqq
            rp[p], rq[q] = c * pp - s * pq, s * qp + c * qq
            rp[q] = rq[p] = 0.0
            for r in others:
                x, y = rp[r], rq[r]
                rp[r] = a[r][p] = c * x - s * y
                rq[r] = a[r][q] = s * x + c * y
            for row in v:
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
    raise JacobiConvergenceError(JACOBI_MAX_SWEEPS, off)


def jacobi_eigh(matrix):
    """Cyclic-Jacobi eigendecomposition of a symmetric matrix.

    Returns ``(values, vectors)`` with eigenvalues ascending and eigenvectors
    as matching columns.  Fails loudly on non-convergence, and before the
    first sweep on input that is not exactly symmetric or holds a NaN.
    Rotates one triangle of Python floats and mirrors it: bitwise numpy's
    row-then-column rotations, without their per-call overhead.
    """
    a, v = _jacobi(matrix, True)
    order = sorted(range(len(a)), key=lambda i: a[i][i])  # stable: ties keep their column order
    return np.array([a[i][i] for i in order]), np.array(v)[:, order]


def eig_sym(mat: SymMatrix) -> EigenSummary:
    """Spectrum of a symmetric matrix via the Jacobi solver, which rotates
    no eigenvectors here: the values are bitwise :func:`jacobi_eigh`'s."""
    a, _ = _jacobi(mat, False)
    spectrum = tuple(sorted(row[i] for i, row in enumerate(a)))  # the same stable order
    return EigenSummary(lambda_min=spectrum[0], lambda_max=spectrum[-1], spectrum=spectrum)


def is_positive_definite(mat: SymMatrix | EigenSummary) -> bool:
    """True iff the smallest eigenvalue exceeds ``1e-12 * |lambda_max|``,
    which absorbs rounding; pass the spectrum when it is already known, so
    the matrix is not solved again."""
    summary = mat if isinstance(mat, EigenSummary) else eig_sym(mat)
    return summary.lambda_min > 1e-12 * abs(summary.lambda_max)
