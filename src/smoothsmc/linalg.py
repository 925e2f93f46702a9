"""Small dense symmetric linear algebra: Kronecker expansion by the identity,
a cyclic-Jacobi symmetric eigensolver, and positive-definiteness tests.

The certificate matrices have the structure ``M (x) I_n``; their spectra equal
the spectrum of the small factor with each eigenvalue repeated ``n`` times, so
all eigenvalue work happens on the small blocks.  The expansion exists mainly
so that this identity can be tested.

:func:`eig_sym` on an order-3 matrix (every certificate solve) sweeps the
upper triangle held in six floats; other orders, and :func:`jacobi_eigh`'s
eigenvectors, sweep rows of floats.  Both run the same tests and rotations, so
the order-3 spectrum is bit for bit the general sweep's.
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
    """Raised when the rotation sweeps exhaust their budget before converging,
    or with ``sweeps == 0`` for input that never converges (see ``_jacobi``)."""

    def __init__(self, sweeps: int, off_residual: float):
        self.sweeps = sweeps
        self.off_residual = off_residual
        super().__init__(
            f"Jacobi eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {off_residual:.3e})"
        )


@dataclass(frozen=True, init=False, slots=True)
class SymMatrix:
    """A real, exactly symmetric matrix without NaN (a -0.0/+0.0 mirror pair is
    symmetric; infinite entries are accepted): its ``order`` and its entries as
    Python floats, row by row in ``flat``, compared and hashed by value."""

    flat: tuple[float, ...]
    order: int

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix order must be >= 1")
        # the lists hold distinct float objects, so a NaN equals nothing here
        if (rows := a.tolist()) != a.T.tolist():
            if any(x != x for row in rows for x in row):
                raise ValueError("entries contain a NaN")
            raise ValueError("entries are not exactly symmetric")
        object.__setattr__(self, "flat", tuple(a.ravel().tolist()))
        object.__setattr__(self, "order", a.shape[0])

    @property
    def entries(self) -> np.ndarray:
        """A read-only float64 array of the entries, built anew on each read."""
        a = np.array(self.flat).reshape(self.order, self.order)
        a.setflags(write=False)
        return a

    def tolist(self) -> list:
        """The entries as rows of Python floats, as ``entries.tolist()`` gives them."""
        return [list(self.flat[i:i + self.order]) for i in range(0, len(self.flat), self.order)]


def _mirrored3(a00: float, a01: float, a02: float, a11: float, a12: float, a22: float) -> SymMatrix:
    """The order-3 matrix of an upper triangle, unchecked, each mirror pair one float."""
    mat = object.__new__(SymMatrix)
    object.__setattr__(mat, "flat", (a00, a01, a02, a01, a11, a12, a02, a12, a22))
    object.__setattr__(mat, "order", 3)
    return mat


@dataclass(frozen=True, slots=True)
class EigenSummary:
    """Sorted spectrum of a symmetric matrix; its ends are the extreme eigenvalues."""

    spectrum: tuple[float, ...]

    @property
    def lambda_min(self) -> float:
        return self.spectrum[0]

    @property
    def lambda_max(self) -> float:
        return self.spectrum[-1]


def kron_with_identity(base: SymMatrix, n: int) -> SymMatrix:
    """Return ``base (x) I_n``, order ``base.order * n``."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"identity factor must be a positive integer, got {n!r}")
    return SymMatrix(np.kron(base.entries, np.eye(int(n))))


def _rotation(app: float, aqq: float, apq: float):
    """The rotation in the ``(p, q)`` plane that zeroes ``apq``: returns
    ``(c, s, new_app, new_aqq)``, its 2x2 core computed by rows from the old
    rows, then by columns."""
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
    pp, pq = c * app - s * apq, c * apq - s * aqq
    qp, qq = s * app + c * apq, s * apq + c * aqq
    return c, s, c * pp - s * pq, s * qp + c * qq


def _jacobi3(flat) -> list:
    """The sweeps of :func:`_jacobi` at order 3 without eigenvectors, on the
    upper triangle held in six floats: the same tests, rotations and
    operands, so the same diagonal bit for bit (only an off-diagonal zero of
    a -0.0/+0.0 mirror pair may change sign, and it never reaches the
    diagonal)."""
    a00, a01, a02, _, a11, a12, _, _, a22 = flat
    off = 0.0
    for _ in range(JACOBI_MAX_SWEEPS):
        o01, o02, o12 = abs(a01), abs(a02), abs(a12)
        d0, d1, d2 = abs(a00), abs(a11), abs(a22)
        off = math.nan if math.isnan(o01 + o02 + o12) else max(o01, o02, o12)
        if off <= JACOBI_CONV_FACTOR * max(d0, d1, d2) and not math.isnan(d0 + d1 + d2):
            return [a00, a11, a22]
        if a01 != 0.0:
            c, s, a00, a11 = _rotation(a00, a11, a01)
            a01 = 0.0
            a02, a12 = c * a02 - s * a12, s * a02 + c * a12
        if a02 != 0.0:
            c, s, a00, a22 = _rotation(a00, a22, a02)
            a02 = 0.0
            a01, a12 = c * a01 - s * a12, s * a01 + c * a12
        if a12 != 0.0:
            c, s, a11, a22 = _rotation(a11, a22, a12)
            a12 = 0.0
            a01, a02 = c * a01 - s * a02, s * a01 + c * a02
    raise JacobiConvergenceError(JACOBI_MAX_SWEEPS, off)


def _jacobi(matrix, vectors: bool):
    """The cyclic-Jacobi sweeps of :func:`jacobi_eigh`: returns the rotated
    matrix's diagonal, as Python floats, and the rotated identity as rows, or
    ``[]`` without ``vectors`` (the rotations of one never read the other).

    A rotation computes each entry of the upper triangle once and mirrors it
    into the lower, as ``J'AJ`` keeps an exactly symmetric matrix exactly
    symmetric.  Order 3 without ``vectors`` sweeps the triangle in six floats
    (:func:`_jacobi3`), bit for bit this loop.  A raw 2-D array that is not
    exactly symmetric, or holds a NaN, can never converge and is refused
    before the first sweep (``sweeps == 0``), and other raw input as
    :class:`SymMatrix` refuses it."""
    if not isinstance(matrix, SymMatrix):
        m = np.asarray(matrix, dtype=float)
        # the lists hold distinct float objects, so a NaN equals nothing here
        if m.ndim == 2 and m.tolist() != m.T.tolist():
            raise JacobiConvergenceError(0, float(np.abs(m[~np.eye(*m.shape, dtype=bool)]).max(initial=0.0)))
        matrix = SymMatrix(m)
    if matrix.order == 3 and not vectors:
        return _jacobi3(matrix.flat), []
    a, n = matrix.tolist(), matrix.order
    order = [(p, q, [r for r in range(n) if r != p and r != q])
             for p in range(n - 1) for q in range(p + 1, n)]
    v = [[float(i == j) for j in range(n)] for i in range(n)] if vectors else []
    off = 0.0
    for _ in range(JACOBI_MAX_SWEEPS):
        # a NaN, which an infinite entry can still produce, never converges and
        # is the residual, as with numpy's max
        offs = [abs(a[p][q]) for p, q, _others in order]
        diag = [abs(row[i]) for i, row in enumerate(a)]
        off = math.nan if math.isnan(sum(offs)) else max(offs, default=0.0)
        if off <= JACOBI_CONV_FACTOR * max(diag) and not math.isnan(sum(diag)):
            return [row[i] for i, row in enumerate(a)], v
        for p, q, others in order:
            rp, rq = a[p], a[q]
            apq = rp[q]
            if apq == 0.0:
                continue
            c, s, rp[p], rq[q] = _rotation(rp[p], rq[q], apq)
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
    diagonal, v = _jacobi(matrix, True)
    order = sorted(range(len(diagonal)), key=diagonal.__getitem__)  # stable: ties keep their column order
    return np.array([diagonal[i] for i in order]), np.array(v)[:, order]


def eig_sym(mat: SymMatrix) -> EigenSummary:
    """Spectrum of a symmetric matrix via the Jacobi solver, which rotates
    no eigenvectors here: the values are bitwise :func:`jacobi_eigh`'s."""
    diagonal, _ = _jacobi(mat, False)
    return EigenSummary(tuple(sorted(diagonal)))  # the same stable order


def is_positive_definite(mat: SymMatrix | EigenSummary) -> bool:
    """True iff the smallest eigenvalue exceeds ``1e-12 * |lambda_max|``,
    which absorbs rounding; pass the spectrum when it is already known, so
    the matrix is not solved again.  The certificate does not use it: its
    blocks' definiteness is proved, and decided by the exact gain condition."""
    spectrum = (mat if isinstance(mat, EigenSummary) else eig_sym(mat)).spectrum
    return spectrum[0] > 1e-12 * abs(spectrum[-1])
