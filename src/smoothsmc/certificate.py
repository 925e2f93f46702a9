"""Lyapunov certificate construction and the settling-time / residual-set
formulas of the underlying finite-time stability results.

The quadratic form is ``V = xi' (P (x) I_n) xi`` over the transformed state
``xi = (xi1, xi2, xi3)``.  All matrices are stored as their 3x3 factors; the
identity expansion is implicit (the spectrum just repeats), so every
eigenvalue below is computed on a 3x3 block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .laws import (
    DEFAULT_SINGULAR_TOL,
    GainCheck,
    GainConfig,
    check_gain_condition,
    gain_overflow,
    real_setting,
    unit_power_direction,
)
from .linalg import EigenSummary, SymMatrix, eig_sym, is_positive_definite


def _symmetric(cfg: GainConfig, *blocks: list) -> tuple[SymMatrix, ...]:
    """The blocks, rows of Python floats, refused by name if an entry is not
    finite: float ``*`` and ``/`` overflow to inf, and ``0 * inf`` is NaN, silently."""
    if not all(math.isfinite(x) for rows in blocks for row in rows for x in row):
        raise gain_overflow(cfg, "the certificate blocks")
    return tuple(map(SymMatrix, blocks))


def build_p_block(cfg: GainConfig) -> SymMatrix:
    """3x3 factor of the Lyapunov weight matrix P."""
    k1, k2, k3, k4, m = cfg.k1, cfg.k2, cfg.k3, cfg.k4, cfg.m
    return _symmetric(cfg, [[0.5 * x for x in row] for row in (
        [2.0 * m / (m - 1.0) * k3 + k1 * k1, k1 * k2, -k1],
        [k1 * k2, 2.0 * k4 + k2 * k2, -k2],
        [-k1, -k2, 2.0],
    )])[0]


def build_q_block(cfg: GainConfig) -> SymMatrix:
    """Diagonal 3x3 factor bounding the adaptation coupling term."""
    k1, k2, k3, k4, m = cfg.k1, cfg.k2, cfg.k3, cfg.k4, cfg.m
    q1 = 2.0 * m / (m - 1.0) * k3 + k1 * k1 + (2.0 * m - 1.0) * k1 * k2 / (2.0 * (m - 1.0)) + k1 / 2.0
    q2 = m / (2.0 * (m - 1.0)) * (4.0 * k4 + 2.0 * k2 * k2 + k2) + (2.0 * m - 1.0) * k1 * k2 / (2.0 * (m - 1.0))
    q3 = k1 / 2.0 + m * k2 / (2.0 * (m - 1.0))
    return _symmetric(cfg, [[q1, 0.0, 0.0], [0.0, q2, 0.0], [0.0, 0.0, q3]])[0]


def build_omega_blocks(cfg: GainConfig) -> tuple[SymMatrix, SymMatrix]:
    """3x3 factors of the two dissipation quadratic forms.

    Both being positive definite certifies strict Lyapunov decrease of the
    unperturbed loop (at fixed L0); the gain feasibility inequality is a
    sufficient condition for that.
    """
    k1, k2, k3, k4, m = cfg.k1, cfg.k2, cfg.k3, cfg.k4, cfg.m
    omega1 = [[(k1 / m) * x for x in row] for row in (
        [k3 * m + k1 * k1 * (m - 1.0), 0.0, -k1 * (m - 1.0)],
        [0.0, k4 * m + k2 * k2 * (3.0 * m - 1.0), -k2 * (2.0 * m - 1.0)],
        [-k1 * (m - 1.0), -k2 * (2.0 * m - 1.0), m - 1.0],
    )]
    omega2 = [[k2 * x for x in row] for row in (
        [k3 + k1 * k1 * (3.0 * m - 2.0) / m, 0.0, 0.0],
        [0.0, k4 + k2 * k2, -k2],
        [0.0, -k2, 1.0],
    )]
    return _symmetric(cfg, omega1, omega2)


@dataclass(frozen=True)
class TransformedState:
    """The scaled coordinates in which the Lyapunov form is evaluated."""

    xi1: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray


def transform_state(x1: np.ndarray, x2: np.ndarray, L0: float, m: float,
                    singular_tol: float = DEFAULT_SINGULAR_TOL) -> TransformedState:
    """Map plant coordinates ``(x1, x2)`` at gain level ``L0`` to ``xi``.

    ``xi1`` extends continuously to zero at the origin (its norm scales as
    ``||x1||**((m-1)/m)``), so the same regularization as the laws applies.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    xi1 = L0 ** ((m - 1.0) / m) * unit_power_direction(x1, 1.0 / m, singular_tol)
    return TransformedState(xi1=xi1, xi2=L0 * x1, xi3=x2)


def _quadratic_form(P_block: SymMatrix, xi1, xi2, xi3):
    """``xi' (P (x) I_n) xi`` over the last axis, from the 3x3 factor of P.
    Each dot product is an elementwise sum, ``np.add.reduce(a * b, axis=-1)``,
    which rounds a row alike wherever it lies in memory (BLAS ``ddot`` need not)."""
    p = P_block.entries
    if p.shape != (3, 3):
        raise ValueError("P_block must be a 3x3 factor")
    dot = lambda a, b: np.add.reduce(a * b, axis=-1)
    return (p[0, 0] * dot(xi1, xi1) + 2.0 * p[0, 1] * dot(xi1, xi2)
            + 2.0 * p[0, 2] * dot(xi1, xi3) + p[1, 1] * dot(xi2, xi2)
            + 2.0 * p[1, 2] * dot(xi2, xi3) + p[2, 2] * dot(xi3, xi3))


def lyapunov_value(xi: TransformedState, P_block: SymMatrix) -> float:
    """``xi' (P (x) I_n) xi`` evaluated blockwise from the 3x3 factor."""
    return float(_quadratic_form(P_block, xi.xi1, xi.xi2, xi.xi3))


def lyapunov_series(x1: np.ndarray, x2: np.ndarray, L0: np.ndarray, m: float,
                    P_block: SymMatrix, singular_tol: float = DEFAULT_SINGULAR_TOL) -> np.ndarray:
    """:func:`lyapunov_value` of :func:`transform_state` at every row of a
    record, bit for bit under any BLAS kernel and for any slice of rows: the
    norm is ``np.linalg.norm(x1, axis=-1)``, a row's own elementwise sum, as
    in the scalar value, and every power is Python's float ``**`` per row
    (numpy's vectorised power is not libm ``pow``)."""
    nrm = np.linalg.norm(x1, axis=-1)
    regular = nrm >= singular_tol
    xi1 = np.zeros_like(x1)
    roots = np.array([r ** (1.0 / m) for r in nrm[regular].tolist()])
    xi1[regular] = x1[regular] / roots[:, None]
    xi1 *= np.array([v ** ((m - 1.0) / m) for v in L0.tolist()])[:, None]
    xi2 = L0[:, None] * x1
    V = _quadratic_form(P_block, xi1, xi2, x2)
    # terms that overflow to inf of both signs leave nan: those rows again at 2**-600 scale
    lost, s = np.isnan(V), 2.0 ** -600
    V[lost] = _quadratic_form(P_block, s * xi1[lost], s * xi2[lost], s * x2[lost]) / s / s
    return V


@dataclass(frozen=True)
class LyapunovCertificate:
    """The assembled certificate data for one gain configuration.

    ``n2_coeff`` omits the unknown disturbance bound: the full coefficient of
    the ``V**(1/2)`` perturbation term is ``delta * n2_coeff``.  The n
    constants are ``None`` when any matrix fails the definiteness check, never
    silent NaNs.
    """

    P_block: SymMatrix
    Q_block: SymMatrix
    Omega1_block: SymMatrix
    Omega2_block: SymMatrix
    p1: float
    n1: float | None
    n2_coeff: float | None
    n3: float | None
    n4: float | None
    gain_condition: GainCheck
    P_eig: EigenSummary
    Q_eig: EigenSummary
    Omega1_eig: EigenSummary
    Omega2_eig: EigenSummary

    def _spectra(self) -> dict:
        return {"P": self.P_eig, "Q": self.Q_eig,
                "Omega1": self.Omega1_eig, "Omega2": self.Omega2_eig}

    @property
    def all_pd(self) -> bool:
        return all(map(is_positive_definite, self._spectra().values()))

    @property
    def certified(self) -> bool:
        return self.gain_condition.holds and self.all_pd

    def to_dict(self) -> dict:
        return {
            "gain_condition": self.gain_condition._asdict(),
            "p1": self.p1,
            "n1": self.n1,
            "n2_coeff": self.n2_coeff,
            "n3": self.n3,
            "n4": self.n4,
            "positive_definite": {
                name: is_positive_definite(eig) for name, eig in self._spectra().items()},
            "eigenvalues": {
                name: {"min": eig.lambda_min, "max": eig.lambda_max}
                for name, eig in self._spectra().items()
            },
            "blocks": {
                "P": self.P_block.entries.tolist(),
                "Q": self.Q_block.entries.tolist(),
                "Omega1": self.Omega1_block.entries.tolist(),
                "Omega2": self.Omega2_block.entries.tolist(),
            },
        }


def build_certificate(cfg: GainConfig) -> LyapunovCertificate:
    """Assemble the certificate for an ``m > 2`` configuration; gains whose
    blocks leave the float range are refused by name (:func:`gain_overflow`)."""
    if cfg.m <= 2:
        raise ValueError("the certificate requires m > 2 (the baseline is exempt)")
    p_block, q_block = build_p_block(cfg), build_q_block(cfg)
    omega1, omega2 = build_omega_blocks(cfg)
    eigs = {name: eig_sym(mat) for name, mat in
            (("P", p_block), ("Q", q_block), ("O1", omega1), ("O2", omega2))}
    p1 = (2.0 * cfg.m - 3.0) / (2.0 * cfg.m - 2.0)
    if all(is_positive_definite(eig) for eig in eigs.values()):
        lam_min_p = eigs["P"].lambda_min
        lam_max_p = eigs["P"].lambda_max
        n1 = eigs["O1"].lambda_min / lam_max_p**p1
        n2_coeff = math.sqrt(cfg.k1**2 + cfg.k2**2 + 4.0) / math.sqrt(lam_min_p)
        n3 = eigs["O2"].lambda_min / lam_max_p
        n4 = eigs["Q"].lambda_max / (2.0 * lam_min_p)
    else:
        n1 = n2_coeff = n3 = n4 = None
    return LyapunovCertificate(
        P_block=p_block, Q_block=q_block,
        Omega1_block=omega1, Omega2_block=omega2,
        p1=p1, n1=n1, n2_coeff=n2_coeff, n3=n3, n4=n4,
        gain_condition=check_gain_condition(cfg),
        P_eig=eigs["P"], Q_eig=eigs["Q"],
        Omega1_eig=eigs["O1"], Omega2_eig=eigs["O2"],
    )


def settling_time_unperturbed(c1: float, c2: float, p: float, v0: float) -> float:
    """Settling-time bound for ``Vdot <= -c1 V**p - c2 V``."""
    if not (c1 > 0 and c2 > 0):
        raise ValueError("c1 and c2 must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if v0 < 0:
        raise ValueError("V0 must be non-negative")
    if v0 == 0.0:
        return 0.0
    return math.log1p(c2 * v0 ** (1.0 - p) / c1) / (c2 * (1.0 - p))


def settling_time_perturbed(c1: float, c2: float, c3: float, p1: float, p2: float,
                            v0: float, theta1: float, theta2: float) -> float:
    """Settling-time bound into the residual set for
    ``Vdot <= -c1 V**p1 - c2 V + c3 V**p2``: the unperturbed bound at
    ``(c1 - theta1, c2 - theta2)``."""
    if not (c1 > 0 and c2 > 0 and c3 > 0):
        raise ValueError("c1, c2, c3 must be positive")
    if not 0.0 < p1 < 1.0 or not 0.0 < p2 < p1:
        raise ValueError("require 0 < p2 < p1 < 1")
    if not 0.0 < theta1 < c1:
        raise ValueError("theta1 must lie in (0, c1)")
    if not 0.0 < theta2 < c2:
        raise ValueError("theta2 must lie in (0, c2)")
    return settling_time_unperturbed(c1 - theta1, c2 - theta2, p1, v0)


def _split_residual(theta3: float, theta1: float, theta2: float, c3: float,
                    p1: float, p2: float) -> float:
    return (theta3 ** (1.0 - p2) * theta2 ** (p1 - p2) * c3 ** (1.0 - p1)
            - theta1 ** (1.0 - p2) * (1.0 - theta3) ** (p1 - p2))


def solve_residual_split(theta1: float, theta2: float, c3: float,
                         p1: float, p2: float) -> float:
    """Find the split fraction theta3 in (0, 1) that makes the two residual-set
    characterizations coincide.

    The defining function is strictly increasing with opposite signs at the
    interval ends, so bisection always brackets; it halves down to adjacent
    floats.  Near 0 the float theta3 is coarse (subnormal, or pinned at the
    least positive float) and near 1 so is ``1 - theta3``: the V-level is read
    off the term that the float theta3 leaves exact (:func:`residual_levels`).
    """
    if not (theta1 > 0 and theta2 > 0 and c3 > 0):
        raise ValueError("theta1, theta2, c3 must be positive")
    if not 0.0 < p1 < 1.0 or not 0.0 < p2 < p1:
        raise ValueError("require 0 < p2 < p1 < 1")

    lo, hi = 0.0, 1.0
    # down to adjacent floats, at most about 1,100 halvings even for a subnormal root
    while (mid := 0.5 * (lo + hi)) != lo and mid != hi:
        if _split_residual(mid, theta1, theta2, c3, p1, p2) < 0.0:
            lo = mid
        else:
            hi = mid
    # strictly inside (0, 1): the midpoint of 1 and the float below is 1, and a root
    # below the least positive float gives the midpoint 0
    return min(max(mid, math.ulp(0.0)), 1.0 - 1e-16)


class ResidualLevels(NamedTuple):
    """V-levels of the two equivalent residual-set characterizations."""

    from_power_term: float
    from_linear_term: float


def residual_levels(c3: float, theta1: float, theta2: float, theta3: float,
                    p1: float, p2: float) -> ResidualLevels:
    """The two residual-set V-levels, ``inf`` past the float range; they
    coincide at the solved split.  Below 1/2 the float theta3 leaves
    ``1 - theta3`` exact to an ulp, so ``from_linear_term`` is the level to
    read there and ``from_power_term`` above."""
    if not 0.0 < theta3 < 1.0:
        raise ValueError("theta3 must lie in (0, 1)")

    def level(base: float, exponent: float) -> float:
        try:
            return base ** exponent
        except OverflowError:
            return math.inf

    return ResidualLevels(level(theta3 * c3 / theta1, 1.0 / (p1 - p2)),
                          level((1.0 - theta3) * c3 / theta2, 1.0 / (1.0 - p2)))


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Constant-coefficient instantiation of the decrease inequality.

    The decrease coefficients are time varying (they scale with ``L0``); this
    freezes them at a caller-chosen operating point.  When the linear
    coefficient is not positive there (adaptation still dominating) the bound
    is vacuous and reported as infinite rather than erroring out.
    """

    c1: float
    c2: float
    c3: float
    p: float
    p2: float
    V0: float
    settling_time_bound: float | None  # None encodes "infinite"
    residual_V_level: float | None     # None encodes "none"
    theta1: float | None
    theta2: float | None
    theta3: float | None

    def to_dict(self) -> dict:
        return {
            "c1": self.c1, "c2": self.c2, "c3": self.c3,
            "p1": self.p, "p2": self.p2, "V0": self.V0,
            "settling_time_bound": ("infinite" if self.settling_time_bound is None
                                    else self.settling_time_bound),
            "residual_V_level": ("none" if self.residual_V_level is None
                                 else self.residual_V_level),
            "theta1": self.theta1, "theta2": self.theta2, "theta3": self.theta3,
        }


def estimate_convergence(cert: LyapunovCertificate, cfg: GainConfig, v0: float,
                         delta: float, *, L0: float | None = None,
                         L0_dot: float | None = None,
                         theta1: float | None = None,
                         theta2: float | None = None) -> ConvergenceEstimate:
    """Evaluate the settling-time and residual-set formulas at one gain level.

    Defaults freeze the coefficients at ``L0 = L0_init`` with the adaptation
    running at full rate (``L0_dot = kappa``), the most conservative in-run
    instant.  The perturbation exponent is 1/2, which requires ``p1 > 1/2``,
    i.e. ``m > 2``.
    """
    if cert.n1 is None or cert.n3 is None or cert.n4 is None or cert.n2_coeff is None:
        raise ValueError("certificate has no valid constants (a matrix failed the PD check)")
    for name, value in (("v0", v0), ("delta", delta), ("L0", L0), ("L0_dot", L0_dot),
                        ("theta1", theta1), ("theta2", theta2)):
        if value is not None and not (real_setting(value) is not None and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    v0, delta, L0, L0_dot, theta1, theta2 = (  # a numpy scalar as its float: float64 below
        v if v is None else real_setting(v) for v in (v0, delta, L0, L0_dot, theta1, theta2))
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if v0 < 0:
        raise ValueError("V0 must be non-negative")
    L0 = cfg.L0_init if L0 is None else L0
    L0_dot = cfg.kappa if L0_dot is None else L0_dot
    if not (L0 > 0 and L0_dot >= 0):  # the dead-zone rule never lowers L0
        raise ValueError("L0 must be positive and L0_dot non-negative")
    m = cfg.m
    c1 = L0 * cert.n1
    c2 = L0 * cert.n3 - (2.0 * m - 2.0) / m * cert.n4 * L0_dot / L0
    c3 = delta * cert.n2_coeff
    if c3 == math.inf:
        raise ValueError(f"delta={delta!r} overflows the perturbation coefficient c3")
    p1, p2 = cert.p1, 0.5

    if c1 <= 0 or c2 <= 0:
        # adaptation term still dominates: the frozen-coefficient bound is vacuous
        return ConvergenceEstimate(c1=c1, c2=c2, c3=c3, p=p1, p2=p2, V0=v0,
                                   settling_time_bound=None, residual_V_level=None,
                                   theta1=None, theta2=None, theta3=None)
    if c3 == 0.0:
        bound = settling_time_unperturbed(c1, c2, p1, v0)
        return ConvergenceEstimate(c1=c1, c2=c2, c3=c3, p=p1, p2=p2, V0=v0,
                                   settling_time_bound=bound, residual_V_level=0.0,
                                   theta1=None, theta2=None, theta3=None)
    th1 = c1 / 2.0 if theta1 is None else theta1
    th2 = c2 / 2.0 if theta2 is None else theta2
    bound = settling_time_perturbed(c1, c2, c3, p1, p2, v0, th1, th2)
    th3 = solve_residual_split(th1, th2, c3, p1, p2)
    levels = residual_levels(c3, th1, th2, th3, p1, p2)
    level = levels.from_linear_term if th3 < 0.5 else levels.from_power_term
    if level == math.inf:
        raise ValueError(f"c3={c3!r}, theta1={th1!r}, theta2={th2!r} overflow "
                         "the residual-set level")
    return ConvergenceEstimate(c1=c1, c2=c2, c3=c3, p=p1, p2=p2, V0=v0,
                               settling_time_bound=bound, residual_V_level=level,
                               theta1=th1, theta2=th2, theta3=th3)
