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
from itertools import chain
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
from .linalg import EigenSummary, SymMatrix, _mirrored3, eig_sym


def _symmetric(cfg: GainConfig, *triangles: list) -> tuple[SymMatrix, ...]:
    """The blocks, mirrored from their upper triangles, six Python floats row by row, refused
    by name if an entry is not finite: float ``*`` and ``/`` overflow to inf, ``0 * inf`` is NaN."""
    if not all(map(math.isfinite, chain.from_iterable(triangles))):
        raise gain_overflow(cfg, "the certificate blocks")
    return tuple(_mirrored3(*triangle) for triangle in triangles)


def build_p_block(cfg: GainConfig) -> SymMatrix:
    """3x3 factor of the Lyapunov weight matrix P, positive definite for every
    k1-k4 > 0 and m > 1: ``2P = diag(2m k3/(m-1), 2 k4, 1) + v v'`` with
    ``v = (k1, k2, -1)``, a positive diagonal plus a rank-one square."""
    k1, k2, k3, k4, m = cfg.k1, cfg.k2, cfg.k3, cfg.k4, cfg.m
    return _symmetric(cfg, [0.5 * x for x in (2.0 * m / (m - 1.0) * k3 + k1 * k1, k1 * k2, -k1,
                                             2.0 * k4 + k2 * k2, -k2, 2.0)])[0]


def build_q_block(cfg: GainConfig) -> SymMatrix:
    """Diagonal 3x3 factor bounding the adaptation coupling term, positive
    definite for every k1-k4 > 0 and m > 1: each entry is a sum of positive terms."""
    k1, k2, k3, k4, m = cfg.k1, cfg.k2, cfg.k3, cfg.k4, cfg.m
    q1 = 2.0 * m / (m - 1.0) * k3 + k1 * k1 + (2.0 * m - 1.0) * k1 * k2 / (2.0 * (m - 1.0)) + k1 / 2.0
    q2 = m / (2.0 * (m - 1.0)) * (4.0 * k4 + 2.0 * k2 * k2 + k2) + (2.0 * m - 1.0) * k1 * k2 / (2.0 * (m - 1.0))
    q3 = k1 / 2.0 + m * k2 / (2.0 * (m - 1.0))
    return _symmetric(cfg, [q1, 0.0, 0.0, q2, 0.0, q3])[0]


def build_omega_blocks(cfg: GainConfig) -> tuple[SymMatrix, SymMatrix]:
    """3x3 factors of the two dissipation quadratic forms.

    Both being positive definite certifies strict Lyapunov decrease of the
    unperturbed loop (at fixed L0); for k1-k4 > 0 and m > 1 that holds
    exactly when the gain feasibility inequality does:

    * Omega2 always is: ``Omega2/k2 = diag(a, k4, 0) + w w'`` with
      ``a = k3 + k1^2 (3m-2)/m`` and ``w = (0, k2, -1)``, so
      ``x' (Omega2/k2) x = a x0^2 + k4 x1^2 + (k2 x1 - x2)^2 > 0`` for ``x != 0``.
    * Omega1 is exactly when the inequality holds.  Write
      ``(m/k1) Omega1 = [[A, b], [b', m-1]]``; as ``m - 1 > 0`` it is positive
      definite exactly when its Schur complement ``S = A - b b'/(m-1)`` is.
      By ``(3m-1)(m-1) - (2m-1)^2 = -m^2``,
      ``S = [[m k3, -(2m-1) k1 k2], [-(2m-1) k1 k2, m k4 - m^2 k2^2/(m-1)]]``,
      whose ``S11 > 0``, so S is positive definite exactly when ``det S > 0``:
      ``m^2 k3 k4 > (m^3 k3/(m-1) + (2m-1)^2 k1^2) k2^2``, the inequality
      that :func:`check_gain_condition` decides on integers.
    """
    k1, k2, k3, k4, m = cfg.k1, cfg.k2, cfg.k3, cfg.k4, cfg.m
    omega1 = [(k1 / m) * x for x in (k3 * m + k1 * k1 * (m - 1.0), 0.0, -k1 * (m - 1.0),
                                     k4 * m + k2 * k2 * (3.0 * m - 1.0), -k2 * (2.0 * m - 1.0), m - 1.0)]
    omega2 = [k2 * x for x in (k3 + k1 * k1 * (3.0 * m - 2.0) / m, 0.0, 0.0, k4 + k2 * k2, -k2, 1.0)]
    return _symmetric(cfg, omega1, omega2)


def transform_state(x1: np.ndarray, x2: np.ndarray, L0: float, m: float,
                    singular_tol: float = DEFAULT_SINGULAR_TOL) -> tuple:
    """Map plant coordinates ``(x1, x2)`` at gain level ``L0`` to ``xi = (xi1, xi2, xi3)``.

    ``xi1`` extends continuously to zero at the origin (its norm scales as
    ``||x1||**((m-1)/m)``), so the same regularization as the laws applies.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    xi1 = L0 ** ((m - 1.0) / m) * unit_power_direction(x1, 1.0 / m, singular_tol)
    return xi1, L0 * x1, x2


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


def lyapunov_value(xi: tuple, P_block: SymMatrix) -> float:
    """``xi' (P (x) I_n) xi`` of ``(xi1, xi2, xi3)``, evaluated blockwise from the 3x3 factor."""
    return float(_quadratic_form(P_block, *xi))


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


@dataclass(frozen=True, slots=True)
class LyapunovCertificate:
    """The assembled certificate data for one gain configuration.

    ``n2_coeff`` omits the unknown disturbance bound: the full coefficient of
    the ``V**(1/2)`` perturbation term is ``delta * n2_coeff``.  The blocks
    are positive definite exactly when the gain condition holds (P, Q and
    Omega2 always, Omega1 then), so ``all_pd`` and ``certified`` read it, and
    the n constants are ``None`` exactly when the gains are uncertified, never
    silent NaNs.  The eigenvalues and n constants are float readings of the
    rounded blocks: where a block underflows or is ill-conditioned, a
    certified set's smallest eigenvalue, and the constant it gives, may read
    ``<= 0``.
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

    def _by_name(self, suffix: str) -> dict:
        return {name: getattr(self, f"{name}_{suffix}") for name in ("P", "Q", "Omega1", "Omega2")}

    @property
    def all_pd(self) -> bool:
        return self.gain_condition.holds

    @property
    def certified(self) -> bool:
        return self.gain_condition.holds

    def to_dict(self) -> dict:
        return {
            "gain_condition": self.gain_condition._asdict(),
            "p1": self.p1,
            "n1": self.n1,
            "n2_coeff": self.n2_coeff,
            "n3": self.n3,
            "n4": self.n4,
            "positive_definite": {"P": True, "Q": True, "Omega1": self.all_pd, "Omega2": True},
            "eigenvalues": {
                name: {"min": eig.lambda_min, "max": eig.lambda_max}
                for name, eig in self._by_name("eig").items()
            },
            "blocks": {name: b.tolist() for name, b in self._by_name("block").items()},
        }


def build_certificate(cfg: GainConfig) -> LyapunovCertificate:
    """Assemble the certificate for an ``m > 2`` configuration; gains whose
    blocks, gain condition or constants leave the float range are refused by
    name (:func:`gain_overflow`).

    The gain condition is the one decision: P, Q and Omega2 are positive
    definite for every such gain set, and Omega1 exactly when the condition
    holds (the proofs are in :func:`build_p_block`, :func:`build_q_block` and
    :func:`build_omega_blocks`), so the n constants are computed exactly then.
    No float threshold on a spectrum decides anything here."""
    if cfg.m <= 2:
        raise ValueError("the certificate requires m > 2 (the baseline is exempt)")
    P, Q = build_p_block(cfg), build_q_block(cfg)
    Omega1, Omega2 = build_omega_blocks(cfg)
    P_eig, Q_eig, Omega1_eig, Omega2_eig = eigs = tuple(map(eig_sym, (P, Q, Omega1, Omega2)))
    gain_condition = check_gain_condition(cfg)
    p1 = (2.0 * cfg.m - 3.0) / (2.0 * cfg.m - 2.0)
    if gain_condition.holds:
        n1 = Omega1_eig.lambda_min / P_eig.lambda_max**p1
        n2_coeff = math.sqrt(cfg.k1**2 + cfg.k2**2 + 4.0) / math.sqrt(P_eig.lambda_min)
        n3 = Omega2_eig.lambda_min / P_eig.lambda_max
        n4 = Q_eig.lambda_max / (2.0 * P_eig.lambda_min)
        if not all(map(math.isfinite, (n1, n2_coeff, n3, n4))):
            raise gain_overflow(cfg, "the certificate constants")
    else:
        n1 = n2_coeff = n3 = n4 = None
    return LyapunovCertificate(P, Q, Omega1, Omega2, p1, n1, n2_coeff, n3, n4,
                               gain_condition, *eigs)


def _settling_time(c1: float, c2: float, p: float, v0: float, named: tuple) -> float:
    """The bound of the two formulas below, refused past the float range by the
    caller's ``named`` (c1, c2): subnormal c1, c2 overflow 1/(c2 (1-p))."""
    if v0 < 0:
        raise ValueError("V0 must be non-negative")
    bound = 0.0 if v0 == 0.0 else math.log1p(c2 * v0 ** (1.0 - p) / c1) / (c2 * (1.0 - p))
    if not math.isfinite(bound):
        raise ValueError("c1={!r}, c2={!r}, v0={!r} overflow the settling-time bound"
                         .format(*named, v0))
    return bound


def settling_time_unperturbed(c1: float, c2: float, p: float, v0: float) -> float:
    """Settling-time bound for ``Vdot <= -c1 V**p - c2 V``."""
    if not (c1 > 0 and c2 > 0):
        raise ValueError("c1 and c2 must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return _settling_time(c1, c2, p, v0, (c1, c2))


def settling_time_perturbed(c1: float, c2: float, c3: float, p1: float, p2: float,
                            v0: float, theta1: float, theta2: float) -> float:
    """Settling-time bound into the residual set for
    ``Vdot <= -c1 V**p1 - c2 V + c3 V**p2``: the unperturbed bound at
    ``(c1 - theta1, c2 - theta2)``."""
    if not (c1 > 0 and c2 > 0 and c3 > 0):
        raise ValueError("c1, c2, c3 must be positive")
    if not 0.0 < p1 < 1.0 or not 0.0 < p2 < p1:
        raise ValueError("require 0 < p2 < p1 < 1")
    _check_split_range(theta1, theta2, c1, c2)
    return _settling_time(c1 - theta1, c2 - theta2, p1, v0, (c1, c2))


def _check_split_range(theta1: float | None, theta2: float | None, c1: float, c2: float) -> None:
    """The residual split's range rule: each given theta lies in (0, its c)."""
    for name, value, c in (("theta1", theta1, c1), ("theta2", theta2, c2)):
        if value is not None and not 0.0 < value < c:
            raise ValueError(f"{name} must lie in (0, c{name[-1]})")


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
    i.e. ``m > 2``.  ``theta1`` and ``theta2`` split the residual set, so
    they are refused where there is none to split: where the bound is
    vacuous (``c1`` or ``c2`` not positive) or unperturbed (``c3 = 0``).
    A decrease coefficient (``c1``, ``c2``), perturbation coefficient
    (``c3``), settling-time bound or residual-set level past the float range
    is refused, not reported as infinite.
    """
    if not cert.all_pd:
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
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError(f"L0={L0!r}, L0_dot={L0_dot!r} overflow the decrease coefficients")
    c3 = delta * cert.n2_coeff
    if c3 == math.inf:
        raise ValueError(f"delta={delta!r} overflows the perturbation coefficient c3")
    p1, p2 = cert.p1, 0.5
    split = [name for name, value in (("theta1", theta1), ("theta2", theta2)) if value is not None]
    if split:  # a split that the estimate never reads is refused, not dropped
        unread = [f"c{i} = {c!r} is not positive, so the bound is vacuous"
                  for i, c in ((1, c1), (2, c2)) if not c > 0]
        if c3 == 0.0:
            unread.append("delta = 0 leaves no residual set to split")
        if unread:
            raise ValueError(f"{', '.join(split)}: the residual split is never read: "
                             + "; ".join(unread))
        # the formula's rule, before solve_residual_split refuses the split in other words
        _check_split_range(theta1, theta2, c1, c2)

    th1 = th2 = th3 = None
    if c1 <= 0 or c2 <= 0:
        # adaptation term still dominates: the frozen-coefficient bound is vacuous
        bound = level = None
    elif c3 == 0.0:
        bound, level = settling_time_unperturbed(c1, c2, p1, v0), 0.0
    else:
        th1 = c1 / 2.0 if theta1 is None else theta1
        th2 = c2 / 2.0 if theta2 is None else theta2
        th3 = solve_residual_split(th1, th2, c3, p1, p2)
        levels = residual_levels(c3, th1, th2, th3, p1, p2)
        level = levels.from_linear_term if th3 < 0.5 else levels.from_power_term
        if level == math.inf:
            raise ValueError(f"c3={c3!r}, theta1={th1!r}, theta2={th2!r} overflow "
                             "the residual-set level")
        bound = settling_time_perturbed(c1, c2, c3, p1, p2, v0, th1, th2)
    return ConvergenceEstimate(c1=c1, c2=c2, c3=c3, p=p1, p2=p2, V0=v0,
                               settling_time_bound=bound, residual_V_level=level,
                               theta1=th1, theta2=th2, theta3=th3)
