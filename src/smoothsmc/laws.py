"""Adaptive gain machinery and the discrete feedback laws.

The controller and observer share one structure: a fractional-power direction
term, a linear term, and an integral term, all scaled by four gains that are
power laws of a single non-decreasing scalar ``L0``.  ``m > 2`` gives the
smooth variant; ``m = 2`` recovers the classical super-twisting baseline.

Both laws are the one discrete block ``law_step(s, r, integral, gains, m,
dt, singular_tol) -> (y, new_integral)`` on Python float lists, then
:func:`update_L0`: integral and ``L0`` advance by explicit Euler once per
major step, as a sampled digital implementation does.
:func:`controller_step`, :func:`observer_step` (the readable reference,
taking and returning plain values) and the simulator's single-cell kernel
call it; ``sim._array_kernel`` is its one vectorised copy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

DEFAULT_SINGULAR_TOL = 1e-12


def is_real_number(value) -> bool:
    """True for a real number other than a bool (JSON ``true`` is no gain)."""
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def real_setting(value):
    """``value`` as a config stores it, or None if it is not a real number
    that a float can hold.  A Python float or int is kept as given, so an
    integer keeps its JSON form; any other real, such as a numpy scalar,
    becomes ``float(value)``, so that all arithmetic on it is float64."""
    if type(value) is float:
        return value
    if not is_real_number(value):
        return None
    try:
        as_float = float(value)
    except OverflowError:  # an int too large for a float
        return None
    return value if type(value) is int else as_float


class GainCheck(NamedTuple):
    """Outcome of the gain feasibility inequality."""

    holds: bool
    reason: str  # "certified" | "condition-violated" | "baseline-exempt"
    lhs: float
    rhs: float


def gain_condition_terms(cfg: "GainConfig") -> tuple[Fraction, Fraction]:
    """Both sides of the feasibility inequality, ``m^2 k3 k4`` and ``(m^3 k3/(m-1)
    + (2m-1)^2 k1^2) k2^2``, exactly: integers over one denominator per side."""
    (m, dm), (k1, d1), (k2, d2), (k3, d3), (k4, d4) = (
        float(v).as_integer_ratio() for v in (cfg.m, cfg.k1, cfg.k2, cfg.k3, cfg.k4))
    lhs = Fraction(m * m * k3 * k4, dm * dm * d3 * d4)
    rhs = Fraction((m**3 * k3 * d1 * d1 + (2 * m - dm) ** 2 * k1 * k1 * d3 * (m - dm)) * k2 * k2,
                   dm * dm * d3 * (m - dm) * d1 * d1 * d2 * d2)
    return lhs, rhs


def gain_overflow(cfg: "GainConfig", what: str) -> ValueError:
    """The error for gains whose ``what`` leaves the float range."""
    gains = ", ".join(f"{name}={getattr(cfg, name)!r}" for name in ("m", "k1", "k2", "k3", "k4"))
    return ValueError(f"gains {gains} overflow {what}")


def check_gain_condition(cfg: "GainConfig") -> GainCheck:
    """Evaluate the certified-gain inequality.

    ``m == 2`` configurations are exempt: the baseline is certified by its own
    theory, not by this inequality, so they report ``baseline-exempt``.
    """
    lhs, rhs = gain_condition_terms(cfg)
    try:
        lhs_f, rhs_f = float(lhs), float(rhs)
    except OverflowError:
        raise gain_overflow(cfg, "the gain condition") from None
    holds = cfg.m > 2.0 and lhs > rhs
    reason = "baseline-exempt" if cfg.m == 2.0 else "certified" if holds else "condition-violated"
    return GainCheck(holds, reason, lhs_f, rhs_f)


@dataclass(frozen=True)
class GainConfig:
    """Parameters of the gain power laws and the adaptation rule.

    An ``m > 2`` configuration must satisfy the gain feasibility inequality
    unless ``allow_uncertified=True`` flags it explicitly; such runs are
    tagged uncertified in reports rather than rejected.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    m: float
    kappa: float
    epsilon: float = 1e-3
    L0_init: float = 1.0
    allow_uncertified: bool = False

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "k4", "kappa", "epsilon", "L0_init"):
            value = real_setting(getattr(self, name))
            if not (value is not None and 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive, finite number")
            object.__setattr__(self, name, value)
        m = real_setting(self.m)
        if not (m is not None and 2 <= m < math.inf):
            raise ValueError("m must be a finite number >= 2 (m == 2 is the baseline)")
        object.__setattr__(self, "m", m)
        if not isinstance(self.allow_uncertified, bool):
            raise ValueError("allow_uncertified must be true or false")
        if self.m > 2 and not self.allow_uncertified:
            chk = check_gain_condition(self)
            if not chk.holds:
                raise ValueError(
                    f"gain condition violated ({chk.lhs} <= {chk.rhs}); "
                    "pass allow_uncertified=True to run anyway"
                )


class AdaptiveGains(NamedTuple):
    """The four feedback gains at a given value of L0 (a named tuple: the
    single-cell kernel builds it at every step that moves L0, and a frozen
    dataclass costs about twice as much to build)."""

    L1: float
    L2: float
    L3: float
    L4: float


def gain_scales(m: float, L0: float) -> tuple[float, float, float, float]:
    """The powers of ``L0`` that scale ``k1``, ``k2``, ``k3`` and ``k4`` into
    ``L1`` to ``L4``, by Python's float ``**`` (libm ``pow``, which numpy's
    vectorised power is not); ``OverflowError`` past the float range."""
    return L0 ** ((m - 1.0) / m), L0, L0 ** ((2.0 * m - 2.0) / m), L0 ** 2


def gains_from_L0(cfg: GainConfig, L0: float) -> AdaptiveGains:
    """Evaluate the gain power laws at ``L0``, refusing gains past the float range."""
    if not L0 > 0:
        raise ValueError("L0 must be positive")
    try:
        s1, s2, s3, s4 = gain_scales(cfg.m, L0)
        gains = AdaptiveGains(cfg.k1 * s1, cfg.k2 * s2, cfg.k3 * s3, cfg.k4 * s4)
    except OverflowError:  # a power of L0 past the float range (a product is inf)
        gains = None
    if gains is None or math.inf in gains:
        raise gain_overflow(cfg, f"the adaptive gains at L0 = {L0!r}")
    return gains


def update_L0(L0: float, x1_norm: float, cfg: GainConfig, dt: float) -> float:
    """One Euler step of the dead-zone adaptation: grow at rate kappa while
    the driving norm is at or above epsilon, freeze inside the dead zone."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if x1_norm >= cfg.epsilon:
        return L0 + cfg.kappa * dt
    return L0


def unit_power_direction(x: np.ndarray, exponent: float,
                         singular_tol: float = DEFAULT_SINGULAR_TOL) -> np.ndarray:
    """``x / ||x||**exponent`` with zero-vector regularization below the tolerance.

    The zero branch keeps the right-hand side bounded at the origin, where the
    fractional power is undefined.  Exponent 1 (the unit-vector case the m=2
    baseline needs) is admitted; the result then has constant norm 1 away from
    the origin, which is the structural source of baseline chattering.
    The norm is ``np.linalg.norm(x, axis=-1)``, an elementwise sum, so that a
    record's V (``certificate.lyapunov_series``) rounds as this does.
    """
    if not 0.0 < exponent <= 1.0:
        raise ValueError("exponent must lie in (0, 1]")
    if not singular_tol > 0:
        raise ValueError("singular_tol must be positive")
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x, axis=-1))
    if nrm < singular_tol:
        return np.zeros_like(x)
    return x / nrm**exponent


def law_step(s: list, r: float, integral: list, gains: AdaptiveGains, m: float, dt: float,
             singular_tol: float = DEFAULT_SINGULAR_TOL) -> tuple[list, list]:
    """One sampled step of the adaptive law on the signal ``s`` (a float
    list) of norm ``r``, at the pre-update ``gains``: returns the lists
    ``y = (L1*s/r**(1/m) + L2*s) + integral`` and ``integral +
    dt*(L3*s/r**(2/m) + L4*s)``, each direction term +0.0 below
    ``singular_tol``.  The caller then advances L0 (:func:`update_L0`).
    The controller feeds back ``-y`` on ``x1``, the observer ``y`` on its
    innovation."""
    L1, L2, L3, L4 = gains
    if r < singular_tol:  # a +0.0 direction, whatever the sign of v
        return ([L1 * 0.0 + L2 * v + i for v, i in zip(s, integral)],
                [i + dt * (L3 * 0.0 + L4 * v) for v, i in zip(s, integral)])
    q1, q2 = r ** (1.0 / m), r ** (2.0 / m)
    return ([L1 * (v / q1) + L2 * v + i for v, i in zip(s, integral)],
            [i + dt * (L3 * (v / q2) + L4 * v) for v, i in zip(s, integral)])


def controller_step(x1: np.ndarray, integral: np.ndarray, L0: float, cfg: GainConfig,
                    dt: float, singular_tol: float = DEFAULT_SINGULAR_TOL):
    """One sampled controller update: returns ``(u, new_integral, new_L0)``
    with ``u = -(L1*x1/||x1||**(1/m) + L2*x1 + integral)``, the law on ``x1``."""
    x1, integral = np.asarray(x1, dtype=float), np.asarray(integral, dtype=float)
    if x1.shape != integral.shape:
        raise ValueError(f"dimension mismatch: x1 {x1.shape} vs integral {integral.shape}")
    r = float(np.linalg.norm(x1))
    y, new_integral = law_step(x1.tolist(), r, integral.tolist(), gains_from_L0(cfg, L0),
                               cfg.m, dt, singular_tol)
    return -np.array(y), np.array(new_integral), update_L0(L0, r, cfg, dt)


def observer_step(x1_measured: np.ndarray, u: np.ndarray, z1: np.ndarray, integral: np.ndarray,
                  L0: float, cfg: GainConfig, dt: float,
                  singular_tol: float = DEFAULT_SINGULAR_TOL):
    """One sampled observer update: returns ``(d_hat, new_z1, new_integral, new_L0)``.

    ``d_hat`` is the law on the innovation ``e = x1 - z1`` (measured minus
    auxiliary state), fed back with a plus sign in ``z1 += dt*(u + d_hat)``;
    this makes the error dynamics the stable mirror of the controller loop,
    driven by the disturbance rate.
    """
    x1_measured, u, z1, integral = (np.asarray(v, dtype=float)
                                    for v in (x1_measured, u, z1, integral))
    if not x1_measured.shape == u.shape == z1.shape == integral.shape:
        raise ValueError("dimension mismatch between measurement, control and observer state")
    e = x1_measured - z1
    r = float(np.linalg.norm(e))
    y, new_integral = law_step(e.tolist(), r, integral.tolist(), gains_from_L0(cfg, L0),
                               cfg.m, dt, singular_tol)
    d_hat = np.array(y)
    return d_hat, z1 + dt * (u + d_hat), np.array(new_integral), update_L0(L0, r, cfg, dt)
