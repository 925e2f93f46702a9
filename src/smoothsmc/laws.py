"""Adaptive gain machinery and the discrete feedback laws.

The controller and observer share one structure: a fractional-power direction
term, a linear term, and an integral term, all scaled by four gains that are
power laws of a single non-decreasing scalar ``L0``.  ``m > 2`` gives the
smooth variant; ``m = 2`` recovers the classical super-twisting baseline.

Both laws are the one discrete block :func:`law_step`: gains, integral and
``L0`` advance by explicit Euler once per major step, matching a sampled
digital implementation.
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
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class GainCheck(NamedTuple):
    """Outcome of the gain feasibility inequality."""

    holds: bool
    reason: str  # "certified" | "condition-violated" | "baseline-exempt"
    lhs: float
    rhs: float


def gain_condition_terms(cfg: "GainConfig") -> tuple[Fraction, Fraction]:
    """Both sides of the feasibility inequality in exact rational arithmetic."""
    m = Fraction(cfg.m)
    k1, k2, k3, k4 = (Fraction(cfg.k1), Fraction(cfg.k2), Fraction(cfg.k3), Fraction(cfg.k4))
    lhs = m * m * k3 * k4
    rhs = (m**3 * k3 / (m - 1) + (4 * m * m - 4 * m + 1) * k1 * k1) * k2 * k2
    return lhs, rhs


def check_gain_condition(cfg: "GainConfig") -> GainCheck:
    """Evaluate the certified-gain inequality.

    ``m == 2`` configurations are exempt: the baseline is certified by its own
    theory, not by this inequality, so they report ``baseline-exempt``.
    """
    lhs, rhs = gain_condition_terms(cfg)
    if cfg.m == 2.0:
        return GainCheck(False, "baseline-exempt", float(lhs), float(rhs))
    holds = cfg.m > 2.0 and lhs > rhs
    reason = "certified" if holds else "condition-violated"
    return GainCheck(holds, reason, float(lhs), float(rhs))


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
            if not (is_real_number(value := getattr(self, name)) and 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive, finite number")
        if not (is_real_number(self.m) and 2 <= self.m < math.inf):
            raise ValueError("m must be a finite number >= 2 (m == 2 is the baseline)")
        if not isinstance(self.allow_uncertified, bool):
            raise ValueError("allow_uncertified must be true or false")
        if self.m > 2 and not self.allow_uncertified:
            chk = check_gain_condition(self)
            if not chk.holds:
                raise ValueError(
                    f"gain condition violated ({chk.lhs} <= {chk.rhs}); "
                    "pass allow_uncertified=True to run anyway"
                )


@dataclass(frozen=True)
class AdaptiveGains:
    """The four feedback gains at a given value of L0."""

    L1: float
    L2: float
    L3: float
    L4: float
    L0: float


def gains_from_L0(cfg: GainConfig, L0: float) -> AdaptiveGains:
    """Evaluate the gain power laws at ``L0``."""
    if not L0 > 0:
        raise ValueError("L0 must be positive")
    m = cfg.m
    return AdaptiveGains(
        L1=cfg.k1 * L0 ** ((m - 1.0) / m),
        L2=cfg.k2 * L0,
        L3=cfg.k3 * L0 ** ((2.0 * m - 2.0) / m),
        L4=cfg.k4 * L0 ** 2,
        L0=L0,
    )


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
    """
    if not 0.0 < exponent <= 1.0:
        raise ValueError("exponent must lie in (0, 1]")
    if not singular_tol > 0:
        raise ValueError("singular_tol must be positive")
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    if nrm < singular_tol:
        return np.zeros_like(x)
    return x / nrm**exponent


@dataclass(frozen=True)
class ControllerState:
    """Running integral of the controller law plus the current L0."""

    integral_term: np.ndarray
    L0: float

    def __post_init__(self):
        arr = np.asarray(self.integral_term, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "integral_term", arr)


def initial_controller_state(cfg: GainConfig, n: int) -> ControllerState:
    return ControllerState(integral_term=np.zeros(n), L0=cfg.L0_init)


def law_step(s: np.ndarray, integral: np.ndarray, L0: float, cfg: GainConfig, dt: float,
             singular_tol: float = DEFAULT_SINGULAR_TOL):
    """One sampled step of the adaptive law on the signal ``s``: returns
    ``(y, new_integral, new_L0)`` with ``y = L1*s/||s||**(1/m) + L2*s + integral``.

    The output, the integral increment ``dt*(L3*s/||s||**(2/m) + L4*s)`` and
    the adaptation all see the gains at the pre-update ``L0``; ``L0``
    advances last.  The controller feeds back ``-y`` on ``x1``, the observer
    ``y`` on its innovation.
    """
    g = gains_from_L0(cfg, L0)
    y = g.L1 * unit_power_direction(s, 1.0 / cfg.m, singular_tol) + g.L2 * s + integral
    new_integral = integral + dt * (
        g.L3 * unit_power_direction(s, 2.0 / cfg.m, singular_tol) + g.L4 * s
    )
    return y, new_integral, update_L0(L0, float(np.linalg.norm(s)), cfg, dt)


def controller_step(x1: np.ndarray, state: ControllerState, cfg: GainConfig,
                    dt: float, singular_tol: float = DEFAULT_SINGULAR_TOL):
    """One sampled controller update: returns ``(u, new_state)`` with
    ``u = -(L1*x1/||x1||**(1/m) + L2*x1 + integral)``, the law on ``x1``."""
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != state.integral_term.shape:
        raise ValueError(
            f"dimension mismatch: x1 {x1.shape} vs integral {state.integral_term.shape}"
        )
    y, new_integral, new_L0 = law_step(x1, state.integral_term, state.L0, cfg, dt, singular_tol)
    return -y, ControllerState(integral_term=new_integral, L0=new_L0)


@dataclass(frozen=True)
class ObserverState:
    """Observer internals: auxiliary state z1, last estimate, integral, L0."""

    z1: np.ndarray
    d_hat: np.ndarray
    integral_term: np.ndarray
    L0: float

    def __post_init__(self):
        for name in ("z1", "d_hat", "integral_term"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.z1.shape == self.d_hat.shape == self.integral_term.shape):
            raise ValueError("observer state vectors must share one dimension")


def initial_observer_state(cfg: GainConfig, z1_init: np.ndarray) -> ObserverState:
    z1 = np.asarray(z1_init, dtype=float)
    return ObserverState(z1=z1, d_hat=np.zeros_like(z1),
                         integral_term=np.zeros_like(z1), L0=cfg.L0_init)


def observer_step(x1_measured: np.ndarray, u: np.ndarray, state: ObserverState,
                  cfg: GainConfig, dt: float,
                  singular_tol: float = DEFAULT_SINGULAR_TOL):
    """One sampled observer update: returns ``(d_hat, new_state)``.

    ``d_hat`` is the law on the innovation ``e = x1 - z1`` (measured minus
    auxiliary state), fed back with a plus sign in ``z1 += dt*(u + d_hat)``;
    this makes the error dynamics the stable mirror of the controller loop,
    driven by the disturbance rate.
    """
    x1_measured = np.asarray(x1_measured, dtype=float)
    u = np.asarray(u, dtype=float)
    if x1_measured.shape != state.z1.shape or u.shape != state.z1.shape:
        raise ValueError("dimension mismatch between measurement, control and observer state")
    d_hat, new_integral, new_L0 = law_step(x1_measured - state.z1, state.integral_term,
                                           state.L0, cfg, dt, singular_tol)
    return d_hat, ObserverState(z1=state.z1 + dt * (u + d_hat), d_hat=d_hat,
                                integral_term=new_integral, L0=new_L0)
