"""Fixed-step simulation of the perturbed integrator plant under a sampled
feedback law, disturbance signal generators, and trajectory logging.

The plant is ``x1dot = u + d(t)``.  The control is held constant over each
major step (zero-order hold) while the plant integrates with classical
four-stage Runge-Kutta, the disturbance evaluated at the substage times.
:func:`simulate_closed_loop` is the one loop that steps the plant.  The
observer never acts on the plant, so :func:`simulate_observer` runs over the
stream of an uncontrolled plant run (or a recorded one).  Every step is
logged; ``log_stride`` only thins the returned record.  Everything is
deterministic: identical configs give bit-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .certificate import lyapunov_value, transform_state
from .laws import (
    GainConfig,
    controller_step,
    initial_controller_state,
    initial_observer_state,
    observer_step,
)
from .linalg import SymMatrix


class SineChannel(NamedTuple):
    """One sinusoidal disturbance component: ``a*sin(w t)`` or ``a*cos(w t)``."""

    amplitude: float
    frequency: float
    is_cosine: bool


@dataclass(frozen=True)
class DisturbanceSpec:
    """Closed-form disturbance signal with computable norm bounds."""

    kind: str  # "none" | "constant" | "sinusoid-mix"
    n: int
    constant_value: np.ndarray | None = None
    channels: tuple[SineChannel, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("none", "constant", "sinusoid-mix"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.kind == "constant":
            vec = np.asarray(self.constant_value, dtype=float).copy()
            if vec.shape != (self.n,):
                raise ValueError("constant_value dimension mismatch")
            vec.setflags(write=False)
            object.__setattr__(self, "constant_value", vec)
        if self.kind == "sinusoid-mix":
            if self.channels is None or len(self.channels) != self.n:
                raise ValueError("sinusoid-mix needs one channel per component")
            object.__setattr__(self, "channels",
                               tuple(SineChannel(*c) for c in self.channels))

    @classmethod
    def none(cls, n: int) -> "DisturbanceSpec":
        return cls(kind="none", n=n)

    @classmethod
    def constant(cls, value) -> "DisturbanceSpec":
        value = np.asarray(value, dtype=float)
        return cls(kind="constant", n=value.shape[0], constant_value=value)

    @classmethod
    def sinusoid_mix(cls, channels) -> "DisturbanceSpec":
        channels = tuple(SineChannel(*c) for c in channels)
        return cls(kind="sinusoid-mix", n=len(channels), channels=channels)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "n": self.n}
        if self.kind == "constant":
            out["constant_value"] = self.constant_value.tolist()
        if self.kind == "sinusoid-mix":
            out["channels"] = [
                {"amplitude": c.amplitude, "frequency": c.frequency, "is_cosine": c.is_cosine}
                for c in self.channels
            ]
        return out

    @classmethod
    def from_dict(cls, d: dict, n: int | None = None) -> "DisturbanceSpec":
        kind = d.get("kind")
        if kind == "none":
            dim = d.get("n", n)
            if dim is None:
                raise ValueError("disturbance kind 'none' needs a dimension")
            return cls.none(int(dim))
        if kind == "constant":
            value = d.get("constant_value", d.get("value"))
            if value is None:
                raise ValueError("constant disturbance needs a value vector")
            return cls.constant(value)
        if kind == "sinusoid-mix":
            channels = []
            for ch in d.get("channels", []):
                if isinstance(ch, dict):
                    channels.append((ch["amplitude"], ch["frequency"],
                                     bool(ch.get("is_cosine", False))))
                else:
                    a, w, is_cos = ch
                    channels.append((a, w, bool(is_cos)))
            if not channels:
                raise ValueError("sinusoid-mix disturbance needs channels")
            return cls.sinusoid_mix(channels)
        raise ValueError(f"unknown disturbance kind {kind!r}")


def disturbance_at(spec: DisturbanceSpec, t: float) -> np.ndarray:
    """Evaluate the disturbance at time ``t >= 0``."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if spec.kind == "none":
        return np.zeros(spec.n)
    if spec.kind == "constant":
        return spec.constant_value.copy()
    out = np.empty(spec.n)
    for i, ch in enumerate(spec.channels):
        phase = ch.frequency * t
        out[i] = ch.amplitude * (math.cos(phase) if ch.is_cosine else math.sin(phase))
    return out


def norm_bound(spec: DisturbanceSpec) -> float:
    """Closed-form bound on ``||d(t)||`` over all t."""
    if spec.kind == "none":
        return 0.0
    if spec.kind == "constant":
        return float(np.linalg.norm(spec.constant_value))
    return math.sqrt(sum(c.amplitude**2 for c in spec.channels))


def rate_bound(spec: DisturbanceSpec) -> float:
    """Closed-form bound on ``||ddot(t)||`` over all t."""
    if spec.kind in ("none", "constant"):
        return 0.0
    return math.sqrt(sum((c.amplitude * c.frequency) ** 2 for c in spec.channels))


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, initial state and logging cadence."""

    x1_init: np.ndarray
    dt: float = 1e-3
    horizon: float = 10.0
    singular_tol: float = 1e-12
    log_stride: int = 1

    def __post_init__(self):
        x = np.asarray(self.x1_init, dtype=float).copy()
        x.setflags(write=False)
        object.__setattr__(self, "x1_init", x)
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.horizon > self.dt:
            raise ValueError("horizon must exceed dt")
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        if self.log_stride < 1:
            raise ValueError("log_stride must be >= 1")

    @property
    def n(self) -> int:
        return self.x1_init.shape[0]

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def to_dict(self) -> dict:
        return {
            "x1_init": self.x1_init.tolist(),
            "dt": self.dt,
            "horizon": self.horizon,
            "singular_tol": self.singular_tol,
            "log_stride": self.log_stride,
        }


class SimulationAborted(RuntimeError):
    """Non-finite state encountered; carries the step diagnostics."""

    def __init__(self, step: int, time: float, state: np.ndarray):
        self.step = step
        self.time = time
        self.state = np.array(state)
        super().__init__(
            f"non-finite state at step {step} (t={time:.6g}): {np.array2string(self.state)}"
        )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled record of one run; optional columns are None."""

    times: np.ndarray
    x1: np.ndarray
    u: np.ndarray
    d_true: np.ndarray
    d_hat: np.ndarray | None = None
    L0: np.ndarray | None = None
    V: np.ndarray | None = None

    def __post_init__(self):
        count = self.times.shape[0]
        for name in ("x1", "u", "d_true", "d_hat", "L0", "V"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != count:
                raise ValueError(f"column {name} length mismatch")

    @property
    def n(self) -> int:
        return self.x1.shape[1]

    def thinned(self, stride: int) -> "Trajectory":
        """Every ``stride``-th sample, starting with the first."""
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return replace(self, **{name: col[::stride] for name, col in columns.items()
                                if col is not None})


class ZeroLaw:
    """Zero control; useful for open-loop and observer-only runs."""

    cfg: GainConfig | None = None

    def initial_state(self, n: int):
        return None

    def step(self, x1, state, dt, singular_tol):
        return np.zeros_like(x1), None


class ControllerLaw:
    """Adapter placing the adaptive controller behind the generic law interface."""

    def __init__(self, cfg: GainConfig):
        self.cfg = cfg

    def initial_state(self, n: int):
        return initial_controller_state(self.cfg, n)

    def step(self, x1, state, dt, singular_tol):
        return controller_step(x1, state, self.cfg, dt, singular_tol=singular_tol)


def _rk4_plant_step(x: np.ndarray, u: np.ndarray, d_k: np.ndarray,
                    dist: DisturbanceSpec, t: float, dt: float) -> np.ndarray:
    """One RK4 step of ``x1dot = u + d(t)`` from ``d_k = d(t)``.  Stages 2 and
    3 share the midpoint value; the sum keeps both terms so that the result
    is bitwise that of the textbook four-evaluation form."""
    f1 = u + d_k
    f2 = u + disturbance_at(dist, t + 0.5 * dt)
    f4 = u + disturbance_at(dist, t + dt)
    return x + dt / 6.0 * (f1 + 2.0 * f2 + 2.0 * f2 + f4)


def simulate_closed_loop(law, sim: SimConfig, dist: DisturbanceSpec,
                         lyapunov_P: SymMatrix | None = None) -> Trajectory:
    """Integrate the plant under a sampled feedback law.

    Every step is logged and the record is thinned by ``sim.log_stride`` on
    return.  When a Lyapunov factor is attached the logged V uses the
    transformed state at the gain level in effect at each sample,
    reconstructing the companion coordinate exactly as ``x2 = d - integral``.
    """
    if dist.n != sim.n:
        raise ValueError("disturbance dimension does not match the initial state")
    if lyapunov_P is not None and law.cfg is None:
        raise ValueError("Lyapunov logging needs an adaptive law (it supplies m and L0)")

    n = sim.n
    steps = sim.steps
    times = np.empty(steps)
    x1_log = np.empty((steps, n))
    u_log = np.empty((steps, n))
    d_log = np.empty((steps, n))
    l0_log = np.empty(steps) if law.cfg is not None else None
    v_log = np.empty(steps) if lyapunov_P is not None else None

    x = sim.x1_init.copy()
    state = law.initial_state(n)
    for k in range(steps):
        t = k * sim.dt
        d_k = disturbance_at(dist, t)
        pre = state
        u, state = law.step(x, pre, sim.dt, sim.singular_tol)
        times[k] = t
        x1_log[k] = x
        u_log[k] = u
        d_log[k] = d_k
        if l0_log is not None:
            l0_log[k] = pre.L0
        if v_log is not None:
            xi = transform_state(x, d_k - pre.integral_term, pre.L0,
                                 law.cfg.m, sim.singular_tol)
            v_log[k] = lyapunov_value(xi, lyapunov_P)
        x = _rk4_plant_step(x, u, d_k, dist, t, sim.dt)
        if not np.isfinite(x).all():
            raise SimulationAborted(k, t + sim.dt, x)

    return Trajectory(times=times, x1=x1_log, u=u_log, d_true=d_log,
                      L0=l0_log, V=v_log).thinned(sim.log_stride)


def simulate_observer(cfg: GainConfig, sim: SimConfig, dist: DisturbanceSpec,
                      recorded: Trajectory | None = None) -> Trajectory:
    """Run the disturbance observer over a plant's measurement and control
    stream.

    The observer never acts on the plant, so the stream is a plain plant run:
    by default the uncontrolled plant (zero control) under ``dist``, logged
    at every step; otherwise ``recorded``, which must be sampled at exactly
    ``sim.dt``.  The returned record is thinned by ``sim.log_stride``.
    """
    if recorded is None:
        recorded = simulate_closed_loop(ZeroLaw(), replace(sim, log_stride=1), dist)
    else:
        if recorded.n != sim.n:
            raise ValueError("recorded trajectory dimension mismatch")
        spacing = np.diff(recorded.times)
        if spacing.size and not np.allclose(spacing, sim.dt, rtol=0, atol=1e-9 * sim.dt):
            raise ValueError("recorded trajectory must be sampled at the simulation dt")

    steps = recorded.times.shape[0]
    dhat_log = np.empty((steps, sim.n))
    l0_log = np.empty(steps)
    obs = initial_observer_state(cfg, recorded.x1[0])
    for k in range(steps):
        pre = obs
        d_hat, obs = observer_step(recorded.x1[k], recorded.u[k], pre, cfg, sim.dt,
                                   singular_tol=sim.singular_tol)
        dhat_log[k] = d_hat
        l0_log[k] = pre.L0
        if not np.isfinite(obs.z1).all():
            raise SimulationAborted(k, float(recorded.times[k]) + sim.dt, obs.z1)

    return Trajectory(times=recorded.times, x1=recorded.x1, u=recorded.u,
                      d_true=recorded.d_true, d_hat=dhat_log,
                      L0=l0_log).thinned(sim.log_stride)


def trajectory_columns(traj: Trajectory) -> list[str]:
    """Column names in the fixed export order (absent columns omitted)."""
    n = traj.n
    cols = (["t"]
            + [f"x1{i}" for i in range(1, n + 1)]
            + [f"u{i}" for i in range(1, n + 1)]
            + [f"d{i}" for i in range(1, n + 1)])
    if traj.d_hat is not None:
        cols += [f"dhat{i}" for i in range(1, n + 1)]
    if traj.L0 is not None:
        cols.append("L0")
    if traj.V is not None:
        cols.append("V")
    return cols


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory with 17 significant digits per value so that a
    round-trip through text reproduces the floats bit for bit."""
    blocks = (traj.times, traj.x1, traj.u, traj.d_true, traj.d_hat, traj.L0, traj.V)
    np.savetxt(path, np.column_stack([b for b in blocks if b is not None]),
               fmt="%.17g", delimiter=",", header=",".join(trajectory_columns(traj)),
               comments="")


def load_trajectory_csv(path) -> Trajectory:
    """Inverse of :func:`write_trajectory_csv`."""
    with open(path, "r") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = {name: i for i, name in enumerate(header)}
    n = sum(1 for name in header if name.startswith("x1"))

    def block(prefix):
        idx = [cols[f"{prefix}{i}"] for i in range(1, n + 1)]
        return data[:, idx]

    return Trajectory(
        times=data[:, cols["t"]],
        x1=block("x1"), u=block("u"), d_true=block("d"),
        d_hat=block("dhat") if "dhat1" in cols else None,
        L0=data[:, cols["L0"]] if "L0" in cols else None,
        V=data[:, cols["V"]] if "V" in cols else None,
    )
