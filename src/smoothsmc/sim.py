"""Fixed-step simulation of the perturbed integrator plant under a sampled
feedback law, disturbance signal generators, and trajectory logging.

The plant is ``x1dot = u + d(t)``.  The control is held constant over each
major step (zero-order hold) while the plant integrates with classical
four-stage Runge-Kutta, the disturbance evaluated at the substage times.
One step loop advances a batch of cells at once, one row of a (B, n) array
each: :func:`simulate_controllers` runs one adaptive controller per gain set,
each on its own copy of the plant, and :func:`simulate_observers` one
observer per gain set over a single plant stream (the observer never acts on
the plant).  :func:`simulate_closed_loop` and :func:`simulate_observer` are
the B = 1 cases.  Every row is bitwise what the scalar laws give on their
own.  Every step is logged; ``log_stride`` only thins the returned record.
Everything is deterministic: identical configs give bit-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .laws import GainConfig
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
    """Non-finite state encountered; carries the step diagnostics and the
    index of the aborting cell (its row in the batch)."""

    def __init__(self, step: int, time: float, state: np.ndarray, cell: int = 0):
        self.step = step
        self.time = time
        self.state = np.array(state)
        self.cell = cell
        super().__init__(
            f"non-finite state in cell {cell} at step {step} (t={time:.6g}): "
            f"{np.array2string(self.state)}"
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
    """Zero control; useful for open-loop and observer-only runs.

    A law without a gain configuration is stepped through ``step``, which
    takes the (B, n) state of the batch and returns ``(u, new_state)``.
    """

    cfg: GainConfig | None = None

    def initial_state(self, n: int):
        return None

    def step(self, x1, state, dt, singular_tol):
        return np.zeros_like(x1), None


class ControllerLaw:
    """The adaptive controller of one gain configuration, for
    :func:`simulate_closed_loop`.  The loop runs it from ``cfg`` as one row
    of the batch; :func:`laws.controller_step` is its scalar reference."""

    def __init__(self, cfg: GainConfig):
        self.cfg = cfg


def _disturbance_series(dist: DisturbanceSpec, times: np.ndarray, dt: float):
    """``d`` at ``t_k``, ``t_k + dt/2`` and ``t_k + dt`` for every step, each
    an array of shape (steps, n) (``t_k + dt`` is not ``t_{k+1}`` in floating
    point).  A constant disturbance gives one array three times."""
    if dist.kind != "sinusoid-mix":
        value = dist.constant_value if dist.kind == "constant" else np.zeros(dist.n)
        series = np.tile(value, (times.size, 1))
        return series, series, series

    def at(t):
        out = np.empty((t.size, dist.n))
        for i, ch in enumerate(dist.channels):
            out[:, i] = ch.amplitude * (np.cos if ch.is_cosine else np.sin)(ch.frequency * t)
        return out

    return at(times), at(times + 0.5 * dt), at(times + dt)


def _step_loop(sim: SimConfig, dist: DisturbanceSpec, cfgs=(), law=None,
               stream: Trajectory | None = None, lyapunov_P=None) -> list[Trajectory]:
    """The one step loop: advances B cells at once, one row of a (B, n)
    array each, and returns one full-rate record per cell.

    Without ``stream`` every row is a copy of the plant, driven by the
    adaptive controller ``cfgs[b]``, or, when ``cfgs`` is empty, by
    ``law.step`` (one row).  With ``stream`` every row is the adaptive
    observer ``cfgs[b]`` over that one measurement and control stream.  The
    time grid, the disturbance and the stream are shared by the batch.

    Each row is bitwise the scalar reference (``laws.controller_step`` or
    ``laws.observer_step``, RK4 plant, ``lyapunov_value``): one norm
    ``sqrt(vecdot)``, which is ``np.linalg.norm`` bit for bit; every power
    of the spec as Python's float ``**`` per cell, because numpy's
    vectorised power is not libm ``pow``; V summed in ``lyapunov_value``'s
    order.  Gains depend on L0 alone, so they are recomputed only after a
    cell adapted.
    """
    if dist.n != sim.n:
        raise ValueError("disturbance dimension does not match the initial state")
    if not cfgs and (law is None or stream is not None):
        raise ValueError("a batch needs at least one gain configuration")
    n, dt, tol = sim.n, sim.dt, sim.singular_tol
    rows = max(len(cfgs), 1)
    if stream is None:
        times = np.arange(sim.steps) * dt
        d_now, d_mid, d_end = _disturbance_series(dist, times, dt)
        X = np.tile(sim.x1_init, (rows, 1))
        x1_log = np.empty((rows, times.size, n))
        u_log = np.empty((rows, times.size, n))
        state = None if cfgs else law.initial_state(n)
    else:
        times = stream.times
        Z = np.tile(stream.x1[0], (rows, 1))
        dhat_log = np.empty((rows, times.size, n))
    if cfgs:
        k1, k2, k3, k4, eps, kappa_dt = (np.array(col) for col in zip(*(
            (c.k1, c.k2, c.k3, c.k4, c.epsilon, c.kappa * dt) for c in cfgs)))
        e1 = [(c.m - 1.0) / c.m for c in cfgs]
        e3 = [(2.0 * c.m - 2.0) / c.m for c in cfgs]
        f1 = [1.0 / c.m for c in cfgs]
        f2 = [2.0 / c.m for c in cfgs]
        L0 = np.array([c.L0_init for c in cfgs])
        I = np.zeros((rows, n))
        l0_log = np.empty((rows, times.size))
        stale = True
    v_log = None
    if lyapunov_P is not None and any(p is not None for p in lyapunov_P):
        if any(p is not None and p.entries.shape != (3, 3) for p in lyapunov_P):
            raise ValueError("P_block must be a 3x3 factor")
        P = np.array([np.zeros((3, 3)) if p is None else p.entries for p in lyapunov_P])
        p00, p11, p22 = P[:, 0, 0], P[:, 1, 1], P[:, 2, 2]
        p01, p02, p12 = 2.0 * P[:, 0, 1], 2.0 * P[:, 0, 2], 2.0 * P[:, 1, 2]
        v_log = np.empty((rows, times.size))
    dt6 = dt / 6.0

    # A diverging cell overflows before it turns non-finite; the check at the
    # end of each step reports it, so numpy's warnings are not needed.
    with np.errstate(all="ignore"):
        for k in range(times.size):
            S = X if stream is None else stream.x1[k] - Z
            if cfgs:
                if stale:
                    l0 = L0.tolist()
                    A1 = np.array(list(map(pow, l0, e1)))
                    L1 = (k1 * A1)[:, None]
                    L2 = (k2 * L0)[:, None]
                    L3 = (k3 * np.array(list(map(pow, l0, e3))))[:, None]
                    L4 = (k4 * np.array([v ** 2 for v in l0]))[:, None]
                nrm = np.sqrt(np.vecdot(S, S))
                r = nrm.tolist()
                D1 = S / np.array(list(map(pow, r, f1)))[:, None]
                D2 = S / np.array(list(map(pow, r, f2)))[:, None]
                singular = nrm < tol
                if singular.any():
                    D1[singular] = 0.0
                    D2[singular] = 0.0
                Y = L1 * D1 + L2 * S + I
                if v_log is not None:
                    xi1, xi2, xi3 = A1[:, None] * D1, L0[:, None] * S, d_now[k] - I
                    v_log[:, k] = (p00 * np.vecdot(xi1, xi1) + p01 * np.vecdot(xi1, xi2)
                                   + p02 * np.vecdot(xi1, xi3) + p11 * np.vecdot(xi2, xi2)
                                   + p12 * np.vecdot(xi2, xi3) + p22 * np.vecdot(xi3, xi3))
                l0_log[:, k] = L0
                I = I + dt * (L3 * D2 + L4 * S)
                adapt = nrm >= eps
                stale = adapt.any()
                if stale:
                    L0 = np.where(adapt, L0 + kappa_dt, L0)
            if stream is None:
                if cfgs:
                    U = -Y  # bitwise -L1*D1 - L2*x - I: rounding is symmetric
                else:
                    U, state = law.step(X, state, dt, tol)
                x1_log[:, k] = X
                u_log[:, k] = U
                F2 = 2.0 * (U + d_mid[k])
                X = new = X + dt6 * (U + d_now[k] + F2 + F2 + (U + d_end[k]))
            else:
                dhat_log[:, k] = Y
                Z = new = Z + dt * (stream.u[k] + Y)
            if not np.isfinite(new).all():
                cell = int(np.flatnonzero(~np.isfinite(new).all(axis=1))[0])
                raise SimulationAborted(k, float(times[k]) + dt, new[cell], cell)

    if stream is not None:
        return [Trajectory(times=times, x1=stream.x1, u=stream.u, d_true=stream.d_true,
                           d_hat=dhat_log[b], L0=l0_log[b]) for b in range(rows)]
    return [Trajectory(times=times, x1=x1_log[b], u=u_log[b], d_true=d_now,
                       L0=l0_log[b] if cfgs else None,
                       V=v_log[b] if v_log is not None and lyapunov_P[b] is not None else None)
            for b in range(rows)]


def simulate_controllers(cfgs, sim: SimConfig, dist: DisturbanceSpec,
                         lyapunov_P=None) -> list[Trajectory]:
    """Run one adaptive controller per gain configuration, each on its own
    copy of the plant, as one batch; one record per cell, thinned by
    ``sim.log_stride``.  ``lyapunov_P`` holds one P factor (or None) per cell;
    a cell with one logs V at the transformed state and the gain level in
    effect at each sample, with the companion coordinate ``x2 = d - integral``.
    """
    if lyapunov_P is not None and len(lyapunov_P) != len(cfgs):
        raise ValueError("one Lyapunov factor (or None) per cell")
    trajs = _step_loop(sim, dist, cfgs=list(cfgs), lyapunov_P=lyapunov_P)
    return [traj.thinned(sim.log_stride) for traj in trajs]


def simulate_observers(cfgs, sim: SimConfig, dist: DisturbanceSpec,
                       recorded: Trajectory | None = None) -> list[Trajectory]:
    """Run one disturbance observer per gain configuration over one plant's
    measurement and control stream, as one batch.

    The observer never acts on the plant, so the stream is a plain plant run:
    by default the uncontrolled plant (zero control) under ``dist``, computed
    once for the batch; otherwise ``recorded``, which must be sampled at
    exactly ``sim.dt``.  The records are thinned by ``sim.log_stride``.
    """
    if recorded is None:
        recorded = _step_loop(sim, dist, law=ZeroLaw())[0]
    else:
        if recorded.n != sim.n:
            raise ValueError("recorded trajectory dimension mismatch")
        spacing = np.diff(recorded.times)
        if spacing.size and not np.allclose(spacing, sim.dt, rtol=0, atol=1e-9 * sim.dt):
            raise ValueError("recorded trajectory must be sampled at the simulation dt")
    trajs = _step_loop(sim, dist, cfgs=list(cfgs), stream=recorded)
    return [traj.thinned(sim.log_stride) for traj in trajs]


def simulate_closed_loop(law, sim: SimConfig, dist: DisturbanceSpec,
                         lyapunov_P: SymMatrix | None = None) -> Trajectory:
    """Integrate the plant under a sampled feedback law: the B = 1 case of
    :func:`simulate_controllers` for an adaptive law (one with a ``cfg``);
    a law without one (``ZeroLaw``) is stepped through its ``step``.
    """
    if law.cfg is not None:
        return simulate_controllers([law.cfg], sim, dist, [lyapunov_P])[0]
    if lyapunov_P is not None:
        raise ValueError("Lyapunov logging needs an adaptive law (it supplies m and L0)")
    return _step_loop(sim, dist, law=law)[0].thinned(sim.log_stride)


def simulate_observer(cfg: GainConfig, sim: SimConfig, dist: DisturbanceSpec,
                      recorded: Trajectory | None = None) -> Trajectory:
    """The B = 1 case of :func:`simulate_observers`."""
    return simulate_observers([cfg], sim, dist, recorded)[0]


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
