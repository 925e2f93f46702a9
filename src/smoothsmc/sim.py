"""Fixed-step simulation of the perturbed integrator plant under a sampled
feedback law, disturbance signal generators, and trajectory logging.

The plant is ``x1dot = u + d(t)``.  The control is held constant over each
major step (zero-order hold) while the plant integrates with classical
four-stage Runge-Kutta, the disturbance evaluated at the substage times.
One step loop advances a batch of cells at once, one row of a (B, n) array
each: :func:`simulate_closed_loop` runs one adaptive controller per gain
set, each on its own copy of the plant, and :func:`simulate_observer` one
observer per gain set over the stream of :func:`simulate_open_loop`, the
plant under zero control (a running sum of RK4 increments, no loop).  The
loop only steps; V is computed from the logged record after it.  Every row
is bitwise what the scalar laws give on their own.  The simulators return
full-rate records; ``log_stride`` is applied by their caller
(``experiments.run_configured_cells``) to what a run returns and writes.
Everything is deterministic: identical configs give bit-identical logs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .certificate import build_p_block, lyapunov_series
from .laws import is_real_number

# The longest run accepted, in steps (one controller cell at n = 3 needs about
# 250 bytes a step, 2.5 GB here), checked before any array is allocated.
MAX_STEPS = 10**7


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
            if not np.isfinite(vec).all():
                raise ValueError("constant_value must be finite")
            vec.setflags(write=False)
            object.__setattr__(self, "constant_value", vec)
        if self.kind == "sinusoid-mix":
            if self.channels is None or len(self.channels) != self.n:
                raise ValueError("sinusoid-mix needs one channel per component")
            channels = tuple(SineChannel(*c) for c in self.channels)
            if not all(is_real_number(v) and math.isfinite(v) for c in channels for v in c[:2]):
                raise ValueError("channel amplitudes and frequencies must be finite numbers")
            if not all(isinstance(c.is_cosine, bool) for c in channels):
                raise ValueError("a channel's is_cosine must be true or false")
            object.__setattr__(self, "channels", channels)

    @classmethod
    def none(cls, n: int) -> "DisturbanceSpec":
        return cls(kind="none", n=n)

    @classmethod
    def constant(cls, value) -> "DisturbanceSpec":
        value = np.asarray(value, dtype=float)
        return cls(kind="constant", n=value.size, constant_value=value)

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
        if not isinstance(d, dict):
            raise ValueError("a disturbance spec must be a JSON object")
        kind = d.get("kind")
        if kind == "none":
            dim = d.get("n", n)
            if dim is None:
                raise ValueError("disturbance kind 'none' needs a dimension")
            return cls.none(int(dim))
        if kind == "constant":
            value = d.get("constant_value", d.get("value"))
            if not isinstance(value, (list, tuple)):
                raise ValueError("constant disturbance needs a value vector")
            return cls.constant(value)
        if kind == "sinusoid-mix":
            if not isinstance(d.get("channels"), (list, tuple)) or not d["channels"]:
                raise ValueError("sinusoid-mix disturbance needs a list of channels")
            channels = []
            for ch in d["channels"]:
                if isinstance(ch, dict):
                    if not {"amplitude", "frequency"} <= ch.keys():
                        raise ValueError("a sinusoid channel needs amplitude and frequency")
                    ch = (ch["amplitude"], ch["frequency"], ch.get("is_cosine", False))
                if not isinstance(ch, (list, tuple)) or len(ch) != 3:
                    raise ValueError("a sinusoid channel is (amplitude, frequency, is_cosine)")
                channels.append(ch)
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
        try:
            x = np.array(self.x1_init, dtype=float)
        except TypeError:  # not a sequence of numbers: fails the check below
            x = np.empty(0)
        if x.ndim != 1 or x.size == 0 or not np.isfinite(x).all():
            raise ValueError("x1_init must be a non-empty vector of finite values")
        x.setflags(write=False)
        object.__setattr__(self, "x1_init", x)
        if not (is_real_number(self.dt) and self.dt > 0):
            raise ValueError("dt must be a positive number")
        if not (is_real_number(self.horizon) and self.dt < self.horizon < math.inf):
            raise ValueError("horizon must be a finite number above dt")
        if self.horizon / self.dt > MAX_STEPS:
            raise ValueError(f"horizon / dt exceeds the limit of {MAX_STEPS} steps")
        if not (is_real_number(self.singular_tol) and 0 < self.singular_tol < math.inf):
            raise ValueError("singular_tol must be a positive, finite number")
        stride = self.log_stride
        if not (is_real_number(stride) and isinstance(stride, numbers.Integral) and stride >= 1):
            raise ValueError("log_stride must be an integer >= 1")

    @property
    def n(self) -> int:
        return self.x1_init.shape[0]

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "x1_init": self.x1_init.tolist()}


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


# CSV headers that are not the field name; vector fields get one column per
# component, numbered from 1 (``x11``, ``x12``, ...).
_CSV_NAMES = {"times": "t", "d_true": "d", "d_hat": "dhat"}


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled record of one run; optional columns are None.  The
    field order is the CSV column order."""

    times: np.ndarray
    x1: np.ndarray
    u: np.ndarray
    d_true: np.ndarray
    d_hat: np.ndarray | None = None
    L0: np.ndarray | None = None
    V: np.ndarray | None = None

    def __post_init__(self):
        for name, col in self.columns():
            if col.shape[0] != self.times.shape[0]:
                raise ValueError(f"column {name} length mismatch")

    def columns(self) -> list[tuple[str, np.ndarray]]:
        """``(field name, array)`` of the present fields, in column order."""
        return [(f.name, col) for f in fields(self) if (col := getattr(self, f.name)) is not None]

    def thinned(self, stride: int) -> "Trajectory":
        """Every ``stride``-th sample, starting with the first."""
        return replace(self, **{name: col[::stride] for name, col in self.columns()})


def _disturbance_series(sim: SimConfig, dist: DisturbanceSpec):
    """The time grid ``t_k`` and ``d`` at ``t_k``, ``t_k + dt/2`` and
    ``t_k + dt`` for every step, each an array of shape (steps, n)
    (``t_k + dt`` is not ``t_{k+1}`` in floating point).  A constant
    disturbance gives one array three times."""
    if dist.n != sim.n:
        raise ValueError("disturbance dimension does not match the initial state")
    times, dt = np.arange(sim.steps) * sim.dt, sim.dt
    if dist.kind != "sinusoid-mix":
        value = dist.constant_value if dist.kind == "constant" else np.zeros(dist.n)
        series = np.tile(value, (times.size, 1))
        return times, series, series, series

    def at(t):
        out = np.empty((t.size, dist.n))
        for i, ch in enumerate(dist.channels):
            out[:, i] = ch.amplitude * (np.cos if ch.is_cosine else np.sin)(ch.frequency * t)
        return out

    return times, at(times), at(times + 0.5 * dt), at(times + dt)


def _rk4_increment(dt6, U, d_now, d_mid, d_end):
    """The plant's RK4 increment over one step with ``U`` held: the stages
    at ``t_k + dt/2`` share one disturbance value."""
    F2 = 2.0 * (U + d_mid)
    return dt6 * (U + d_now + F2 + F2 + (U + d_end))


def _step_loop(sim: SimConfig, dist: DisturbanceSpec, cfgs, stream: Trajectory | None = None,
               log_integral: bool = False):
    """The one step loop: advances B cells at once, one row of a (B, n)
    array each.  Returns one full-rate record per cell and, if
    ``log_integral``, the integral term before each step, shape (B, steps, n).

    Without ``stream`` every row is a copy of the plant, driven by the
    adaptive controller ``cfgs[b]``.  With ``stream`` every row is the
    adaptive observer ``cfgs[b]`` over that one measurement and control
    stream.  The time grid, the disturbance and the stream are shared by the
    batch.

    Each row is bitwise the scalar reference (``laws.controller_step`` or
    ``laws.observer_step``, RK4 plant): one norm ``sqrt(vecdot)``, which is
    ``np.linalg.norm`` bit for bit, and every power of the spec as Python's
    float ``**`` per cell, because numpy's vectorised power is not libm
    ``pow``.  Gains depend on L0 alone, so they are recomputed only after a
    cell adapted.
    """
    if not cfgs:
        raise ValueError("a batch needs at least one gain configuration")
    n, dt, tol, rows = sim.n, sim.dt, sim.singular_tol, len(cfgs)
    if stream is None:
        times, d_now, d_mid, d_end = _disturbance_series(sim, dist)
        X = np.tile(sim.x1_init, (rows, 1))
        x1_log = np.empty((rows, times.size, n))
        u_log = np.empty((rows, times.size, n))
    else:
        times = stream.times
        Z = np.tile(stream.x1[0], (rows, 1))
        dhat_log = np.empty((rows, times.size, n))
    k1, k2, k3, k4, eps, kappa_dt = (np.array(col) for col in zip(*(
        (c.k1, c.k2, c.k3, c.k4, c.epsilon, c.kappa * dt) for c in cfgs)))
    e1 = [(c.m - 1.0) / c.m for c in cfgs]
    e3 = [(2.0 * c.m - 2.0) / c.m for c in cfgs]
    f1 = [1.0 / c.m for c in cfgs]
    f2 = [2.0 / c.m for c in cfgs]
    L0 = np.array([c.L0_init for c in cfgs])
    I = np.zeros((rows, n))
    l0_log = np.empty((rows, times.size))
    i_log = np.empty((rows, times.size, n)) if log_integral else None
    stale = True
    dt6 = dt / 6.0

    # A diverging cell overflows before it turns non-finite; the check at the
    # end of each step reports it, so numpy's warnings are not needed.
    with np.errstate(all="ignore"):
        for k in range(times.size):
            S = X if stream is None else stream.x1[k] - Z
            if stale:
                l0 = L0.tolist()
                L1 = (k1 * np.array(list(map(pow, l0, e1))))[:, None]
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
            if i_log is not None:
                i_log[:, k] = I
            l0_log[:, k] = L0
            I = I + dt * (L3 * D2 + L4 * S)
            adapt = nrm >= eps
            stale = adapt.any()
            if stale:
                L0 = np.where(adapt, L0 + kappa_dt, L0)
            if stream is None:
                U = -Y  # bitwise -L1*D1 - L2*x - I: rounding is symmetric
                x1_log[:, k] = X
                u_log[:, k] = U
                X = new = X + _rk4_increment(dt6, U, d_now[k], d_mid[k], d_end[k])
            else:
                dhat_log[:, k] = Y
                Z = new = Z + dt * (stream.u[k] + Y)
            if not np.isfinite(new).all():
                cell = int(np.flatnonzero(~np.isfinite(new).all(axis=1))[0])
                raise SimulationAborted(k, float(times[k]) + dt, new[cell], cell)

    if stream is not None:
        return [Trajectory(times=times, x1=stream.x1, u=stream.u, d_true=stream.d_true,
                           d_hat=dhat_log[b], L0=l0_log[b]) for b in range(rows)], i_log
    return [Trajectory(times=times, x1=x1_log[b], u=u_log[b], d_true=d_now, L0=l0_log[b])
            for b in range(rows)], i_log


def simulate_closed_loop(cfgs, sim: SimConfig, dist: DisturbanceSpec,
                         lyapunov: bool = True) -> list[Trajectory]:
    """Run one adaptive controller per gain configuration, each on its own
    copy of the plant, as one batch; one full-rate record per cell.  With
    ``lyapunov``, each smooth cell (m > 2) gets V under its ``build_p_block``
    at the transformed state and the gain level in effect at each sample,
    with the companion coordinate ``x2 = d - integral``, computed from the
    logged record after the loop.
    """
    cfgs = list(cfgs)
    logs_v = [lyapunov and cfg.m > 2 for cfg in cfgs]
    trajs, integral = _step_loop(sim, dist, cfgs, log_integral=any(logs_v))
    for b, (traj, cfg) in enumerate(zip(trajs, cfgs)):
        if logs_v[b]:
            trajs[b] = replace(traj, V=lyapunov_series(
                traj.x1, traj.d_true - integral[b], traj.L0, cfg.m, build_p_block(cfg),
                sim.singular_tol))
    return trajs


def simulate_open_loop(sim: SimConfig, dist: DisturbanceSpec) -> Trajectory:
    """The plant under zero control, one full-rate record.

    With ``u = 0`` every RK4 increment depends on ``d`` alone, so the state
    is ``x1(0)`` plus a running sum of precomputed increments.  The sum is
    sequential, so each row is bitwise the step-by-step integration.
    """
    times, d_now, d_mid, d_end = _disturbance_series(sim, dist)
    with np.errstate(all="ignore"):
        increments = _rk4_increment(sim.dt / 6.0, 0.0, d_now, d_mid, d_end)
        x1 = np.cumsum(np.vstack([sim.x1_init, increments]), axis=0)
    finite = np.isfinite(x1).all(axis=1)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0]) - 1
        raise SimulationAborted(k, float(times[k]) + sim.dt, x1[k + 1])
    return Trajectory(times=times, x1=x1[:-1], u=np.zeros_like(d_now), d_true=d_now)


def simulate_observer(cfgs, sim: SimConfig, dist: DisturbanceSpec) -> list[Trajectory]:
    """Run one disturbance observer per gain configuration over one plant's
    measurement and control stream, as one batch.

    The observer never acts on the plant, so the stream is a plain plant run,
    :func:`simulate_open_loop` under ``dist``, computed once for the batch.
    One full-rate record per cell.
    """
    return _step_loop(sim, dist, list(cfgs), stream=simulate_open_loop(sim, dist))[0]


def trajectory_columns(traj: Trajectory) -> list[str]:
    """Column names in the fixed export order (absent columns omitted)."""
    names = []
    for name, col in traj.columns():
        head = _CSV_NAMES.get(name, name)
        names += [head] if col.ndim == 1 else [f"{head}{i}" for i in range(1, col.shape[1] + 1)]
    return names


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory with 17 significant digits per value so that a
    round-trip through text reproduces the floats bit for bit."""
    np.savetxt(path, np.column_stack([col for _, col in traj.columns()]),
               fmt="%.17g", delimiter=",", header=",".join(trajectory_columns(traj)),
               comments="")


def load_trajectory_csv(path) -> Trajectory:
    """Inverse of :func:`write_trajectory_csv`."""
    with open(path, "r") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    index = {name: i for i, name in enumerate(header)}
    columns = {}
    for f in fields(Trajectory):
        head = _CSV_NAMES.get(f.name, f.name)
        # a vector field has the columns head1 .. headn, and n < len(header)
        block = [index[h] for h in (f"{head}{i}" for i in range(1, len(header))) if h in index]
        if head in index:
            columns[f.name] = data[:, index[head]]
        elif block:
            columns[f.name] = data[:, block]
    return Trajectory(**columns)
