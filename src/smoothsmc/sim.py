"""Fixed-step simulation of the perturbed integrator plant under a sampled
feedback law, disturbance signal generators, and trajectory logging.

The plant is ``x1dot = u + d(t)``.  The control is held constant over each
major step (zero-order hold) while the plant integrates with classical
four-stage Runge-Kutta, the disturbance evaluated at the substage times.
One step loop advances a batch of cells at once: :func:`simulate_closed_loop`
runs one adaptive controller per gain set, each on its own copy of the
plant, and :func:`simulate_observer` one observer per gain set over the
measurement of the plant under zero control, which the loop builds as a
running sum of RK4 increments.  The loop steps a single cell on Python
floats through ``laws.law_step`` and a batch of two or more as the rows of
(B, n) arrays: a numpy call costs about as much on one row as on many, so
only a batch repays it.  Both kernels apply the same IEEE operations, so
every cell is bitwise what the scalar laws give on their own, in either
kernel, wherever BLAS ``ddot`` rounds a row of an (N, n) array as it
rounds a fresh vector.  The step norms are the loop's only BLAS calls.
OpenBLAS picks its kernel from the CPU at run time; a row rounds as a fresh
vector under the SkylakeX and Nehalem kernels, not under Prescott (ROADMAP
item 11).  The loop only steps.

The loop runs in blocks of about :data:`BLOCK_CELL_STEPS` cell-steps.  Each
block builds only its own slice of the time grid, the disturbance and the
measurement, and logs into fresh buffers, so the loop's memory does not grow
with the run or the batch.  A simulator hands each full-rate block to an
optional ``fold``, which reads it (this is how ``experiments.run_cells``
computes the metrics from every step), and with ``record`` copies every
``log_stride``-th row once into the record's final arrays, the one place
the stride is applied, and computes V of those rows.  A row's V is computed
from that row with elementwise sums only, so neither the BLAS kernel nor
the blocks change its bits.
Everything is deterministic: identical configs give bit-identical logs.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

import numpy as np

from .certificate import build_p_block, lyapunov_series
from .laws import gains_from_L0, is_real_number, law_step, real_setting, update_L0

# The longest run accepted, in steps (one controller cell at n = 3 needs about
# 250 bytes a step, 2.5 GB here), checked before any array is allocated.
MAX_STEPS = 10**7

# Cell-steps per block of the step loop: a batch of B cells steps in blocks of
# BLOCK_CELL_STEPS // B steps (at least one), so a block's buffers and the
# metric temporaries stay about this size whatever the batch (384 steps for
# 12 cells), and a block's few extra numpy calls stay small beside its steps.
BLOCK_CELL_STEPS = 4608


def _real_vector(value, name: str) -> tuple[float, ...]:
    """A tuple of the Python floats of a non-empty 1-D sequence of finite
    real numbers; JSON booleans and numeric strings are refused, not converted."""
    items = value.tolist() if isinstance(value, np.ndarray) and value.ndim == 1 else value
    if not (isinstance(items, (list, tuple)) and items
            and all(real_setting(v) is not None and math.isfinite(v) for v in items)):
        raise ValueError(f"{name} must be a non-empty vector of finite numbers")
    return tuple(map(float, items))


def _refuse_other_keys(d: dict, keys: set, what: str) -> None:
    """Refuse, by name, a key of ``d`` that is not one of ``keys``."""
    if other := d.keys() - keys:
        raise ValueError(f"{what} has keys it does not read: {sorted(other, key=str)}")


class SineChannel(NamedTuple):
    """One disturbance component: ``a*sin(w t)`` or ``a*cos(w t)``."""

    amplitude: float
    frequency: float
    is_cosine: bool


# The keys that DisturbanceSpec.from_dict reads, per kind, besides kind and n.
_SPEC_KEYS = {"none": set(), "constant": {"constant_value", "value"}, "sinusoid-mix": {"channels"}}


@dataclass(frozen=True)
class DisturbanceSpec:
    """A disturbance of one :class:`SineChannel` per component, with
    closed-form norm bounds.  Every kind is its channels: a constant ``c`` is
    ``(c_i, 0.0, True)`` per component, as ``c_i * cos(0.0 * t)`` is ``c_i``
    bit for bit (-0.0 too), and ``none`` is ``(0.0, 0.0, True)``, built if not
    given; these two kinds, whose JSON form has no channels, refuse others.
    Fields hold Python values (``laws.real_setting``), so specs hash by value."""

    kind: str  # "none" | "constant" | "sinusoid-mix"
    n: int
    channels: tuple[SineChannel, ...] | None = None  # may be omitted for none

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _SPEC_KEYS):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if not (is_real_number(self.n) and isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise ValueError("a disturbance needs a dimension n, an integer >= 1")
        object.__setattr__(self, "n", int(self.n))
        none = self.kind == "none" and self.channels is None
        channels = [(0.0, 0.0, True)] * self.n if none else self.channels
        if channels is None or len(channels) != self.n:
            raise ValueError(f"a {self.kind} disturbance of n = {self.n} needs one channel "
                             "per component")
        channels = tuple(SineChannel(real_setting(a), real_setting(w), cos)
                         for a, w, cos in channels)
        if not all(v is not None and math.isfinite(v) for c in channels for v in c[:2]):
            raise ValueError("channel amplitudes and frequencies must be finite numbers")
        if not all(isinstance(c.is_cosine, bool) for c in channels):
            raise ValueError("a channel's is_cosine must be true or false")
        if self.kind != "sinusoid-mix" and not all(
                c.frequency == 0 and c.is_cosine and (self.kind == "constant" or (
                    c.amplitude, math.copysign(1, c.amplitude)) == (0, 1)) for c in channels):
            raise ValueError("none and constant channels are cosines at w = 0, none's at a = +0.0")
        object.__setattr__(self, "channels", channels)

    @classmethod
    def none(cls, n: int) -> "DisturbanceSpec":
        return cls(kind="none", n=n)

    @classmethod
    def constant(cls, value) -> "DisturbanceSpec":
        value = _real_vector(value, "constant_value")
        return cls(kind="constant", n=len(value), channels=[(c, 0.0, True) for c in value])

    @classmethod
    def sinusoid_mix(cls, channels) -> "DisturbanceSpec":
        channels = tuple(channels)
        return cls(kind="sinusoid-mix", n=len(channels), channels=channels)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "n": self.n}
        if self.kind == "constant":
            out["constant_value"] = [c.amplitude for c in self.channels]
        if self.kind == "sinusoid-mix":
            out["channels"] = [c._asdict() for c in self.channels]
        return out

    @classmethod
    def from_dict(cls, d: dict, n: int | None = None) -> "DisturbanceSpec":
        """The spec of ``to_dict``'s form, where a constant may give ``value``
        for ``constant_value``; ``n`` is the dimension of a ``none`` that gives
        none.  A key that the kind does not read is refused by name."""
        if not isinstance(d, dict):
            raise ValueError("a disturbance spec must be a JSON object")
        kind, channels = d.get("kind"), d.get("channels")
        if not (isinstance(kind, str) and kind in _SPEC_KEYS):
            raise ValueError(f"unknown disturbance kind {kind!r}")
        _refuse_other_keys(d, {"kind", "n", *_SPEC_KEYS[kind]}, f"a {kind} disturbance")
        if kind == "constant":
            if {"constant_value", "value"} <= d.keys():
                raise ValueError("a constant disturbance takes constant_value or value, not both")
            channels = cls.constant(d.get("constant_value", d.get("value"))).channels
        if kind == "sinusoid-mix":
            if not isinstance(channels, (list, tuple)) or not channels:
                raise ValueError("sinusoid-mix disturbance needs a list of channels")
            given, channels = channels, []
            for ch in given:
                if isinstance(ch, dict):
                    _refuse_other_keys(ch, set(SineChannel._fields), "a sinusoid channel")
                    if not {"amplitude", "frequency"} <= ch.keys():
                        raise ValueError("a sinusoid channel needs amplitude and frequency")
                    ch = (ch["amplitude"], ch["frequency"], ch.get("is_cosine", False))
                if not isinstance(ch, (list, tuple)) or len(ch) != 3:
                    raise ValueError("a sinusoid channel is (amplitude, frequency, is_cosine)")
                channels.append(ch)
        return cls(kind=kind, n=d.get("n", n if channels is None else len(channels)),
                   channels=channels)


def disturbance_at(spec: DisturbanceSpec, t: float) -> np.ndarray:
    """Evaluate the disturbance at a finite time ``t >= 0``."""
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and non-negative")
    return np.array([c.amplitude * (math.cos if c.is_cosine else math.sin)(c.frequency * t)
                     for c in spec.channels])


def norm_bound(spec: DisturbanceSpec) -> float:
    """Closed-form bound on ``||d(t)||`` over all t: the norm of the amplitudes."""
    return math.hypot(*(c.amplitude for c in spec.channels))


def rate_bound(spec: DisturbanceSpec) -> float:
    """Closed-form bound on ``||ddot(t)||`` over all t."""
    return math.hypot(*(c.amplitude * c.frequency for c in spec.channels))


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, initial state (a tuple of floats) and logging
    cadence, as Python values, so configs compare and hash by value."""

    x1_init: tuple[float, ...]
    dt: float = 1e-3
    horizon: float = 10.0
    singular_tol: float = 1e-12
    log_stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "x1_init", _real_vector(self.x1_init, "x1_init"))
        dt, horizon, tol = map(real_setting, (self.dt, self.horizon, self.singular_tol))
        if not (dt is not None and dt > 0):
            raise ValueError("dt must be a positive number")
        if not (horizon is not None and dt < horizon < math.inf):
            raise ValueError("horizon must be a finite number above dt")
        if horizon / dt > MAX_STEPS:
            raise ValueError(f"horizon / dt exceeds the limit of {MAX_STEPS} steps")
        if not (tol is not None and 0 < tol < math.inf):
            raise ValueError("singular_tol must be a positive, finite number")
        for name, value in (("dt", dt), ("horizon", horizon), ("singular_tol", tol)):
            object.__setattr__(self, name, value)
        stride = self.log_stride
        if not (is_real_number(stride) and isinstance(stride, numbers.Integral) and stride >= 1):
            raise ValueError("log_stride must be an integer >= 1")
        object.__setattr__(self, "log_stride", int(stride))

    @property
    def n(self) -> int:
        return len(self.x1_init)

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


class SimulationAborted(RuntimeError):
    """A run that diverged: a non-finite state, or a metric norm or adapted
    gains that overflowed; carries the step diagnostics and the index of the
    aborting cell (its row in the batch)."""

    def __init__(self, step: int, time: float, state: np.ndarray, cell: int = 0,
                 reason: str = "non-finite state"):
        self.step = step
        self.time = time
        self.state = np.array(state)
        self.cell = cell
        super().__init__(
            f"{reason} in cell {cell} at step {step} (t={time:.6g}): "
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


def _disturbance_series(sim: SimConfig, dist: DisturbanceSpec, start: int, stop: int):
    """The time grid ``t_k`` of steps ``start`` to ``stop - 1``, ``d`` at
    ``t_k`` of shape (stop - start, n), and ``d`` at ``t_k``, ``t_k + dt/2``
    and ``t_k + dt`` stacked stage first, shape (3, stop - start, 1, n)
    (``t_k + dt`` is not ``t_{k+1}`` in floating point), each channel
    ``a * cos(w t)`` or ``a * sin(w t)``.  The grid is the slice of
    ``np.arange(steps) * dt``.  The second is a copy, so a record does not
    keep the stack alive."""
    times, dt = np.arange(start, stop) * sim.dt, sim.dt
    d3 = np.empty((3, times.size, 1, dist.n))
    for stage, t in zip(d3[:, :, 0], (times, times + 0.5 * dt, times + dt)):
        for i, ch in enumerate(dist.channels):
            stage[:, i] = ch.amplitude * (np.cos if ch.is_cosine else np.sin)(ch.frequency * t)
    return times, d3[0, :, 0].copy(), d3


def _rk4_increment(dt6, stages):
    """The plant's RK4 increment over one step with ``U`` held, from the
    stage sums ``U + d`` at ``t_k``, ``t_k + dt/2`` and ``t_k + dt`` stacked
    on the first axis (the two middle stages share one)."""
    F2 = 2.0 * stages[1]
    return dt6 * (stages[0] + F2 + F2 + stages[2])


class Block(NamedTuple):
    """Steps ``start`` onward of a batch run, the step axis after the cell
    axis: ``x1`` (B, steps, n), for an observer batch a read-only broadcast
    of its one measurement; ``y``, which is u or d_hat (B, steps, n); ``L0``
    (B, steps); the integral term before each step (B, steps, n), or None."""

    start: int
    times: np.ndarray
    d_true: np.ndarray
    x1: np.ndarray
    y: np.ndarray
    L0: np.ndarray
    integral: np.ndarray | None


def _step_loop(sim: SimConfig, dist: DisturbanceSpec, cfgs, observe: bool = False,
               log_integral: bool = False):
    """The one step loop: advances B cells at once and yields each block of
    ``BLOCK_CELL_STEPS // B`` steps as a :class:`Block` of logs in fresh
    C-contiguous arrays, but for an observer batch's broadcast ``x1`` (the
    integral only if ``log_integral``).

    Every cell applies the adaptive law ``cfgs[b]`` (``laws.law_step``) and
    keeps one state ``W``, which starts at ``x1(0)``.  Without ``observe``
    the cell is a copy of the plant, ``W = x1``, driven by ``u = -Y``.  With
    ``observe`` it is an observer, ``W = z1``, with ``d_hat = Y`` on the
    innovation over one shared measurement: the plant under zero control,
    whose state is ``x1(0)`` plus a running sum of RK4 increments, built a
    block at a time from the block before's last row (sequential, so
    bitwise the step-by-step integration) and checked before the block's
    steps.  The time grid and the disturbance are shared by the batch.

    The steps run in :func:`_float_kernel` for a single cell and in
    :func:`_array_kernel` for two or more, which apply the same IEEE
    operations (see the module docstring).  A non-finite state makes the
    next norm non-finite, so a kernel checks the state only then; the loop
    checks it again after each block and reports the step that made it.
    """
    if not cfgs:
        raise ValueError("a batch needs at least one gain configuration")
    if dist.n != sim.n:
        raise ValueError("disturbance dimension does not match the initial state")
    dt, rows = sim.dt, len(cfgs)
    span = max(1, BLOCK_CELL_STEPS // rows)
    kernel = (_float_kernel if rows == 1 else _array_kernel)(sim, cfgs, observe, log_integral)
    measured = sim.x1_init  # the measurement at the block's first step

    for start in range(0, sim.steps, span):
        times, d_now, d3 = _disturbance_series(sim, dist, start, min(start + span, sim.steps))
        x1 = None
        if observe:
            with np.errstate(all="ignore"):
                x1 = np.cumsum(np.vstack([measured, _rk4_increment(dt / 6.0, 0.0 + d3)[:, 0]]),
                               axis=0)
            finite = np.isfinite(x1).all(axis=1)
            if not finite.all():
                k = int(np.flatnonzero(~finite)[0]) - 1
                raise SimulationAborted(start + k, float(times[k]) + dt, x1[k + 1])
            x1, measured = x1[:-1], x1[-1]
        # a diverging cell overflows before it turns non-finite, and the abort reports it
        with np.errstate(all="ignore"):
            j, W, (x1_log, y_log, l0_log, i_log) = kernel(start, x1, d3.swapaxes(0, 1))
        bad = np.flatnonzero(~np.isfinite(W).all(axis=1))
        if bad.size:  # the state step start + j made is not finite
            raise SimulationAborted(start + j, float(times[j]) + dt, W[bad[0]], int(bad[0]))
        yield Block(start, times, d_now, np.broadcast_to(x1, y_log.shape) if observe else x1_log,
                    y_log, l0_log, i_log)


def _adapted_gains(cfg, L0: float, step: int, dt: float, state, cell: int):
    """``laws.gains_from_L0`` at the L0 that step ``step`` adapted to at
    ``state``; gains past the float range abort the run there."""
    try:
        return gains_from_L0(cfg, L0)
    except ValueError:
        raise SimulationAborted(step, step * dt, state, cell,
                                reason=f"the adaptive gains overflowed at L0 = {L0!r}") from None


def _array_kernel(sim: SimConfig, cfgs, observe: bool, log_integral: bool):
    """The steps of a batch on (B, n) arrays, one row per cell: returns a
    function that runs the steps of a block, from its first step, measurement
    (observers, else None) and disturbance stages ``d3`` (steps, 3, 1, n),
    and returns the index of the last step run, the state ``W`` (B, n) and
    the logs ``(x1, y, L0, integral)``, arrays allocated for that block.

    The one vectorised copy of ``laws.law_step``: one norm per row,
    ``sqrt(vecdot)``, which is ``np.linalg.norm`` bit for bit under the
    module docstring's BLAS condition, and every power of the spec as
    Python's float ``**`` per cell, because numpy's vectorised power is not
    libm ``pow``.  A step makes few numpy calls, most on arrays of one
    shape: ``G = [L1; L3]`` and ``H = [L2; L4]`` are the gains repeated to
    shape (2, B, n), rebuilt only after a row adapted, from the gains that
    ``laws.gains_from_L0`` gave each row at its latest L0;
    ``D = S / [r**(1/m); r**(2/m)]`` holds both direction terms and
    ``T = G*D + H*S`` both sums of the law (``Y = T[0] + I`` and the
    integral increment ``dt*T[1]``); ``U + d`` with the stacked disturbance
    gives the three RK4 stage sums.  The singular and adaptation tests read
    the norms ``r`` as a list.
    """
    n, dt, tol, rows = sim.n, sim.dt, sim.singular_tol, len(cfgs)
    dt6 = dt / 6.0
    W = np.tile(sim.x1_init, (rows, 1))
    powers = [1.0 / c.m for c in cfgs] + [2.0 / c.m for c in cfgs]
    adapt = [(c.epsilon, c.kappa * dt) for c in cfgs]
    l0 = [c.L0_init for c in cfgs]
    gains = [*map(gains_from_L0, cfgs, l0)]  # each row's, refreshed when its L0 moves
    I = np.zeros((rows, n))
    stale, L0, G, H = True, None, None, None

    def steps(start, x1, d3):
        nonlocal W, I, l0, gains, stale, L0, G, H
        count = len(d3)  # the stages of step start + j are d3[j]
        # x1, y (u = -Y, or d_hat = Y), L0, integral
        x1_log, y_log, l0_log, i_log = (
            None if observe else np.empty((rows, count, n)), np.empty((rows, count, n)),
            np.empty((rows, count)), np.empty((rows, count, n)) if log_integral else None)
        for j in range(count):
            S = x1[j] - W if observe else W
            r = np.sqrt(np.vecdot(S, S)).tolist()
            if not math.isfinite(sum(r)) and not np.isfinite(W).all():
                j -= 1  # the state step j - 1 made is not finite
                break
            if stale:
                L0 = np.array(l0)
                # rows [L1, L2; L3, L4] of plain tuples (numpy reads them fastest)
                G, H = np.array([g[:4] for g in gains]).T.reshape(
                    2, 2, rows, 1).swapaxes(0, 1).repeat(n, axis=3)
            D = S / np.array([*map(pow, r + r, powers)]).reshape(2, rows, 1)
            if min(r) < tol:
                D[:, [v < tol for v in r]] = 0.0
            T = G * D + H * S
            Y = T[0] + I
            if i_log is not None:
                i_log[:, j] = I
            l0_log[:, j] = L0
            I = I + dt * T[1]
            new = [v + kd if s >= e else v for v, s, (e, kd) in zip(l0, r, adapt)]
            if stale := new != l0:
                gains = [g if v == w else _adapted_gains(c, v, start + j, dt, W[b], b)
                         for b, (g, c, v, w) in enumerate(zip(gains, cfgs, new, l0))]
            l0 = new
            # Y is never -0.0 (I starts at +0.0), so dt * Y is bitwise
            # laws.observer_step's dt * (u + d_hat) at u = 0
            if observe:
                y_log[:, j] = Y
                W = W + dt * Y
            else:
                x1_log[:, j] = W
                U = np.negative(Y, out=y_log[:, j])
                W = W + _rk4_increment(dt6, U + d3[j])
        return j, W, (x1_log, y_log, l0_log, i_log)

    return steps


def _float_kernel(sim: SimConfig, cfgs, observe: bool, log_integral: bool):
    """The steps of a single cell on Python floats, one component at a time;
    called and returning as :func:`_array_kernel`.  Each block logs into
    fresh ``array('d')`` buffers, which its :class:`Block` views through
    ``np.frombuffer``.

    Each step calls :func:`laws.law_step` and :func:`laws.update_L0`, with
    the gains cached until L0 moves.  The norm is one ``np.vecdot``, on a
    reused 1-D buffer: BLAS ``ddot`` rounds its sum its own way (with FMA on
    most kernels), which no float expression reproduces.
    """
    (cfg,) = cfgs
    n, m, dt, tol = sim.n, cfg.m, sim.dt, sim.singular_tol
    dt6 = dt / 6.0
    W, I, l0 = list(sim.x1_init), [0.0] * n, cfg.L0_init
    gains, buf = gains_from_L0(cfg, l0), np.empty(n)
    vecdot, sqrt, isfinite = np.vecdot, math.sqrt, math.isfinite

    def steps(start, x1, d3):
        nonlocal W, I, l0, gains
        count = len(d3)
        d3 = d3[:, :, 0]  # (steps, 3, n)
        x1_log = None if observe else array("d")
        y_log, l0_log = array("d"), array("d")
        i_log = array("d") if log_integral else None
        for j in range(count):
            S = [x - w for x, w in zip(x1[j].tolist(), W)] if observe else W
            buf[:] = S
            r = sqrt(vecdot(buf, buf))
            if not isfinite(r) and not all(map(isfinite, W)):
                j -= 1  # the state step j - 1 made is not finite
                break
            if i_log is not None:
                i_log.extend(I)
            l0_log.append(l0)
            Y, I = law_step(S, r, I, gains, m, dt, tol)
            if (new := update_L0(l0, r, cfg, dt)) != l0:
                l0, gains = new, _adapted_gains(cfg, new, start + j, dt, W, 0)
            if observe:
                y_log.extend(Y)
                W = [w + dt * y for w, y in zip(W, Y)]
            else:
                x1_log.extend(W)
                U = [-y for y in Y]
                y_log.extend(U)
                d0, d1, d2 = d3[j].tolist()
                W = [w + dt6 * (u + a + 2.0 * (u + b) + 2.0 * (u + b) + (u + c))
                     for w, u, a, b, c in zip(W, U, d0, d1, d2)]

        def view(log, *shape):
            return None if log is None else np.frombuffer(log).reshape(1, -1, *shape)

        return j, np.array([W]), (view(x1_log, n), view(y_log, n), view(l0_log), view(i_log, n))

    return steps


def _records(blocks, fold, cfgs, sim: SimConfig, record: bool, observe: bool = False) -> list:
    """Hand every block to ``fold``, if given, and with ``record`` copy every
    ``sim.log_stride``-th row into one record per cell, allocated at its
    final length (an observer batch's one measurement shared, like the time
    grid); else all None.  A smooth controller (m > 2) gets V, computed from
    each block's kept rows as they are copied, with the block's integral
    term; every operation of ``lyapunov_series`` is a row's own, so V is
    that of the whole record."""
    stride, B, n = sim.log_stride, len(cfgs), sim.n
    first = lambda step: -(-step // stride)  # the count of kept steps before step
    rows = first(sim.steps)
    if record:
        times, d_true, L0 = np.empty(rows), np.empty((rows, n)), np.empty((B, rows))
        x1, y = np.empty((rows, n) if observe else (B, rows, n)), np.empty((B, rows, n))
        V = {b: (np.empty(rows), build_p_block(c))  # each smooth controller's V and P
             for b, c in enumerate(cfgs) if not observe and c.m > 2}
    for block in blocks:
        if fold is not None:
            fold(block)
        if record:
            kept = slice(-block.start % stride, None, stride)
            at = slice(first(block.start), first(block.start + block.times.size))
            times[at], d_true[at] = block.times[kept], block.d_true[kept]
            L0[:, at], y[:, at] = block.L0[:, kept], block.y[:, kept]
            x1[..., at, :] = block.x1[0, kept] if observe else block.x1[:, kept]
            # a run whose norms overflow on finite states still gets its record
            with np.errstate(over="ignore", invalid="ignore"):
                for b, (Vb, P) in V.items():
                    Vb[at] = lyapunov_series(x1[b, at], d_true[at] - block.integral[b, kept],
                                             L0[b, at], cfgs[b].m, P, sim.singular_tol)
    if not record:
        return [None] * B
    u = np.zeros_like(d_true) if observe else None
    return [Trajectory(times=times, x1=x1 if observe else x1[b], u=u if observe else y[b],
                       d_true=d_true, d_hat=y[b] if observe else None, L0=L0[b],
                       V=V[b][0] if b in V else None) for b in range(B)]


def simulate_closed_loop(cfgs, sim: SimConfig, dist: DisturbanceSpec, record: bool = True,
                         *, fold=None) -> list[Trajectory | None]:
    """Run one adaptive controller per gain configuration, each on its own
    copy of the plant, as one batch.  ``fold``, if given, is called with
    each full-rate :class:`Block` as it ends and must only read it.  With
    ``record``, each cell gets a record of every ``sim.log_stride``-th step,
    and each smooth cell (m > 2) V under its ``build_p_block`` at the
    transformed state and the gain level in effect at each sample, with the
    companion coordinate ``x2 = d - integral``; without it, None.
    """
    cfgs = list(cfgs)
    blocks = _step_loop(sim, dist, cfgs, log_integral=record and any(c.m > 2 for c in cfgs))
    return _records(blocks, fold, cfgs, sim, record)


def simulate_observer(cfgs, sim: SimConfig, dist: DisturbanceSpec, record: bool = True,
                      *, fold=None) -> list[Trajectory | None]:
    """Run one disturbance observer per gain configuration over the
    measurement of one uncontrolled plant under ``dist``, as one batch (the
    observer never acts on the plant); ``record`` and ``fold`` as for
    :func:`simulate_closed_loop`."""
    cfgs = list(cfgs)
    return _records(_step_loop(sim, dist, cfgs, observe=True), fold, cfgs, sim, record,
                    observe=True)


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
    """Inverse of :func:`write_trajectory_csv`, each field a view of the one
    parsed table (n columns for a vector, n those of ``x1``).  A header that
    the loaded record would not write back is refused."""
    with open(path, "r") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    index = {name: i for i, name in enumerate(header)}
    n, columns = sum(h.startswith("x1") for h in header), {}
    for f in fields(Trajectory):
        head = _CSV_NAMES.get(f.name, f.name)
        if head in index:
            columns[f.name] = data[:, index[head]]
        elif (i := index.get(f"{head}1")) is not None:
            columns[f.name] = data[:, i:i + n]
        elif f.default is MISSING:
            break  # a field every record has
    else:
        if trajectory_columns(traj := Trajectory(**columns)) == header:
            return traj
    raise ValueError(f"{path}: header {','.join(header)!r} is not one that "
                     "write_trajectory_csv writes")
