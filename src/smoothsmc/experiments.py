"""Built-in comparison experiments and the machinery to run (method,
scenario) cells, alone or as one batch, and report their metrics.

Three scenarios are built in, all on the three-dimensional integrator plant
from initial state [1, 3, 2]:

* ``exp1`` - controllers against a constant disturbance,
* ``exp2`` - controllers against a mixed-sinusoid disturbance,
* ``exp3`` - observers reconstructing a larger mixed-sinusoid disturbance.

Each smooth method (m=3) pairs with a super-twisting baseline that uses the
same gains with m=2.  A ``custom`` scenario names its own initial state and
disturbance.

:func:`run_cells` hands the simulators a read-only fold, :class:`_Metrics`,
that updates every cell's settling step, tail peak and exact tail variation
from each block of the step loop, so the metrics read every step; ``record``
alone decides whether a run keeps a record, of every ``log_stride``-th step,
to return and write.  A sweep keeps none.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from .certificate import build_certificate
from .laws import GainConfig, check_gain_condition, gains_from_L0
from .metrics import ExperimentReport, exact_parts
from .sim import (
    Block,
    DisturbanceSpec,
    SimConfig,
    SimulationAborted,
    Trajectory,
    simulate_closed_loop,
    simulate_observer,
    write_trajectory_csv,
)

X1_INIT = (1.0, 3.0, 2.0)

DEFAULT_GAINS = {"k1": 2.0, "k2": 2.5, "k3": 4.0, "k4": 30.0, "kappa": 10.0}

# The smooth method (m = 3) and its baseline (m = 2), per kind of method.
PAIRS = {"controller": ("amssosmc", "amstsmc-baseline"), "observer": ("amsdo", "amdo-baseline")}

METHODS = {method: {"kind": kind, "m": m}
           for kind, pair in PAIRS.items() for method, m in zip(pair, (3.0, 2.0))}

EXPERIMENTS = {"exp1": "controller", "exp2": "controller", "exp3": "observer"}

# Observer error threshold is absolute; the controller threshold is relative
# to the initial state norm.
CONTROLLER_SETTLE_REL = 0.01
OBSERVER_SETTLE_ABS = 0.05
TAIL_FRACTION = 0.2


def experiment_disturbance(experiment: str) -> DisturbanceSpec:
    if experiment == "exp1":
        return DisturbanceSpec.constant([0.1, 0.2, 0.2])
    if experiment == "exp2":
        return DisturbanceSpec.sinusoid_mix([
            (0.1, 1.0, False), (0.2, 4.0, True), (0.2, 2.0, True),
        ])
    if experiment == "exp3":
        return DisturbanceSpec.sinusoid_mix([
            (1.0, 1.0, False), (2.0, 4.0, True), (2.0, 2.0, True),
        ])
    raise ValueError(f"unknown experiment {experiment!r}")


def _method_spec(method: str) -> dict:
    """``METHODS[method]``; an unknown method is a ``ValueError`` naming it."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method]


def build_gain_config(m: float, **overrides) -> GainConfig:
    """Default gain set with the given homogeneity degree, plus overrides.

    Uncertified combinations are allowed here and flagged in reports instead
    of being rejected, so parameter sweeps can cross the feasibility boundary.
    """
    params = dict(DEFAULT_GAINS)
    params.update({k: v for k, v in overrides.items() if v is not None})
    params.setdefault("allow_uncertified", True)
    return GainConfig(m=m, **params)


def method_gain_config(method: str, overrides: dict | None = None) -> GainConfig:
    """The gain set of a preset method with overrides; an ``m`` override
    replaces the method's homogeneity degree (used by sweeps)."""
    overrides = dict(overrides or {})
    m = overrides.pop("m", None)
    return build_gain_config(_method_spec(method)["m"] if m is None else m, **overrides)


def build_sim_config(**overrides) -> SimConfig:
    params = {"x1_init": X1_INIT}
    params.update({k: v for k, v in overrides.items() if v is not None})
    return SimConfig(**params)


def tail_cutoff(sim: SimConfig) -> float:
    """The time from which a step ``t_k = k * dt`` is in the metric tail; a
    tail of one step, which has no variation rate, is refused before any step."""
    cutoff = (1.0 - TAIL_FRACTION) * ((sim.steps - 1) * sim.dt)
    if not (sim.steps - 2) * sim.dt >= cutoff:
        raise ValueError("the horizon leaves fewer than two tail samples for a variation rate")
    return cutoff


def certificate_summary(cfg: GainConfig) -> dict:
    if cfg.m > 2:
        return build_certificate(cfg).to_dict()
    return {"gain_condition": check_gain_condition(cfg)._asdict()}


def _resolved_config(experiment: str, method: str, cfg: GainConfig,
                     sim: SimConfig, dist: DisturbanceSpec) -> dict:
    return {
        "experiment": experiment,
        "method": method,
        "gains": dataclasses.asdict(cfg),
        "sim": dataclasses.asdict(sim) | {"x1_init": list(sim.x1_init)},
        "disturbance": dist.to_dict(),
    }


class _Metrics:
    """The batch's metrics, folded block by block on the step grid
    ``t_k = k * dt`` from each cell's norms, ``||x1||`` or for observers
    ``||d_hat - d||``, and its tail step norms of u or d_hat, summed exactly
    (``metrics.exact_parts``); bitwise the :mod:`metrics` array functions.
    The first overflow of a norm that a metric reads (earliest step, then
    lowest cell) is kept as the abort it calls for."""

    def __init__(self, cells: int, threshold: float, sim: SimConfig, observe: bool):
        self.threshold, self.dt, self.observe = threshold, sim.dt, observe
        self.last, self.cutoff = sim.steps - 1, tail_cutoff(sim)
        self.above = np.full(cells, -1)  # the last step at or above the threshold
        self.peak = np.full(cells, -np.inf)
        self.parts = [[] for _ in range(cells)]  # each cell's tail step norms, summed exactly
        self.tail = self.previous = None  # the tail's first step, the last sample of y
        self.final_L0 = self.overflow = None

    @np.errstate(over="ignore", invalid="ignore")
    def add(self, block: Block) -> None:
        inside = block.times >= self.cutoff
        if self.tail is None and inside[-1]:
            self.tail = block.start + int(inside.argmax())
        signal = block.y - block.d_true if self.observe else block.x1
        norms = np.linalg.norm(signal, axis=2)
        above, bad = norms >= self.threshold, ~np.isfinite(norms)
        self.above = np.where(above.any(axis=1),
                              block.start + above.shape[1] - 1 - above[:, ::-1].argmax(axis=1),
                              self.above)
        if self.tail is not None:
            self.peak = np.maximum(self.peak, norms[:, inside.argmax():].max(axis=1))
            first = max(self.tail + 1 - block.start, 0)  # steps to first, ... start in the tail
            for b, y in enumerate(block.y):  # a cell at a time, so that temporaries are a row
                steps = np.linalg.norm(np.diff(y[first - 1:] if first else np.concatenate(
                    [self.previous[b], y]), axis=0), axis=1)
                self.parts[b] = exact_parts(self.parts[b] + steps.tolist())
                bad[b, first:] |= ~np.isfinite(steps)
        self.previous = block.y[:, -1:].copy()
        self.final_L0 = block.L0[:, -1].tolist()
        if self.overflow is None and bad.any():
            k, b = divmod(int(bad.T.argmax()), bad.shape[0])  # earliest step, then lowest cell
            row, name = ((block.y[b, k], "a step of " + ("d_hat" if self.observe else "u"))
                         if np.isfinite(norms[b, k])
                         else (signal[b, k], "||d_hat - d||" if self.observe else "||x1||"))
            self.overflow = SimulationAborted(block.start + k, float(block.times[k]), row, b,
                                              reason=f"{name} overflowed")

    def results(self) -> list[tuple[float | None, float, float, float]]:
        """Per cell: the settling time, None while the last step is above the
        threshold; the ultimate bound; the chattering index; the final L0."""
        if self.overflow is not None:
            raise self.overflow  # every step ran finite
        span = self.last * self.dt - self.tail * self.dt
        return [(None if k == self.last else (k + 1) * self.dt, peak, math.fsum(parts) / span, L0)
                for k, peak, parts, L0 in zip(self.above.tolist(), self.peak.tolist(),
                                              self.parts, self.final_L0)]


def run_cells(experiment: str, cells, sim_overrides: dict | None = None, record: bool = True,
              disturbance: dict | None = None) -> list[tuple[Trajectory | None, ExperimentReport]]:
    """Resolve cells of one experiment, run them as one batch and compute
    each cell's report; every run goes through here.

    ``cells`` is a sequence of ``(method, gain_overrides)`` pairs, resolved by
    :func:`method_gain_config`, all controllers or all observers.  A preset
    experiment supplies x1(0) and its disturbance as defaults and accepts
    only its own disturbance; ``custom`` supplies neither, so it needs
    ``x1_init`` in ``sim_overrides`` and ``disturbance``, the dict of a
    :class:`DisturbanceSpec`.

    The metrics are folded from every step, block by block.  With
    ``record``, each cell's trajectory keeps every ``sim.log_stride``-th
    step, with V for smooth controllers (m > 2), which changes no reported
    number.  Without it, each cell's trajectory is None.  A state that
    turns non-finite, or gains past the float range, abort the loop at once;
    a norm that overflows on finite states aborts the run, at its first
    step, once every step has run, so the abort does not depend on blocks.
    """
    sim_overrides = sim_overrides or {}
    if experiment == "custom":
        if sim_overrides.get("x1_init") is None or disturbance is None:
            raise ValueError("custom runs need --x1-init and --disturbance")
    elif experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    kinds = set()
    configured = []
    for method, overrides in cells:
        kind = _method_spec(method)["kind"]
        if experiment != "custom" and kind != EXPERIMENTS[experiment]:
            raise ValueError(f"{experiment} pairs with {EXPERIMENTS[experiment]} methods; "
                             f"{method!r} is a {kind}")
        kinds.add(kind)
        cfg = method_gain_config(method, overrides)
        # before any step: gains that overflow the certificate or at L0_init are refused here
        configured.append((method, cfg, certificate_summary(cfg)))
        gains_from_L0(cfg, cfg.L0_init)
    if len(kinds) != 1:
        raise ValueError("a batch holds one or more cells of one kind (controllers or observers)")
    sim = build_sim_config(**sim_overrides)
    dist = None if disturbance is None else DisturbanceSpec.from_dict(disturbance, n=sim.n)
    if experiment != "custom":
        preset = experiment_disturbance(experiment)
        if dist is not None and dist != preset:
            raise ValueError(f"{experiment} has its own disturbance; "
                             "run a different one with --experiment custom")
        dist = preset

    cfgs = [cfg for _, cfg, _ in configured]
    if kinds == {"controller"}:
        # the norm that the metric fold compares with it
        threshold = CONTROLLER_SETTLE_REL * float(np.linalg.norm(sim.x1_init, axis=-1))
        if not threshold > 0:
            raise ValueError("a controller settles relative to ||x1(0)||, so --x1-init "
                             "must not be the origin")
    else:
        threshold = OBSERVER_SETTLE_ABS
    metrics = _Metrics(len(cfgs), threshold, sim, kinds == {"observer"})
    simulate = simulate_closed_loop if kinds == {"controller"} else simulate_observer
    trajs = simulate(cfgs, sim, dist, record, fold=metrics.add)

    # a cell's metrics are its report's fields from settling_time to final_L0
    return [(traj, ExperimentReport(method, experiment, *cell, sim.dt, threshold, TAIL_FRACTION,
                                    summary, _resolved_config(experiment, method, cfg, sim, dist)))
            for (method, cfg, summary), traj, cell in zip(configured, trajs, metrics.results())]


def run_cell(experiment: str, method: str, gain_overrides: dict | None = None,
             sim_overrides: dict | None = None) -> tuple[Trajectory, ExperimentReport]:
    """Run one preset (experiment, method) cell and compute its report."""
    return run_cells(experiment, [(method, gain_overrides)], sim_overrides)[0]


def write_cell_outputs(outdir, experiment: str, method: str,
                       traj: Trajectory, report: ExperimentReport) -> dict:
    """Write ``<outdir>/<experiment>_<method>/{trajectory.csv,report.json}``."""
    cell_dir = Path(outdir) / f"{experiment}_{method}"
    cell_dir.mkdir(parents=True, exist_ok=True)
    traj_path = cell_dir / "trajectory.csv"
    report_path = cell_dir / "report.json"
    write_trajectory_csv(traj, traj_path)
    report_path.write_text(report.to_json() + "\n")
    return {"trajectory": str(traj_path), "report": str(report_path)}
