"""Built-in comparison experiments and the machinery to run (method,
scenario) cells, alone or as one batch, and report their metrics.

Three scenarios are built in, all on the three-dimensional integrator plant
from initial state [1, 3, 2]:

* ``exp1`` - controllers against a constant disturbance,
* ``exp2`` - controllers against a mixed-sinusoid disturbance,
* ``exp3`` - observers reconstructing a larger mixed-sinusoid disturbance.

Each smooth method (m=3) pairs with a super-twisting baseline that uses the
same gains with m=2.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .certificate import build_certificate
from .laws import GainConfig, check_gain_condition
from .metrics import ExperimentReport, chattering_index, settling_time, ultimate_bound
from .sim import (
    DisturbanceSpec,
    SimConfig,
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
    return build_gain_config(METHODS[method]["m"] if m is None else m, **overrides)


def build_sim_config(**overrides) -> SimConfig:
    params = {"x1_init": X1_INIT}
    params.update({k: v for k, v in overrides.items() if v is not None})
    return SimConfig(**params)


def validate_pairing(experiment: str, method: str) -> None:
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    need = EXPERIMENTS[experiment]
    got = METHODS[method]["kind"]
    if need != got:
        raise ValueError(
            f"{experiment} pairs with {need} methods; {method!r} is a {got}"
        )


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
        "sim": sim.to_dict(),
        "disturbance": dist.to_dict(),
    }


def run_cells(experiment: str, cells, sim_overrides: dict | None = None,
              lyapunov: bool = True) -> list[tuple[Trajectory, ExperimentReport]]:
    """Run several preset cells of one experiment as one batch and compute
    each cell's report.

    ``cells`` is a sequence of ``(method, gain_overrides)`` pairs, resolved by
    :func:`method_gain_config`.  ``lyapunov=False`` leaves out the V column,
    which no report reads, to save its time and memory.
    """
    configured = []
    for method, overrides in cells:
        validate_pairing(experiment, method)
        configured.append((method, method_gain_config(method, overrides)))
    sim = build_sim_config(**(sim_overrides or {}))
    dist = experiment_disturbance(experiment)
    return run_configured_cells(experiment, configured, sim, dist, lyapunov)


def run_cell(experiment: str, method: str, gain_overrides: dict | None = None,
             sim_overrides: dict | None = None) -> tuple[Trajectory, ExperimentReport]:
    """Run one preset (experiment, method) cell and compute its report."""
    return run_cells(experiment, [(method, gain_overrides)], sim_overrides)[0]


def run_configured_cells(scenario_id: str, cells, sim: SimConfig, dist: DisturbanceSpec,
                         lyapunov: bool = True) -> list[tuple[Trajectory, ExperimentReport]]:
    """Run fully specified ``(method, cfg)`` cells, all controllers or all
    observers, as one batch (also used for custom scenarios); smooth
    controller cells (m > 2) log V unless ``lyapunov`` is false.

    The metrics are computed on the full-rate records; the returned
    trajectories are thinned by ``sim.log_stride``, which changes no
    reported number.  This is the one place the stride is applied.
    """
    kinds = {METHODS[method]["kind"] for method, _ in cells}
    if len(kinds) != 1:
        raise ValueError("a batch holds one or more cells of one kind (controllers or observers)")
    cfgs = [cfg for _, cfg in cells]
    # each cell's norm series (settling time, ultimate bound) and vector series (chattering)
    if kinds == {"controller"}:
        trajs = simulate_closed_loop(cfgs, sim, dist, lyapunov)
        signals = [(np.linalg.norm(t.x1, axis=1), t.u) for t in trajs]
        threshold = CONTROLLER_SETTLE_REL * float((sim.x1_init @ sim.x1_init) ** 0.5)
    else:
        trajs = simulate_observer(cfgs, sim, dist)
        signals = [(np.linalg.norm(t.d_hat - t.d_true, axis=1), t.d_hat) for t in trajs]
        threshold = OBSERVER_SETTLE_ABS

    out = []
    for (method, cfg), traj, (norms, values) in zip(cells, trajs, signals):
        report = ExperimentReport(
            method_id=method,
            scenario_id=scenario_id,
            settling_time=settling_time(traj.times, norms, threshold),
            ultimate_bound=ultimate_bound(traj.times, norms, TAIL_FRACTION),
            chattering_index=chattering_index(traj.times, values, TAIL_FRACTION),
            final_L0=float(traj.L0[-1]) if traj.L0 is not None else None,
            dt_used=sim.dt,
            settling_threshold=threshold,
            tail_fraction=TAIL_FRACTION,
            certificate_summary=certificate_summary(cfg),
            config=_resolved_config(scenario_id, method, cfg, sim, dist),
        )
        out.append((traj.thinned(sim.log_stride), report))
    return out


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
