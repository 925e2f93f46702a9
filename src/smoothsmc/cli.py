"""Command-line surface: run experiments, certify gain sets, compare methods,
sweep parameters and reproduce the built-in experiments.  CSV/JSON outputs
are the plotting contract; nothing is rendered here.

Exit codes: 0 success, 1 usage error (a rejected flag, file or value),
2 numerical abort, 3 qualitative-ordering check failed (compare only).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .certificate import build_certificate, estimate_convergence
from .experiments import (
    EXPERIMENTS,
    METHODS,
    PAIRS,
    build_gain_config,
    build_sim_config,
    certificate_summary,
    method_gain_config,
    run_cell,
    run_cells,
    run_configured_cells,
    write_cell_outputs,
)
from .laws import GainConfig
from .metrics import METRIC_COLUMNS, comparison_csv, metric_cells
from .sim import DisturbanceSpec, SimConfig, SimulationAborted

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ORDERING = 3

GAIN_FLAGS = ("m", "k1", "k2", "k3", "k4", "kappa", "epsilon", "l0_init")
SIM_FLAGS = ("dt", "horizon", "log_stride")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we own the exit codes."""

    def error(self, message):
        raise UsageError(message)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_gain_args(p: argparse.ArgumentParser):
    p.add_argument("--m", type=float, default=None,
                   help="homogeneity degree (m=2 baseline, m>2 smooth)")
    for name in ("k1", "k2", "k3", "k4"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None, help="adaptation rate")
    p.add_argument("--epsilon", type=float, default=None, help="adaptation dead-zone radius")
    p.add_argument("--l0-init", dest="l0_init", type=float, default=None,
                   help="initial adaptive gain")


def _add_sim_args(p: argparse.ArgumentParser):
    p.add_argument("--dt", type=float, default=None, help="integration step (s)")
    p.add_argument("--horizon", type=float, default=None, help="simulation horizon (s)")
    p.add_argument("--log-stride", dest="log_stride", type=int, default=None,
                   help="write every Nth step to trajectory.csv (metrics use every step)")


def build_parser() -> _Parser:
    parser = _Parser(prog="smoothsmc",
                     description="Adaptive smooth second-order sliding-mode toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one (experiment, method) cell")
    run.add_argument("--experiment", choices=[*EXPERIMENTS, "custom"], default=None)
    run.add_argument("--method", choices=list(METHODS), default=None)
    run.add_argument("--config", type=Path, default=None,
                     help="JSON run spec; explicit flags override its values")
    run.add_argument("--out", type=Path, default=None, help="output directory")
    run.add_argument("--x1-init", dest="x1_init", default=None,
                     help="comma-separated initial state (custom runs)")
    run.add_argument("--disturbance", default=None,
                     help="JSON disturbance spec (custom runs)")
    _add_gain_args(run)
    _add_sim_args(run)

    cert = sub.add_parser("certify", help="evaluate the gain certificate")
    _add_gain_args(cert)
    cert.add_argument("--v0", type=_finite, default=None,
                      help="initial Lyapunov value for the settling bound")
    cert.add_argument("--delta", type=_finite, default=None,
                      help="disturbance norm bound for the residual set")
    cert.add_argument("--l0", type=_finite, default=None,
                      help="gain level at which to freeze the decrease coefficients")
    cert.add_argument("--l0-dot", dest="l0_dot", type=_finite, default=None,
                      help="adaptation rate at the freeze point (default kappa)")
    cert.add_argument("--theta1", type=_finite, default=None)
    cert.add_argument("--theta2", type=_finite, default=None)

    cmp_ = sub.add_parser("compare", help="run several methods on one experiment")
    cmp_.add_argument("--experiment", choices=list(EXPERIMENTS), required=True)
    cmp_.add_argument("--methods", required=True,
                      help="comma-separated method list (>= 2)")
    cmp_.add_argument("--out", type=Path, default=None)
    _add_gain_args(cmp_)
    _add_sim_args(cmp_)

    swp = sub.add_parser("sweep", help="grid over one parameter")
    swp.add_argument("--parameter", choices=["m", "k4", "kappa", "epsilon"], required=True)
    swp.add_argument("--values", required=True, help="comma-separated grid")
    swp.add_argument("--experiment", choices=list(EXPERIMENTS), default="exp1")
    swp.add_argument("--method", choices=list(METHODS), default="amssosmc")
    swp.add_argument("--out", type=Path, default=None)
    _add_gain_args(swp)
    _add_sim_args(swp)

    rep = sub.add_parser("reproduce", help="run every experiment's pair and the certificate")
    rep.add_argument("--out", type=Path, default=Path("results"))
    rep.add_argument("--dt", type=float, default=None, help="integration step (s)")
    rep.add_argument("--horizon", type=float, default=None, help="simulation horizon (s)")

    return parser


def _gain_overrides(args) -> dict:
    mapping = {"l0_init": "L0_init"}
    out = {}
    for flag in GAIN_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            out[mapping.get(flag, flag)] = value
    return out


def _sim_overrides(args) -> dict:
    return {flag: getattr(args, flag, None) for flag in SIM_FLAGS
            if getattr(args, flag, None) is not None}


def _parse_vector(text: str):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse vector {text!r}: {exc}") from exc


def _config_section(spec: dict, name: str, cls) -> dict:
    """``spec[name]``, a JSON object whose keys are fields of ``cls``."""
    section = spec.get(name, {})
    if not isinstance(section, dict):
        raise UsageError(f"--config {name!r} must be a JSON object")
    unknown = section.keys() - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise UsageError(f"--config {name!r} has unknown keys {sorted(unknown)}")
    return dict(section)


def cmd_run(args) -> int:
    file_spec = {}
    if args.config is not None:
        try:
            file_spec = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"--config {args.config}: {exc}") from exc
        if not isinstance(file_spec, dict):
            raise UsageError(f"--config {args.config}: expected a JSON object")

    experiment = args.experiment or file_spec.get("experiment")
    method = args.method or file_spec.get("method")
    if not (isinstance(experiment, str) and isinstance(method, str)):
        raise UsageError("run needs --experiment and --method (flags or config file)")
    outdir = args.out or file_spec.get("out") or "results"
    if not isinstance(outdir, (str, Path)):
        raise UsageError("the output directory must be a path")

    gains = _config_section(file_spec, "gains", GainConfig)
    gains.update(_gain_overrides(args))
    sim_over = _config_section(file_spec, "sim", SimConfig)
    sim_over.update(_sim_overrides(args))

    if experiment == "custom":
        x1_text = args.x1_init or file_spec.get("x1_init")
        dist_spec = args.disturbance or file_spec.get("disturbance")
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r}")
        if x1_text is None or dist_spec is None:
            raise UsageError("custom runs need --x1-init and --disturbance")
        sim_over["x1_init"] = _parse_vector(x1_text) if isinstance(x1_text, str) else x1_text
        sim = build_sim_config(**sim_over)
        dist_dict = json.loads(dist_spec) if isinstance(dist_spec, str) else dist_spec
        dist = DisturbanceSpec.from_dict(dist_dict, n=sim.n)
        cfg = method_gain_config(method, gains)
        traj, report = run_configured_cells("custom", [(method, cfg)], sim, dist)[0]
    else:
        traj, report = run_cell(experiment, method, gain_overrides=gains, sim_overrides=sim_over)

    paths = write_cell_outputs(outdir, report.scenario_id, method, traj, report)
    print(json.dumps({"written": paths, "report": report.to_dict()}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_certify(args) -> int:
    gains = _gain_overrides(args)
    cfg = build_gain_config(gains.pop("m", 3.0), **gains)

    payload: dict = {"gains": dataclasses.asdict(cfg)}
    del payload["gains"]["allow_uncertified"]
    if cfg.m > 2:
        cert = build_certificate(cfg)
        payload.update(cert.to_dict())
        payload["certified"] = cert.certified
        if args.v0 is not None:
            delta = args.delta if args.delta is not None else 0.0
            estimate = estimate_convergence(cert, cfg, args.v0, delta,
                                            L0=args.l0, L0_dot=args.l0_dot,
                                            theta1=args.theta1, theta2=args.theta2)
            payload["convergence"] = estimate.to_dict()
    else:
        payload.update(certificate_summary(cfg))
        payload["certified"] = False
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    gain_over = _gain_overrides(args)
    results = run_cells(args.experiment, [(method, gain_over) for method in methods],
                        sim_overrides=_sim_overrides(args))
    reports = [report for _, report in results]
    if args.out is not None:
        for method, (traj, report) in zip(methods, results):
            write_cell_outputs(args.out, args.experiment, method, traj, report)

    table = comparison_csv(reports)
    if args.out is not None:
        out_path = Path(args.out) / f"comparison_{args.experiment}.csv"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(table)
    print(table, end="")

    by_method = {r.method_id: r for r in reports}
    for smooth, baseline in PAIRS.values():
        if smooth in by_method and baseline in by_method:
            if not by_method[smooth].chattering_index < by_method[baseline].chattering_index:
                print(f"ordering violated: chattering({smooth}) >= chattering({baseline})",
                      file=sys.stderr)
                return EXIT_ORDERING
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = _parse_vector(args.values)
    if not values:
        raise UsageError("sweep grid is empty")
    base_gains = _gain_overrides(args)
    cells = [(args.method, {**base_gains, args.parameter: value}) for value in values]
    results = run_cells(args.experiment, cells, sim_overrides=_sim_overrides(args),
                        lyapunov=False)
    rows = [",".join(("parameter", "value", "gain_condition", "reason", *METRIC_COLUMNS))]
    for value, (_, report) in zip(values, results):
        chk = report.certificate_summary["gain_condition"]
        rows.append(",".join([args.parameter, format(value, ".17g"), str(chk["holds"]).lower(),
                              chk["reason"], *metric_cells(report)]))
    table = "\n".join(rows) + "\n"
    if args.out is not None:
        out_path = Path(args.out) / f"sweep_{args.parameter}.csv"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(table)
    print(table, end="")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    """Each experiment's smooth method and baseline as one batch, plus the
    certificate of the default gains, written under ``--out``."""
    args.out.mkdir(parents=True, exist_ok=True)
    cert = build_certificate(build_gain_config(3.0))
    (args.out / "certificate.json").write_text(
        json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"certificate: condition holds={cert.gain_condition.holds}, "
          f"all blocks PD={cert.all_pd}")
    for experiment in EXPERIMENTS:
        pair = PAIRS[EXPERIMENTS[experiment]]
        results = run_cells(experiment, [(method, None) for method in pair],
                            sim_overrides=_sim_overrides(args))
        for method, (traj, report) in zip(pair, results):
            write_cell_outputs(args.out, experiment, method, traj, report)
            settle = ("not settled" if report.settling_time is None
                      else f"{report.settling_time:.3f}s")
            print(f"{experiment}/{method}: settle={settle} "
                  f"bound={report.ultimate_bound:.3e} "
                  f"chattering={report.chattering_index:.3g} "
                  f"L0={report.final_L0:.2f}")
        (args.out / f"comparison_{experiment}.csv").write_text(
            comparison_csv([report for _, report in results]))
    print(f"outputs under {args.out}/")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "certify":
            return cmd_certify(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "reproduce":
            return cmd_reproduce(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError, OSError) as exc:  # a bad value or an unusable path
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationAborted as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
