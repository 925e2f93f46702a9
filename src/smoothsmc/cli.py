"""Command-line surface: run experiments, certify gain sets, compare methods,
sweep parameters and reproduce the built-in experiments.  CSV/JSON outputs
are the plotting contract; nothing is rendered here.

Exit codes: 0 success, 1 usage error, 2 numerical abort,
3 qualitative-ordering check failed (compare only).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificate import build_certificate, estimate_convergence
from .experiments import (
    EXPERIMENTS,
    METHODS,
    build_gain_config,
    build_sim_config,
    certificate_summary,
    run_cell,
    run_cells,
    run_configured_cell,
    write_cell_outputs,
)
from .metrics import comparison_csv
from .sim import DisturbanceSpec, SimulationAborted

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ORDERING = 3

GAIN_FLAGS = ("k1", "k2", "k3", "k4", "kappa", "epsilon", "l0_init")
SIM_FLAGS = ("dt", "horizon", "log_stride")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we own the exit codes."""

    def error(self, message):
        raise UsageError(message)


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
    cert.add_argument("--v0", type=float, default=None,
                      help="initial Lyapunov value for the settling bound")
    cert.add_argument("--delta", type=float, default=None,
                      help="disturbance norm bound for the residual set")
    cert.add_argument("--l0", type=float, default=None,
                      help="gain level at which to freeze the decrease coefficients")
    cert.add_argument("--l0-dot", dest="l0_dot", type=float, default=None,
                      help="adaptation rate at the freeze point (default kappa)")
    cert.add_argument("--theta1", type=float, default=None)
    cert.add_argument("--theta2", type=float, default=None)

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


def cmd_run(args) -> int:
    file_spec = {}
    if args.config is not None:
        try:
            file_spec = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"--config {args.config}: {exc}") from exc

    experiment = args.experiment or file_spec.get("experiment")
    method = args.method or file_spec.get("method")
    if experiment is None or method is None:
        raise UsageError("run needs --experiment and --method (flags or config file)")
    outdir = args.out or file_spec.get("out") or "results"

    gains = dict(file_spec.get("gains", {}))
    gains.update(_gain_overrides(args))
    m_override = args.m if args.m is not None else gains.pop("m", None)
    sim_over = dict(file_spec.get("sim", {}))
    sim_over.update(_sim_overrides(args))

    try:
        if experiment == "custom":
            x1_text = args.x1_init or file_spec.get("x1_init")
            dist_spec = args.disturbance or file_spec.get("disturbance")
            if method not in METHODS:
                raise UsageError(f"unknown method {method!r}")
            if x1_text is None or dist_spec is None:
                raise UsageError("custom runs need --x1-init and --disturbance")
            x1 = _parse_vector(x1_text) if isinstance(x1_text, str) else list(x1_text)
            dist_dict = json.loads(dist_spec) if isinstance(dist_spec, str) else dist_spec
            dist = DisturbanceSpec.from_dict(dist_dict, n=len(x1))
            cfg = build_gain_config(m_override if m_override is not None
                                    else METHODS[method]["m"], **gains)
            sim = build_sim_config(x1_init=x1, **sim_over)
            if dist.n != len(x1):
                raise UsageError("disturbance dimension does not match --x1-init")
            traj, report = run_configured_cell("custom", method, cfg, sim, dist)
        else:
            if m_override is not None:
                gains["m"] = m_override
            traj, report = run_cell(experiment, method,
                                    gain_overrides=gains, sim_overrides=sim_over)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    paths = write_cell_outputs(outdir, report.scenario_id, method, traj, report)
    print(json.dumps({"written": paths, "report": report.to_dict()}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_certify(args) -> int:
    gains = _gain_overrides(args)
    m = args.m if args.m is not None else 3.0
    if m <= 1:
        raise UsageError("m must exceed 1")
    try:
        cfg = build_gain_config(m, **gains)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    payload: dict = {"gains": {
        "m": cfg.m, "k1": cfg.k1, "k2": cfg.k2, "k3": cfg.k3, "k4": cfg.k4,
        "kappa": cfg.kappa, "epsilon": cfg.epsilon, "L0_init": cfg.L0_init,
    }}
    if cfg.m > 2:
        cert = build_certificate(cfg)
        payload.update(cert.to_dict())
        payload["certified"] = cert.certified
        if args.v0 is not None:
            delta = args.delta if args.delta is not None else 0.0
            try:
                estimate = estimate_convergence(cert, cfg, args.v0, delta,
                                                L0=args.l0, L0_dot=args.l0_dot,
                                                theta1=args.theta1, theta2=args.theta2)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            payload["convergence"] = estimate.to_dict()
    else:
        payload.update(certificate_summary(cfg))
        payload["certified"] = False
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# The smooth method and its baseline, per kind of method.
_PAIRS = {"controller": ("amssosmc", "amstsmc-baseline"),
          "observer": ("amsdo", "amdo-baseline")}


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    gain_over = _gain_overrides(args)
    if args.m is not None:
        gain_over["m"] = args.m
    try:
        results = run_cells(args.experiment, [(method, gain_over) for method in methods],
                            sim_overrides=_sim_overrides(args))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    for smooth, baseline in _PAIRS.values():
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
    if args.m is not None:
        base_gains["m"] = args.m
    cells = [(args.method, {**base_gains, args.parameter: value}) for value in values]
    try:
        results = run_cells(args.experiment, cells, sim_overrides=_sim_overrides(args),
                            lyapunov=False)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = ["parameter,value,gain_condition,reason,settling_time,ultimate_bound,"
            "chattering_index,final_L0,dt"]
    for value, (_, report) in zip(values, results):
        chk = report.certificate_summary["gain_condition"]
        settle = "not settled" if report.settling_time is None else format(report.settling_time, ".17g")
        rows.append(",".join([
            args.parameter, format(value, ".17g"), str(chk["holds"]).lower(), chk["reason"],
            settle, format(report.ultimate_bound, ".17g"),
            format(report.chattering_index, ".17g"),
            format(report.final_L0, ".17g"), format(report.dt_used, ".17g"),
        ]))
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
        pair = _PAIRS[EXPERIMENTS[experiment]]
        try:
            results = run_cells(experiment, [(method, None) for method in pair],
                                sim_overrides=_sim_overrides(args))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationAborted as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
