"""Command-line surface: run experiments, certify gain sets, compare methods,
sweep parameters and reproduce the built-in experiments.  It only parses,
dispatches and prints (CSV/JSON outputs are the plotting contract): each
flag's ``dest`` is what it sets, and the library checks every number.

Exit codes: 0 success, 1 usage error (a rejected flag, file or value),
2 numerical abort, 3 qualitative-ordering check failed (compare only).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
    run_cells,
    tail_cutoff,
    write_cell_outputs,
)
from .laws import GainConfig
from .metrics import METRIC_COLUMNS, comparison_csv, metric_cells
from .sim import SimConfig, SimulationAborted

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ORDERING = 3

GAIN_FLAGS = ("m", "k1", "k2", "k3", "k4", "kappa", "epsilon", "L0_init")
SIM_FLAGS = ("dt", "horizon", "log_stride")
ESTIMATE_FLAGS = ("v0", "delta", "L0", "L0_dot", "theta1", "theta2")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we own the exit codes."""

    def error(self, message):
        raise UsageError(message)


def _add_gain_args(p: argparse.ArgumentParser):
    p.add_argument("--m", type=float, help="homogeneity degree (m=2 baseline, m>2 smooth)")
    for name in ("k1", "k2", "k3", "k4"):
        p.add_argument(f"--{name}", type=float)
    p.add_argument("--kappa", type=float, help="adaptation rate")
    p.add_argument("--epsilon", type=float, help="adaptation dead-zone radius")
    p.add_argument("--l0-init", dest="L0_init", type=float, help="initial adaptive gain")


def _add_sim_args(p: argparse.ArgumentParser):
    p.add_argument("--dt", type=float, help="integration step (s)")
    p.add_argument("--horizon", type=float, help="simulation horizon (s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="smoothsmc",
                     description="Adaptive smooth second-order sliding-mode toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one (experiment, method) cell")
    run.set_defaults(handler=cmd_run)
    run.add_argument("--experiment", choices=[*EXPERIMENTS, "custom"])
    run.add_argument("--method", choices=list(METHODS))
    run.add_argument("--config", type=Path,
                     help="JSON run spec; explicit flags override its values")
    run.add_argument("--out", type=Path, help="output directory")
    run.add_argument("--x1-init", help="comma-separated initial state (required by custom runs)")
    run.add_argument("--disturbance", help="JSON disturbance spec (custom runs)")
    _add_gain_args(run)
    _add_sim_args(run)

    cert = sub.add_parser("certify", help="evaluate the gain certificate")
    cert.set_defaults(handler=cmd_certify)
    _add_gain_args(cert)
    cert.add_argument("--v0", type=float, help="initial Lyapunov value for the settling bound")
    cert.add_argument("--delta", type=float,
                      help="disturbance norm bound for the residual set")
    cert.add_argument("--l0", dest="L0", type=float,
                      help="gain level at which to freeze the decrease coefficients")
    cert.add_argument("--l0-dot", dest="L0_dot", type=float,
                      help="adaptation rate at the freeze point (default kappa)")
    cert.add_argument("--theta1", type=float)
    cert.add_argument("--theta2", type=float)

    cmp_ = sub.add_parser("compare", help="run several methods on one experiment")
    cmp_.set_defaults(handler=cmd_compare)
    cmp_.add_argument("--experiment", choices=list(EXPERIMENTS), required=True)
    cmp_.add_argument("--methods", required=True, help="comma-separated method list (>= 2)")
    cmp_.add_argument("--out", type=Path, help="output directory (--log-stride needs it)")
    _add_gain_args(cmp_)
    _add_sim_args(cmp_)

    swp = sub.add_parser("sweep", help="grid over one parameter")
    swp.set_defaults(handler=cmd_sweep)
    swp.add_argument("--parameter", choices=["m", "k4", "kappa", "epsilon"], required=True)
    swp.add_argument("--values", required=True, help="comma-separated grid")
    swp.add_argument("--experiment", choices=list(EXPERIMENTS), default="exp1")
    swp.add_argument("--method", choices=list(METHODS), default="amssosmc")
    swp.add_argument("--out", type=Path)
    _add_gain_args(swp)
    _add_sim_args(swp)

    rep = sub.add_parser("reproduce", help="run every experiment's pair and the certificate")
    rep.set_defaults(handler=cmd_reproduce)
    rep.add_argument("--out", type=Path, default=Path("results"))
    _add_sim_args(rep)

    for p in (run, cmp_):  # the commands that write a trajectory.csv the stride thins
        p.add_argument("--log-stride", type=int,
                       help="write every Nth step to trajectory.csv (metrics use every step)")

    return parser


def _overrides(args, names) -> dict:
    """The given flags among ``names``, keyed by the field each one sets."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _emit_table(table: str, out, name: str) -> None:
    """Print ``table`` and, with ``--out``, write it to ``<out>/<name>``."""
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(table)
    print(table, end="")


def _parse_vector(text: str):
    try:
        return [float(v) for v in text.split(",")]
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
    gains.update(_overrides(args, GAIN_FLAGS))
    sim_over = _config_section(file_spec, "sim", SimConfig)
    sim_over.update(_overrides(args, SIM_FLAGS))

    x1_init = args.x1_init or file_spec.get("x1_init")
    if x1_init is not None:
        sim_over["x1_init"] = _parse_vector(x1_init) if isinstance(x1_init, str) else x1_init
    dist = args.disturbance or file_spec.get("disturbance")
    traj, report = run_cells(experiment, [(method, gains)], sim_over,
                             disturbance=json.loads(dist) if isinstance(dist, str) else dist)[0]

    paths = write_cell_outputs(outdir, report.scenario_id, method, traj, report)
    print(json.dumps({"written": paths, "report": report.to_dict()}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_certify(args) -> int:
    gains = _overrides(args, GAIN_FLAGS)
    cfg = build_gain_config(gains.pop("m", 3.0), **gains)
    estimate = _overrides(args, ESTIMATE_FLAGS)
    if estimate and (cfg.m <= 2 or "v0" not in estimate):
        given = ", ".join("--" + name.lower().replace("_", "-") for name in estimate)
        needs = "--v0" if cfg.m > 2 else "--m above 2"
        raise UsageError(f"{given}: the convergence estimate needs {needs}")

    payload: dict = {"gains": dataclasses.asdict(cfg)}
    del payload["gains"]["allow_uncertified"]
    if cfg.m > 2:
        cert = build_certificate(cfg)
        payload.update(cert.to_dict())
        payload["certified"] = cert.certified
        if estimate:
            payload["convergence"] = estimate_convergence(
                cert, cfg, **{"delta": 0.0, **estimate}).to_dict()
    else:
        payload.update(certificate_summary(cfg))
        payload["certified"] = False
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    if args.log_stride is not None and args.out is None:
        raise UsageError("--log-stride thins the trajectory.csv files that --out writes; "
                         "compare writes none without --out")
    gain_over = _overrides(args, GAIN_FLAGS)
    results = run_cells(args.experiment, [(method, gain_over) for method in methods],
                        sim_overrides=_overrides(args, SIM_FLAGS), record=args.out is not None)
    reports = [report for _, report in results]
    if args.out is not None:
        for method, (traj, report) in zip(methods, results):
            write_cell_outputs(args.out, args.experiment, method, traj, report)

    _emit_table(comparison_csv(reports), args.out, f"comparison_{args.experiment}.csv")

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
    base_gains = _overrides(args, GAIN_FLAGS)
    if args.parameter in base_gains:
        raise UsageError(f"--{args.parameter} names the swept parameter; "
                         f"--parameter {args.parameter} takes its values from --values")
    cells = [(args.method, {**base_gains, args.parameter: value}) for value in values]
    results = run_cells(args.experiment, cells, sim_overrides=_overrides(args, SIM_FLAGS),
                        record=False)
    rows = [",".join(("parameter", "value", "gain_condition", "reason", *METRIC_COLUMNS))]
    for value, (_, report) in zip(values, results):
        chk = report.certificate_summary["gain_condition"]
        rows.append(",".join([args.parameter, format(value, ".17g"), str(chk["holds"]).lower(),
                              chk["reason"], *metric_cells(report)]))
    _emit_table("\n".join(rows) + "\n", args.out, f"sweep_{args.parameter}.csv")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    """Each experiment's smooth method and baseline as one batch, plus the
    certificate of the default gains, written under ``--out``."""
    sim_over = _overrides(args, SIM_FLAGS)
    tail_cutoff(build_sim_config(**sim_over))  # a bad or short --dt or --horizon writes nothing
    args.out.mkdir(parents=True, exist_ok=True)
    cert = build_certificate(build_gain_config(3.0))
    (args.out / "certificate.json").write_text(
        json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"certificate: condition holds={cert.gain_condition.holds}, "
          f"all blocks PD={cert.all_pd}")
    for experiment in EXPERIMENTS:
        pair = PAIRS[EXPERIMENTS[experiment]]
        results = run_cells(experiment, [(method, None) for method in pair], sim_over)
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
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
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
