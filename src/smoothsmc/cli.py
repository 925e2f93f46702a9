"""Command-line surface: run experiments, certify gain sets, compare methods,
sweep parameters and reproduce the built-in experiments.  It only parses,
dispatches and prints (CSV/JSON outputs are the plotting contract): each
flag's ``dest`` is what it sets, and the library checks every number.

Exit codes: 0 success, 1 usage error (a rejected flag, file or value),
2 numerical abort, 3 qualitative-ordering check failed (compare only),
141 standard output closed by its reader (128 + SIGPIPE, as the shell reports).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
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
    configure_cell,
    run_cells,
    tail_cutoff,
    write_cell_outputs,
)
from .laws import GainConfig
from .metrics import METRIC_COLUMNS, comparison_csv, json_text, metric_cells
from .sim import SimConfig, SimulationAborted, refuse_other_keys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ORDERING = 3
EXIT_PIPE = 141

GAIN_FLAGS = ("m", "k1", "k2", "k3", "k4", "kappa", "epsilon", "L0_init")
SIM_FLAGS = ("dt", "horizon", "log_stride")
ESTIMATE_FLAGS = ("v0", "delta", "L0", "L0_dot", "theta1", "theta2")
CONFIG_KEYS = {"experiment", "method", "out", "x1_init", "disturbance", "gains", "sim"}


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
    refuse_other_keys(section, {f.name for f in dataclasses.fields(cls)}, f"--config {name!r}")
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
        refuse_other_keys(file_spec, CONFIG_KEYS, f"--config {args.config}")

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
    print(json_text({"written": paths, "report": report.to_dict()}), end="")
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
    cert = build_certificate(cfg) if cfg.m > 2 else None
    payload.update(certificate_summary(cfg) if cert is None else cert.to_dict())
    payload["certified"] = cert is not None and cert.certified
    if estimate:
        payload["convergence"] = estimate_convergence(
            cert, cfg, **{"delta": 0.0, **estimate}).to_dict()
    print(json_text(payload), end="")
    return EXIT_OK


def _run_methods(experiment: str, methods, gain_over: dict, sim_over: dict, out) -> list:
    """The reports of a preset experiment's methods, each run as its own cell
    (the single-cell kernel); with ``out``, each cell's files and the
    comparison table are written there once every cell has run.  Every method
    is resolved before any cell steps, as a batch's are, so a usage error wins
    over an abort; an abort names its method by its place in ``methods``."""
    for method in methods:
        configure_cell(experiment, method, gain_over)
    results = []
    for place, method in enumerate(methods):
        try:
            results.append(run_cells(experiment, [(method, gain_over)], sim_over,
                                     record=out is not None)[0])
        except SimulationAborted as exc:
            raise SimulationAborted(exc.step, exc.time, exc.state, place, exc.reason) from None
    reports = [report for _, report in results]
    if out is not None:
        for method, (traj, report) in zip(methods, results):
            write_cell_outputs(out, experiment, method, traj, report)
        (out / f"comparison_{experiment}.csv").write_text(comparison_csv(reports))
    return reports


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    if len(set(methods)) < len(methods):
        raise UsageError(f"--methods {args.methods} names a method more than once")
    if args.log_stride is not None and args.out is None:
        raise UsageError("--log-stride thins the trajectory.csv files that --out writes; "
                         "compare writes none without --out")
    reports = _run_methods(args.experiment, methods, _overrides(args, GAIN_FLAGS),
                           _overrides(args, SIM_FLAGS), args.out)
    print(comparison_csv(reports), end="")

    # distinct methods of the experiment's kind: its smooth method and baseline
    chattering = {r.method_id: r.chattering_index for r in reports}
    smooth, baseline = PAIRS[EXPERIMENTS[args.experiment]]
    if not chattering[smooth] < chattering[baseline]:
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
    table = "\n".join(rows) + "\n"
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"sweep_{args.parameter}.csv").write_text(table)
    print(table, end="")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    """Each experiment's smooth method and baseline, as ``compare`` runs
    them (:func:`_run_methods`), plus the certificate of the default gains,
    written under ``--out``."""
    sim_over = _overrides(args, SIM_FLAGS)
    tail_cutoff(build_sim_config(**sim_over))  # a bad or short --dt or --horizon writes nothing
    args.out.mkdir(parents=True, exist_ok=True)
    cert = build_certificate(build_gain_config(3.0))
    (args.out / "certificate.json").write_text(json_text(cert.to_dict()))
    print(f"certificate: condition holds={cert.gain_condition.holds}, "
          f"all blocks PD={cert.all_pd}")
    for experiment, kind in EXPERIMENTS.items():
        for report in _run_methods(experiment, PAIRS[kind], {}, sim_over, args.out):
            settle = ("not settled" if report.settling_time is None
                      else f"{report.settling_time:.3f}s")
            print(f"{experiment}/{report.method_id}: settle={settle} "
                  f"bound={report.ultimate_bound:.3e} "
                  f"chattering={report.chattering_index:.3g} "
                  f"L0={report.final_L0:.2f}")
    print(f"outputs under {args.out}/")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:  # an OSError, but the reader stopped: no usage error
        return EXIT_PIPE
    except (UsageError, ValueError, OSError) as exc:  # a bad value or an unusable path
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationAborted as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint():  # console-script shim
    code = main()
    if code == EXIT_PIPE:  # the unwritten output goes nowhere, not to a second BrokenPipeError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
