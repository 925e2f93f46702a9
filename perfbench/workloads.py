"""The three benchmark workloads: seeded input generation, the timed job, and
the output checks.

Input generation uses only the standard library, so equal seeds give equal
inputs on every platform.  Jobs reach the package through the module objects
they are handed (``api.smoothsmc``, ``api.cli``, ...) and look every function
up at call time, so the traced run sees the calls once it has wrapped them.
Checks take plain data and return one list of failure messages per operation,
so each can be tested on a hand-perturbed result.  numpy is imported inside
the functions that need it, so that importing this module does not import it
ahead of the package whose set-up time is measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path
from time import perf_counter

# Package defaults; the known defects listed in NOTES.md live outside them.
DT = 1e-3
LOG_STRIDE = 1

# --- reproduce ---------------------------------------------------------------
CELLS = (
    ("exp1", "amssosmc"), ("exp1", "amstsmc-baseline"),
    ("exp2", "amssosmc"), ("exp2", "amstsmc-baseline"),
    ("exp3", "amsdo"), ("exp3", "amdo-baseline"),
)
SMOOTH_VS_BASELINE = (
    ("exp1", "amssosmc", "amstsmc-baseline"),
    ("exp2", "amssosmc", "amstsmc-baseline"),
    ("exp3", "amsdo", "amdo-baseline"),
)
REPRODUCE_HORIZON = 10.0
REPORT_FIELDS = ("settling_time", "ultimate_bound", "chattering_index", "final_L0")

# --- sweep -------------------------------------------------------------------
SWEEPS = (
    {"parameter": "k4", "low": 20.0, "high": 40.0, "experiment": "exp2", "method": "amssosmc"},
    {"parameter": "kappa", "low": 5.0, "high": 15.0, "experiment": "exp3", "method": "amsdo"},
)
SWEEP_POINTS = 12
SWEEP_HORIZON = 5.0
SWEEP_HEADER = ("parameter,value,gain_condition,reason,settling_time,ultimate_bound,"
                "chattering_index,final_L0,dt")
SWEEP_NUMERIC = (4, 5, 6, 7, 8)  # settling_time .. dt
REFERENCE_SEED = 0

# --- certify -----------------------------------------------------------------
CERT_SETS = 2000
M_RANGE = (2.2, 4.0)
GAIN_DEFAULTS = {"k1": 2.0, "k2": 2.5, "k3": 4.0, "k4": 30.0}
GAIN_SCALE = (0.5, 1.5)
# Estimated at the package's default freeze point (L0 = L0_init, adaptation
# at full rate), where it is vacuous for these gains: the certify workload
# measures certificates, not the residual-split solver.
CONVERGENCE = {"v0": 50.0, "delta": 0.3}
BLOCKS = ("P", "Q", "Omega1", "Omega2")

# --- tolerances --------------------------------------------------------------
# Report values may move by this relative amount (arithmetic reordering) but
# not more; settling times may move by at most two logged samples.
REL_TOL = 1e-6
SETTLE_TOL = 2 * DT
# Jacobi eigenvalues against numpy.linalg.eigvalsh, relative to the largest
# eigenvalue magnitude of the block.
SPECTRUM_TOL = 1e-10
# Positive definiteness as the package defines it (``is_positive_definite``).
PD_REL_TOL = 1e-12


def close(value, reference, rel=REL_TOL) -> bool:
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


# =============================================================================
# Input generation
# =============================================================================

def reproduce_inputs(seed: int) -> dict:
    """The six paper cells; the paper fixes them, so the seed does not apply."""
    return {"cells": CELLS, "dt": DT, "horizon": REPRODUCE_HORIZON, "log_stride": LOG_STRIDE}


def sweep_inputs(seed: int) -> dict:
    """One value drawn in each of ``SWEEP_POINTS`` equal parts of the range.
    A cell's cost depends on its gain, so independent draws made the job's
    time depend on the seed by several per cent; one draw per part keeps
    every seed's grid spread over the whole range."""
    rng = random.Random(seed)

    def grid(low, high):
        width = (high - low) / SWEEP_POINTS
        return tuple(low + (i + rng.random()) * width for i in range(SWEEP_POINTS))

    return {"seed": seed, "horizon": SWEEP_HORIZON,
            "sweeps": tuple((spec, grid(spec["low"], spec["high"])) for spec in SWEEPS)}


def certify_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    lo, hi = GAIN_SCALE
    sets = []
    for _ in range(CERT_SETS):
        m = rng.uniform(*M_RANGE)
        gains = {k: v * rng.uniform(lo, hi) for k, v in GAIN_DEFAULTS.items()}
        sets.append((m, gains))
    return {"gain_sets": tuple(sets), **CONVERGENCE}


def params(name: str) -> dict:
    """Workload parameters recorded with every result."""
    if name == "reproduce":
        return {"cells": [f"{e}/{m}" for e, m in CELLS], "dt": DT,
                "horizon": REPRODUCE_HORIZON, "log_stride": LOG_STRIDE}
    if name == "sweep":
        return {"sweeps": list(SWEEPS), "points": SWEEP_POINTS, "horizon": SWEEP_HORIZON,
                "dt": DT, "log_stride": LOG_STRIDE}
    return {"gain_sets": CERT_SETS, "m_range": list(M_RANGE), "gain_defaults": GAIN_DEFAULTS,
            "gain_scale": list(GAIN_SCALE), **CONVERGENCE}


# =============================================================================
# Jobs (timed).  Each returns its raw results and the laps of its operations
# as (start, end) clock readings (contiguous, so they cover the job's time).
# An operation that raised is kept as its exception so the check counts it.
# =============================================================================

class Laps:
    """Contiguous laps from creation on, read from ``Laps.clock`` (the
    runner sets a clock that leaves calibration time out)."""

    clock = staticmethod(perf_counter)

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self._last = Laps.clock()

    def lap(self):
        now = Laps.clock()
        self.spans.append((self._last, now))
        self._last = now


def reproduce_job(api, inputs: dict, workdir: Path):
    """Run, write and re-read the six cells as the reproduction script and a
    plotting step would.  Operations: each cell's run, each cell's write,
    the comparison tables and certificate, each cell's read."""
    laps = Laps()
    sm = api.smoothsmc
    sim = {"dt": inputs["dt"], "horizon": inputs["horizon"], "log_stride": inputs["log_stride"]}
    cells = {}
    for i, (experiment, method) in enumerate(inputs["cells"]):
        try:
            traj, report = sm.run_cell(experiment, method, sim_overrides=sim)
            laps.lap()
            paths = sm.write_cell_outputs(workdir, experiment, method, traj, report)
            cells[(experiment, method)] = (traj, report, paths["trajectory"])
        except Exception as exc:  # counted as a failed operation by the check
            cells[(experiment, method)] = exc
        while len(laps.spans) < 2 * (i + 1):  # a failed cell still has two laps
            laps.lap()
    for experiment in sorted({e for e, _ in inputs["cells"]}):
        reports = [c[1] for (e, _), c in cells.items()
                   if e == experiment and not isinstance(c, Exception)]
        (workdir / f"comparison_{experiment}.csv").write_text(sm.comparison_csv(reports))
    cert = sm.build_certificate(api.experiments.build_gain_config(3.0))
    (workdir / "certificate.json").write_text(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
    laps.lap()
    loaded = {}
    for key, cell in cells.items():
        if not isinstance(cell, Exception):
            loaded[key] = sm.load_trajectory_csv(cell[2])
        laps.lap()
    return {"cells": cells, "loaded": loaded}, laps.spans


def sweep_job(api, inputs: dict, workdir: Path):
    """Two in-process ``smoothsmc sweep`` calls without ``--out``; each call
    is one operation, so a sweep run as one batch stays one operation."""
    laps = Laps()
    outputs = []
    for spec, values in inputs["sweeps"]:
        argv = ["sweep", "--parameter", spec["parameter"],
                "--values", ",".join(format(v, ".17g") for v in values),
                "--experiment", spec["experiment"], "--method", spec["method"],
                "--horizon", format(inputs["horizon"], ".17g")]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = api.cli.main(argv)
            except Exception as exc:
                code = repr(exc)
        outputs.append((code, buf.getvalue()))
        laps.lap()
    return outputs, laps.spans


def certify_job(api, inputs: dict, workdir: Path):
    """Certificate for every gain set, plus a convergence estimate when every
    block is positive definite.  Each gain set is one operation."""
    laps = Laps()
    sm = api.smoothsmc
    build = api.experiments.build_gain_config
    results = []
    for m, gains in inputs["gain_sets"]:
        try:
            cfg = build(m, **gains)
            cert = sm.build_certificate(cfg)
            est = None
            if cert.all_pd:
                est = sm.estimate_convergence(cert, cfg, inputs["v0"], inputs["delta"])
            results.append((cfg, cert, est))
        except Exception as exc:
            results.append(exc)
        laps.lap()
    return results, laps.spans


# =============================================================================
# Summaries: reduce a job's raw results to plain data (not timed)
# =============================================================================

def reproduce_summary(out: dict) -> dict:
    import numpy as np

    summary = {}
    for (experiment, method), cell in out["cells"].items():
        key = f"{experiment}/{method}"
        if isinstance(cell, Exception):
            summary[key] = {"error": repr(cell)}
            continue
        traj, report, _ = cell
        loaded = out["loaded"][(experiment, method)]
        same = all(
            (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))
            for a, b in ((getattr(traj, c), getattr(loaded, c))
                         for c in ("times", "x1", "u", "d_true", "d_hat", "L0", "V"))
        )
        summary[key] = {f: getattr(report, f) for f in REPORT_FIELDS}
        summary[key]["csv_round_trip"] = same
    return summary


def sweep_expected_flags(api, inputs: dict) -> list:
    """Gain-condition flag per row, from ``check_gain_condition`` directly."""
    flags = []
    for spec, values in inputs["sweeps"]:
        m = api.experiments.METHODS[spec["method"]]["m"]
        flags.append([api.laws.check_gain_condition(
            api.experiments.build_gain_config(m, **{spec["parameter"]: v})).holds
            for v in values])
    return flags


def certify_summary(api, out: list) -> list:
    import numpy as np

    summary = []
    for item in out:
        if isinstance(item, Exception):
            summary.append({"error": repr(item)})
            continue
        cfg, cert, est = item
        blocks = dict(zip(BLOCKS, (cert.P_block, cert.Q_block, cert.Omega1_block, cert.Omega2_block)))
        eigs = dict(zip(BLOCKS, (cert.P_eig, cert.Q_eig, cert.Omega1_eig, cert.Omega2_eig)))
        summary.append({
            "spectra": {b: list(eigs[b].spectrum) for b in BLOCKS},
            "oracle": {b: np.linalg.eigvalsh(blocks[b].entries).tolist() for b in BLOCKS},
            "gain_condition": api.laws.check_gain_condition(cfg).holds,
            "certified": cert.certified,
            "estimate": None if est is None else [est.c1, est.c2, est.c3],
        })
    return summary


# =============================================================================
# Checks: one list of failure messages per operation
# =============================================================================

def check_reproduce(summary: dict, reference: dict) -> dict:
    failures = {key: [] for key in summary}
    for key, got in summary.items():
        if "error" in got:
            failures[key].append(got["error"])
            continue
        ref = reference[key]
        for field in REPORT_FIELDS:
            a, b = got[field], ref[field]
            if a is None or b is None:
                ok = a is None and b is None
            elif field == "settling_time":
                ok = abs(a - b) <= SETTLE_TOL
            else:
                ok = close(a, b)
            if not ok:
                failures[key].append(f"{field} {a!r} != reference {b!r}")
        if not got["csv_round_trip"]:
            failures[key].append("trajectory.csv does not read back bit for bit")
    for experiment, smooth, baseline in SMOOTH_VS_BASELINE:
        s, b = summary.get(f"{experiment}/{smooth}"), summary.get(f"{experiment}/{baseline}")
        if s and b and "error" not in s and "error" not in b:
            if not s["chattering_index"] < b["chattering_index"]:
                failures[f"{experiment}/{smooth}"].append(
                    f"chatters no less than {baseline}: {s['chattering_index']!r} "
                    f">= {b['chattering_index']!r}")
    return failures


def parse_sweep(text: str) -> list:
    lines = text.strip().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return []
    return [line.split(",") for line in lines[1:]]


def check_sweep(outputs: list, inputs: dict, flags: list, reference: list | None) -> list:
    """``reference`` holds the CSV rows recorded for the reference seed, or
    None for any other seed."""
    failures = []
    for i, ((spec, values), (code, text)) in enumerate(zip(inputs["sweeps"], outputs)):
        rows = parse_sweep(text)
        for j, value in enumerate(values):
            errs = []
            if code != 0:
                errs.append(f"exit code {code!r}")
            elif j >= len(rows) or len(rows) != len(values):
                errs.append(f"{len(rows)} rows for {len(values)} values")
            else:
                row = rows[j]
                if row[0] != spec["parameter"] or float(row[1]) != value:
                    errs.append(f"row {row[:2]} is not {spec['parameter']}={value!r}")
                try:
                    nums = [float(row[k]) for k in SWEEP_NUMERIC]
                except ValueError:
                    nums = [math.nan]
                if not all(math.isfinite(x) for x in nums):
                    errs.append(f"non-finite row {row}")
                if row[2] != str(flags[i][j]).lower():
                    errs.append(f"gain_condition {row[2]} disagrees with check_gain_condition")
                if reference is not None and not errs:
                    ref = reference[i][j].split(",")
                    if row[:4] != ref[:4]:
                        errs.append(f"row {row[:4]} != reference {ref[:4]}")
                    elif not abs(nums[0] - float(ref[4])) <= SETTLE_TOL:
                        errs.append(f"settling_time {row[4]} != reference {ref[4]}")
                    elif not all(close(nums[k], float(ref[4 + k])) for k in range(1, len(nums))):
                        errs.append(f"row {row[4:]} != reference {ref[4:]}")
            failures.append(errs)
    return failures


def check_certify(summary: list) -> list:
    failures = []
    for item in summary:
        if "error" in item:
            failures.append([item["error"]])
            continue
        errs = []
        all_pd = True
        for block in BLOCKS:
            got, want = item["spectra"][block], item["oracle"][block]
            scale = max(abs(x) for x in want)
            if len(got) != len(want) or any(abs(a - b) > SPECTRUM_TOL * scale
                                            for a, b in zip(got, want)):
                errs.append(f"{block} spectrum {got} != eigvalsh {want}")
            all_pd = all_pd and want[0] > PD_REL_TOL * abs(want[-1])
        if item["certified"] != (item["gain_condition"] and all_pd):
            errs.append(f"certified={item['certified']} but gain condition="
                        f"{item['gain_condition']} and all blocks PD={all_pd}")
        est = item["estimate"]
        if all_pd and (est is None or not all(math.isfinite(x) for x in est)):
            errs.append(f"convergence estimate {est} is missing or not finite")
        failures.append(errs)
    return failures
