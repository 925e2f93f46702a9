"""Benchmark entry point.

    python3 perfbench/run.py --workload {reproduce,sweep,certify} --seed N \
        --seconds S --trace {0,1} [--save results.jsonl]

Run from the root of a checkout: the package is imported from ``src/``.
With ``--trace 0`` the job is repeated untraced while another repetition
fits in ``--seconds`` and the end-to-end metrics are printed; with
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the per-layer metrics are printed, with the tracing overhead.
Every repetition's outputs are checked.  With ``--trace 0`` the job's times
are scaled to the reference speed of ``calibrate.py``, measured while the
job runs, and each set-up to the time of a reference set-up run just before
it.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name each metric with its unit, the failure ratio and the provenance.
"""

from __future__ import annotations

import os

# One BLAS thread: the package is single-threaded and the box is shared.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# This directory is on sys.path as the script's own.
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "smoothsmc"
SETUP_REPS = 15
# Nominal time of the reference set-up; ``setup_s`` is in seconds at the
# speed where it takes this long.  A unit, like ``calibrate.REFERENCE_S``.
REFERENCE_SETUP_S = 0.1
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOADS = {
    # name: (input generator, job, work item, work items per job)
    "reproduce": (workloads.reproduce_inputs, workloads.reproduce_job, "steps",
                  lambda i: sum(round(i["horizon"] / i["dt"]) for _ in i["cells"])),
    "sweep": (workloads.sweep_inputs, workloads.sweep_job, "steps",
              lambda i: sum(len(v) for _, v in i["sweeps"]) * round(i["horizon"] / workloads.DT)),
    "certify": (workloads.certify_inputs, workloads.certify_job, "certs",
                lambda i: len(i["gain_sets"])),
}


def import_package() -> SimpleNamespace:
    """The package and the modules the workloads and the tracer use."""
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("cli", "experiments", "laws", "sim", "certificate", "linalg", "metrics")}
    return SimpleNamespace(smoothsmc=sys.modules[PACKAGE], **mods)


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workloads.params(args.workload),
    }


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def check(api, name: str, inputs: dict, out) -> list:
    """Failure messages per operation of one job repetition."""
    if name == "reproduce":
        summary = workloads.reproduce_summary(out)
        return list(workloads.check_reproduce(summary, load_reference()["reproduce"]).values())
    if name == "sweep":
        flags = workloads.sweep_expected_flags(api, inputs)
        ref = load_reference()["sweep"] if inputs["seed"] == workloads.REFERENCE_SEED else None
        return workloads.check_sweep(out, inputs, flags, ref)
    return workloads.check_certify(workloads.certify_summary(api, out))


def durations(laps) -> list[list[float]]:
    return [[end - start for start, end in rep] for rep in laps]


def job_time(laps: list[list[float]]) -> float:
    """The job's time: the sum over its operations of each operation's
    median over the repetitions."""
    return sum(statistics.median(op) for op in zip(*laps))


SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import run
t0 = time.perf_counter()
run.import_package()
run.WORKLOADS[{workload!r}][0]({seed})
print(time.perf_counter() - t0)
"""

# The reference set-up: importing numpy alone, the bulk of the package's
# set-up and code no change to the package can alter.
REFERENCE_PROBE = """
import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""


def probe(code: str) -> float:
    """Time a fresh interpreter running ``code`` reports."""
    return float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, timeout=60).stdout)


def setup_times(workload: str, seed: int, reps: int) -> tuple[list[float], list[float]]:
    """Import of the package (numpy included) plus input generation, each in
    a fresh interpreter, as a user's process pays it; and the reference
    set-up run just before each."""
    code = SETUP_PROBE.format(src=str(ROOT / "src"), here=str(HERE), workload=workload, seed=seed)
    ref, setups = [], []
    for _ in range(reps):
        ref.append(probe(REFERENCE_PROBE))
        setups.append(probe(code))
    return setups, ref


class Runner:
    """Repeats one workload's job and checks every repetition."""

    def __init__(self, api, name: str, inputs: dict):
        self.api, self.name, self.inputs = api, name, inputs
        self.job = WORKLOADS[name][1]
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first_rss_mb = None

    def repeat(self, seconds: float, calibrated: bool):
        """Operation laps (``(start, end)`` clock readings) of each
        repetition, and the sampler, which holds the calibration samples
        taken meanwhile when ``calibrated``.  Repetitions start while the
        last one's time still fits before ``seconds`` have passed; at least
        one runs."""
        laps = []
        sampler = calibrate.Sampler()
        start = perf_counter()
        with sampler if calibrated else contextlib.nullcontext():
            workloads.Laps.clock = sampler.clock
            try:
                while True:
                    t0 = perf_counter()
                    laps.append(self.once())
                    now = perf_counter()
                    if now + (now - t0) > start + seconds:
                        return laps, sampler
            finally:
                workloads.Laps.clock = perf_counter

    def once(self) -> list[tuple[float, float]]:
        """One checked repetition of the job; its operation laps."""
        WORK_ROOT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        try:
            out, times = self.job(self.api, self.inputs, workdir)
            for errs in check(self.api, self.name, self.inputs, out):
                self.attempted += 1
                if errs:
                    self.failed += 1
                    self.messages.extend(errs)
            del out
            if self.first_rss_mb is None:
                # The high-water mark grows with the repetition count as
                # the allocator fragments, so read it after the first.
                self.first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            shutil.rmtree(workdir)
        return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None,
                        help="append the result with its provenance to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    make_inputs, _, item, items_of = WORKLOADS[args.workload]
    if args.trace == 0:
        setups, ref_setups = setup_times(args.workload, args.seed, SETUP_REPS)
    api = import_package()
    inputs = make_inputs(args.seed)
    items = items_of(inputs)

    runner = Runner(api, args.workload, inputs)
    try:
        if args.trace == 0:
            laps, sampler = runner.repeat(args.seconds, calibrated=True)
            samples = [s for _, s in sampler.stamps]
            raw = {"job_s": job_time(durations(laps)), "kernel_s": statistics.median(samples),
                   "setup_s": statistics.median(setups),
                   "reference_setup_s": statistics.median(ref_setups)}
            wall = job_time([calibrate.scale(rep, sampler.stamps) for rep in laps])
            values = {
                "wall_s": wall,
                "items_per_s": items / wall,
                "setup_s": REFERENCE_SETUP_S * statistics.median(
                    s / r for s, r in zip(setups, ref_setups)),
                "peak_rss_mb": runner.first_rss_mb,
            }
            wanted = spec["end_to_end"]
            reps = f"{len(laps)}, {len(samples)} calibration samples"
        else:
            # Uncalibrated: a kernel call inside a span would count as the
            # package's time.
            laps, _ = runner.repeat(args.seconds / 2, calibrated=False)
            tracer = spans.Tracer()
            tracer.install(PACKAGE)
            try:
                traced, _ = runner.repeat(args.seconds / 2, calibrated=False)
            finally:
                tracer.remove()
            raw = {"job_s": job_time(durations(laps))}
            values = spans.layer_metrics(tracer, len(traced))
            values["trace.wall_s"] = job_time(durations(traced))
            values["trace.overhead_s"] = values["trace.wall_s"] - raw["job_s"]
            wanted = spec["per_layer"]
            reps = f"{len(laps)} untraced and {len(traced)} traced"
    finally:
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    prov = provenance(args)

    for message in runner.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {reps}  {items} {item} per job")
    print("unscaled " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + f"  (references: kernel_s {calibrate.REFERENCE_S:g}, "
          f"reference_setup_s {REFERENCE_SETUP_S:g})")
    for name, m in metrics.items():
        note = f"  ({item} per second)" if name == "items_per_s" else ""
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_ratio':42s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.save is not None:
        with open(args.save, "a") as fh:
            fh.write(json.dumps({"provenance": prov, "result": result, "unscaled": raw},
                                sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
