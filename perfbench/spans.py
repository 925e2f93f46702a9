"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the package from outside: it replaces
every module attribute that is the original function, so calls between
modules (``sim`` calling ``laws.controller_step``) go through the wrapper.
Nothing inside ``src/`` changes.

Two kinds of wrapper:

* a *span* records name, start, end and its parent span, kept in memory;
* a *counted* call is one made many times per cell (a law step, a
  disturbance evaluation, a Jacobi solve).  Its calls and time are summed
  into the enclosing span instead of being recorded one span each.  Counted
  functions are leaves: they must not call another wrapped function, and the
  tracer raises ``TraceError`` if one does, because its time would then be
  subtracted twice.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter


class TraceError(RuntimeError):
    pass


@dataclass(slots=True)
class Span:
    name: str
    id: int
    parent: int | None
    start: float
    end: float = 0.0
    counted: dict = field(default_factory=dict)  # counter name -> [calls, seconds]


def self_times(spans) -> dict:
    """Self time per span id: the span's duration minus the part of it its
    child spans cover, minus the time of counted calls made directly in it."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        counted = sum(c[1] for c in s.counted.values())
        out[s.id] = (s.end - s.start) - covered - counted
    return out


# (module, function, layer name, kind).  Both simulators report as one layer.
TARGETS = (
    ("laws", "controller_step", "laws.controller_step", "counted"),
    ("laws", "observer_step", "laws.observer_step", "counted"),
    ("sim", "disturbance_at", "sim.disturbance_at", "counted"),
    ("sim", "simulate_closed_loop", "sim.simulate", "span"),
    ("sim", "simulate_observer", "sim.simulate", "span"),
    ("sim", "write_trajectory_csv", "sim.write_trajectory_csv", "span"),
    ("sim", "load_trajectory_csv", "sim.load_trajectory_csv", "span"),
    ("certificate", "transform_state", "certificate.transform_state", "counted"),
    ("certificate", "lyapunov_value", "certificate.lyapunov_value", "counted"),
    ("certificate", "build_certificate", "certificate.build_certificate", "span"),
    ("certificate", "estimate_convergence", "certificate.estimate_convergence", "span"),
    ("linalg", "jacobi_eigh", "linalg.jacobi_eigh", "counted"),
    ("metrics", "settling_time", "metrics.settling_time", "counted"),
    ("metrics", "ultimate_bound", "metrics.ultimate_bound", "counted"),
    ("metrics", "chattering_index", "metrics.chattering_index", "counted"),
    ("experiments", "run_cell", "experiments.run_cell", "span"),
    ("experiments", "write_cell_outputs", "experiments.write_cell_outputs", "span"),
    ("cli", "main", "cli.main", "span"),
)


def _csv_bytes(args, kwargs) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


# Extra quantities measured after a span returns: layer name -> (suffix, fn).
MEASURES = {"sim.write_trajectory_csv": ("bytes", _csv_bytes)}


class Tracer:
    """Collects spans and counted calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.amounts: dict = {}
        self._open: list[Span] = []
        self._in_counted = False
        self._patched: list = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, fn, name):
        tracer = self
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_counted:
                raise TraceError(f"{name} called inside a counted call")
            span = Span(name, len(tracer.spans), tracer._open[-1].id, 0.0)
            tracer.spans.append(span)
            tracer._open.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._open.pop()
            if measure is not None:
                key = f"{name}.{measure[0]}"
                tracer.amounts[key] = tracer.amounts.get(key, 0) + measure[1](args, kwargs)
            return result

        return wrapper

    def _counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_counted:
                raise TraceError(f"{name} called inside a counted call")
            tracer._in_counted = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                tracer._in_counted = False
                counted = tracer._open[-1].counted
                entry = counted.get(name)
                if entry is None:
                    entry = counted[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed

        return wrapper

    # -- install / remove -----------------------------------------------------
    def install(self, package: str = "smoothsmc"):
        """Wrap every target in every loaded module of ``package``."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))]
        for module_name, fn_name, layer, kind in TARGETS:
            original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
            wrapper = (self._span if kind == "span" else self._counted)(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        self._open = [Span("root", len(self.spans), None, perf_counter())]
        self.spans.append(self._open[0])

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._open[0].end = perf_counter()
        self._open = []

    # -- results --------------------------------------------------------------
    def totals(self) -> tuple[dict, dict]:
        """``(spans, counted)``: per span name ``[calls, total_s, self_s]`` and
        per counted name ``[calls, seconds]``, summed over every span."""
        own = self_times(self.spans)
        spans: dict = {}
        counted: dict = {}
        for s in self.spans:
            entry = spans.setdefault(s.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += s.end - s.start
            entry[2] += own[s.id]
            for name, (calls, secs) in s.counted.items():
                c = counted.setdefault(name, [0, 0.0])
                c[0] += calls
                c[1] += secs
        return spans, counted


def layer_metrics(tracer: Tracer, reps: int) -> dict:
    """Per-layer metrics per job (totals divided by the traced repetitions)."""
    spans, counted = tracer.totals()

    def span(name, i):
        return spans.get(name, [0, 0.0, 0.0])[i] / reps

    def count(name, i):
        return counted.get(name, [0, 0.0])[i] / reps

    metric_fns = ("metrics.settling_time", "metrics.ultimate_bound", "metrics.chattering_index")
    return {
        "laws.controller_step.calls": count("laws.controller_step", 0),
        "laws.controller_step.self_s": count("laws.controller_step", 1),
        "laws.observer_step.calls": count("laws.observer_step", 0),
        "laws.observer_step.self_s": count("laws.observer_step", 1),
        "sim.simulate.self_s": span("sim.simulate", 2),
        "sim.disturbance_at.calls": count("sim.disturbance_at", 0),
        "sim.disturbance_at.s": count("sim.disturbance_at", 1),
        "sim.write_trajectory_csv.s": span("sim.write_trajectory_csv", 1),
        "sim.write_trajectory_csv.bytes":
            tracer.amounts.get("sim.write_trajectory_csv.bytes", 0) / reps,
        "sim.load_trajectory_csv.s": span("sim.load_trajectory_csv", 1),
        "certificate.vlog.calls": count("certificate.lyapunov_value", 0),
        "certificate.vlog.s": (count("certificate.transform_state", 1)
                               + count("certificate.lyapunov_value", 1)),
        "certificate.build_certificate.calls": span("certificate.build_certificate", 0),
        "certificate.build_certificate.self_s": span("certificate.build_certificate", 2),
        "certificate.estimate_convergence.s": span("certificate.estimate_convergence", 1),
        "linalg.jacobi_eigh.calls": count("linalg.jacobi_eigh", 0),
        "linalg.jacobi_eigh.s": count("linalg.jacobi_eigh", 1),
        "metrics.calls": sum(count(n, 0) for n in metric_fns),
        "metrics.s": sum(count(n, 1) for n in metric_fns),
        "experiments.run_cell.self_s": span("experiments.run_cell", 2),
        "experiments.write_cell_outputs.self_s": span("experiments.write_cell_outputs", 2),
        "cli.main.self_s": span("cli.main", 2),
    }
