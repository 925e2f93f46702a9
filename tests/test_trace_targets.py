"""The benchmark's tracer names functions of the package by (module, name);
these tests fail as soon as a rename leaves a target behind, instead of at
the first traced benchmark run."""

import importlib
import sys
from pathlib import Path

import smoothsmc.cli  # noqa: F401  (the tracer wraps cli.main)
import smoothsmc.sim
from smoothsmc import experiments

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spans  # noqa: E402


def test_every_target_resolves():
    for module, function, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"smoothsmc.{module}"), function, None)), \
            f"{module}.{function}"


def test_simulation_is_booked_under_run_cell():
    tracer = spans.Tracer()
    tracer.install()
    try:
        experiments.run_cell("exp3", "amsdo", sim_overrides={"horizon": 0.2})
    finally:
        tracer.remove()
    by_id = {s.id: s for s in tracer.spans}
    parents = [by_id[s.parent].name for s in tracer.spans if s.name == "sim.simulate"]
    assert parents == ["experiments.run_cell"]


def test_metrics_fold_runs_inside_the_simulation_span(monkeypatch):
    # a simulator that handed back the blocks lazily would fold them after its
    # span closed, and the step loop's time would leave sim.simulate
    tracer = spans.Tracer()
    open_at_fold = []
    add = experiments._Metrics.add

    def recording_add(self, block):
        open_at_fold.append([span.name for span in tracer._open])
        add(self, block)

    monkeypatch.setattr(experiments._Metrics, "add", recording_add)
    monkeypatch.setattr(smoothsmc.sim, "BLOCK_CELL_STEPS", 50)
    tracer.install()
    try:
        experiments.run_cell("exp1", "amssosmc", sim_overrides={"horizon": 0.2})
    finally:
        tracer.remove()
    assert open_at_fold == [["root", "experiments.run_cell", "sim.simulate"]] * 4
