"""Tests of the benchmark's own code: seeded inputs, span self time, the
speed calibration, the output checks and the comparison verdicts.  None of them runs a workload."""

import copy
import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


class TestInputs:
    @pytest.mark.parametrize("make", [workloads.sweep_inputs, workloads.certify_inputs])
    def test_equal_seeds_equal_inputs_and_seeds_differ(self, make):
        assert make(7) == make(7)
        assert make(7) != make(8)

    def test_sweep_values_lie_in_their_ranges(self):
        for spec, values in workloads.sweep_inputs(3)["sweeps"]:
            assert len(values) == workloads.SWEEP_POINTS
            width = (spec["high"] - spec["low"]) / workloads.SWEEP_POINTS
            assert all(spec["low"] + i * width <= v <= spec["low"] + (i + 1) * width
                       for i, v in enumerate(values))

    def test_reproduce_is_fixed_by_the_paper(self):
        assert workloads.reproduce_inputs(1) == workloads.reproduce_inputs(2)
        assert len(workloads.reproduce_inputs(0)["cells"]) == 6


class TestSelfTime:
    def test_hand_built_nest(self):
        root = spans.Span("root", 0, None, 0.0, 10.0)
        a = spans.Span("a", 1, 0, 1.0, 4.0, {"leaf": [3, 0.5]})
        b = spans.Span("b", 2, 0, 3.0, 6.0)  # overlaps a on [3, 4]
        c = spans.Span("c", 3, 1, 2.0, 2.5)
        d = spans.Span("d", 4, 0, 8.0, 9.0, {"leaf": [1, 0.25]})
        root.counted = {"leaf": [2, 1.0]}
        own = spans.self_times([root, a, b, c, d])
        # root: 10 - union([1,6], [8,9]) - counted 1.0
        assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
        assert own[1] == pytest.approx(3.0 - 0.5 - 0.5)
        assert own[2] == pytest.approx(3.0)
        assert own[3] == pytest.approx(0.5)
        assert own[4] == pytest.approx(0.75)

    def test_counted_call_inside_counted_call_is_refused(self):
        tracer = spans.Tracer()
        tracer._open = [spans.Span("root", 0, None, 0.0)]
        inner = tracer._counted(lambda: None, "inner")
        outer = tracer._counted(lambda: inner(), "outer")
        with pytest.raises(spans.TraceError):
            outer()
        inner()
        assert tracer._open[0].counted["inner"][0] == 1


def reproduce_summary():
    summary = copy.deepcopy(REFERENCE["reproduce"])
    for cell in summary.values():
        cell["csv_round_trip"] = True
    return summary


class TestReproduceCheck:
    def test_reference_passes(self):
        failures = workloads.check_reproduce(reproduce_summary(), REFERENCE["reproduce"])
        assert len(failures) == 6 and not any(failures.values())

    @pytest.mark.parametrize("field,scale", [
        ("chattering_index", 1 + 1e-4), ("ultimate_bound", 1 - 1e-4), ("final_L0", 1.001),
    ])
    def test_perturbed_value_fails(self, field, scale):
        summary = reproduce_summary()
        summary["exp2/amstsmc-baseline"][field] *= scale
        failures = workloads.check_reproduce(summary, REFERENCE["reproduce"])
        assert failures["exp2/amstsmc-baseline"]
        assert sum(bool(f) for f in failures.values()) == 1

    def test_settling_time_moved_three_samples_fails(self):
        summary = reproduce_summary()
        summary["exp3/amsdo"]["settling_time"] += 3 * workloads.DT
        assert workloads.check_reproduce(summary, REFERENCE["reproduce"])["exp3/amsdo"]

    def test_csv_round_trip_mismatch_fails(self):
        summary = reproduce_summary()
        summary["exp1/amssosmc"]["csv_round_trip"] = False
        assert workloads.check_reproduce(summary, REFERENCE["reproduce"])["exp1/amssosmc"]

    def test_smooth_cell_chattering_more_than_its_baseline_fails(self):
        summary = reproduce_summary()
        reference = copy.deepcopy(REFERENCE["reproduce"])
        for target in (summary, reference):
            target["exp1/amssosmc"]["chattering_index"] = 30.0
        failures = workloads.check_reproduce(summary, reference)
        assert any("chatters no less" in f for f in failures["exp1/amssosmc"])

    def test_raised_cell_fails(self):
        summary = reproduce_summary()
        summary["exp1/amssosmc"] = {"error": "SimulationAborted()"}
        assert workloads.check_reproduce(summary, REFERENCE["reproduce"])["exp1/amssosmc"]

    def test_summary_compares_trajectories_bit_for_bit(self):
        class Traj:
            def __init__(self, x):
                self.times, self.x1, self.u, self.d_true = x, x, x, x
                self.d_hat = self.L0 = self.V = None

        class Report:
            settling_time, ultimate_bound, chattering_index, final_L0 = 0.5, 1.0, 2.0, 3.0

        x = np.linspace(0.0, 1.0, 5)
        y = x.copy()
        y[2] = np.nextafter(y[2], 1.0)
        key = ("exp1", "amssosmc")
        out = {"cells": {key: (Traj(x), Report(), "p")}, "loaded": {key: Traj(x.copy())}}
        assert workloads.reproduce_summary(out)["exp1/amssosmc"]["csv_round_trip"]
        out["loaded"][key] = Traj(y)
        assert not workloads.reproduce_summary(out)["exp1/amssosmc"]["csv_round_trip"]


def sweep_case():
    inputs = workloads.sweep_inputs(workloads.REFERENCE_SEED)
    rows = [[r.split(",") for r in sweep] for sweep in REFERENCE["sweep"]]
    flags = [[r[2] == "true" for r in sweep] for sweep in rows]
    return inputs, rows, flags


def sweep_outputs(rows):
    return [(0, "\n".join([workloads.SWEEP_HEADER] + [",".join(r) for r in sweep]) + "\n")
            for sweep in rows]


class TestSweepCheck:
    def test_reference_passes(self):
        inputs, rows, flags = sweep_case()
        failures = workloads.check_sweep(sweep_outputs(rows), inputs, flags, REFERENCE["sweep"])
        assert len(failures) == 2 * workloads.SWEEP_POINTS and not any(failures)

    def test_perturbed_row_fails_against_reference(self):
        inputs, rows, flags = sweep_case()
        rows[0][3][5] = format(float(rows[0][3][5]) * 1.001, ".17g")
        failures = workloads.check_sweep(sweep_outputs(rows), inputs, flags, REFERENCE["sweep"])
        assert [i for i, f in enumerate(failures) if f] == [3]

    def test_non_finite_row_fails_without_reference(self):
        inputs, rows, flags = sweep_case()
        rows[1][0][6] = "nan"
        failures = workloads.check_sweep(sweep_outputs(rows), inputs, flags, None)
        assert [i for i, f in enumerate(failures) if f] == [workloads.SWEEP_POINTS]

    def test_flag_disagreeing_with_gain_condition_fails(self):
        inputs, rows, flags = sweep_case()
        flags[0][5] = not flags[0][5]
        failures = workloads.check_sweep(sweep_outputs(rows), inputs, flags, None)
        assert [i for i, f in enumerate(failures) if f] == [5]

    def test_nonzero_exit_fails_every_row_of_that_sweep(self):
        inputs, rows, flags = sweep_case()
        outputs = sweep_outputs(rows)
        outputs[1] = (1, "")
        failures = workloads.check_sweep(outputs, inputs, flags, None)
        assert sum(bool(f) for f in failures) == workloads.SWEEP_POINTS
        assert all(failures[workloads.SWEEP_POINTS:])


def certify_item(diag=(1.0, 2.0, 3.0)):
    block = np.diag(diag)
    spectrum = sorted(diag)
    return {
        "spectra": {b: list(spectrum) for b in workloads.BLOCKS},
        "oracle": {b: np.linalg.eigvalsh(block).tolist() for b in workloads.BLOCKS},
        "gain_condition": True,
        "certified": True,
        "estimate": [1.0, -2.0, 0.5],
    }


class TestCertifyCheck:
    def test_consistent_items_pass(self):
        uncertified = certify_item((-1.0, 2.0, 3.0))
        uncertified.update(certified=False, estimate=None)
        assert workloads.check_certify([certify_item(), uncertified]) == [[], []]

    def test_perturbed_spectrum_fails(self):
        item = certify_item()
        item["spectra"]["Omega2"][1] *= 1 + 1e-8
        assert workloads.check_certify([item])[0]

    def test_certified_flag_must_match_condition_and_definiteness(self):
        item = certify_item()
        item["gain_condition"] = False
        assert workloads.check_certify([item])[0]
        indefinite = certify_item((-1.0, 2.0, 3.0))
        assert workloads.check_certify([indefinite])[0]

    def test_missing_or_non_finite_estimate_fails(self):
        item = certify_item()
        item["estimate"] = None
        assert workloads.check_certify([item])[0]
        item["estimate"] = [math.nan, 1.0, 1.0]
        assert workloads.check_certify([item])[0]


class TestCalibration:
    def test_span_is_scaled_by_the_samples_inside_it(self):
        ref = calibrate.REFERENCE_S
        stamps = [(0.5, ref), (1.5, 2 * ref), (1.7, 4 * ref), (1.9, 2 * ref), (5.0, ref)]
        # [1, 2] holds three samples, median 2 * ref; [0, 1] holds one.
        assert calibrate.scale([(0.0, 1.0), (1.0, 2.0)], stamps) == [
            pytest.approx(1.0), pytest.approx(0.5)]

    def test_span_without_samples_takes_the_nearest(self):
        ref = calibrate.REFERENCE_S
        stamps = [(0.0, 2 * ref), (10.0, 4 * ref)]
        assert calibrate.scale([(3.0, 3.5), (8.0, 9.0), (11.0, 12.0)], stamps) == [
            pytest.approx(0.25), pytest.approx(0.25), pytest.approx(0.25)]

    def test_slower_machine_same_scaled_time(self):
        fast = calibrate.scale([(0.0, 2.0)], [(1.0, 0.01)])
        slow = calibrate.scale([(0.0, 6.0)], [(3.0, 0.03)])
        assert fast == pytest.approx(slow)

    def test_no_samples_is_refused(self):
        with pytest.raises(ValueError):
            calibrate.scale([(0.0, 1.0)], [])

    def test_sampler_leaves_kernel_time_out_of_its_clock(self):
        sampler = calibrate.Sampler(interval=0.01)
        with sampler:
            start, wall = sampler.clock(), time.perf_counter()
            while time.perf_counter() - wall < 0.3:
                pass
            clocked, wall = sampler.clock() - start, time.perf_counter() - wall
        assert sampler.stamps and all(s > 0 for _, s in sampler.stamps)
        assert [t for t, _ in sampler.stamps] == sorted(t for t, _ in sampler.stamps)
        assert clocked == pytest.approx(wall - sampler.paused, abs=1e-3)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestCompare:
    def test_verdicts(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98]
        assert compare.verdict(base, [v * 1.05 for v in base], "lower", 0.1) == "within bound"
        assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
        assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "better"
        noisy = [0.5, 1.5, 1.0, 0.7, 1.3]
        assert compare.verdict(noisy, base, "lower", 0.1) == "unresolved"
