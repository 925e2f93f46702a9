import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsmc import (
    ExperimentReport,
    Trajectory,
    chattering_index,
    comparison_csv,
    settling_time,
    ultimate_bound,
)
from smoothsmc.metrics import exact_parts


def make_trajectory(times, x1=None, u=None, d_hat=None, d_true=None):
    count = len(times)
    times = np.asarray(times, dtype=float)
    zeros = np.zeros((count, 3))
    return Trajectory(
        times=times,
        x1=zeros if x1 is None else np.asarray(x1, dtype=float),
        u=zeros if u is None else np.asarray(u, dtype=float),
        d_true=zeros if d_true is None else np.asarray(d_true, dtype=float),
        d_hat=None if d_hat is None else np.asarray(d_hat, dtype=float),
    )


def state_norms(traj):
    return np.linalg.norm(traj.x1, axis=1)


def error_norms(traj):
    return np.linalg.norm(traj.d_hat - traj.d_true, axis=1)


def ramp_trajectory(dt=1e-3, horizon=2.0):
    """State norm following max(0, 1 - t) along the first axis."""
    times = np.arange(0.0, horizon, dt)
    x1 = np.zeros((times.size, 3))
    x1[:, 0] = np.maximum(0.0, 1.0 - times)
    return make_trajectory(times, x1=x1)


class TestSettlingTime:
    def test_identically_zero_signal(self):
        traj = make_trajectory(np.arange(0.0, 1.0, 0.1))
        assert settling_time(traj.times, state_norms(traj), 0.01) == 0.0

    def test_ramp_crossing(self):
        traj = ramp_trajectory()
        # the ramp reaches 0.01 at t = 0.99; the first strictly-below sample
        # is one log step later
        assert settling_time(traj.times, state_norms(traj), 0.01) == pytest.approx(0.991, abs=1e-12)

    def test_measured_from_last_excursion(self):
        times = np.arange(0.0, 1.0, 0.1)
        x1 = np.zeros((times.size, 3))
        x1[2, 0] = 0.001   # dip below threshold early...
        x1[5, 0] = 1.0     # ...then re-exceed it
        traj = make_trajectory(times, x1=x1)
        assert settling_time(traj.times, state_norms(traj), 0.01) == pytest.approx(times[6])

    def test_not_settled(self):
        times = np.arange(0.0, 1.0, 0.1)
        x1 = np.ones((times.size, 3))
        traj = make_trajectory(times, x1=x1)
        assert settling_time(traj.times, state_norms(traj), 0.01) is None

    def test_rejects_nonpositive_threshold(self):
        traj = ramp_trajectory()
        with pytest.raises(ValueError):
            settling_time(traj.times, state_norms(traj), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           thresholds=st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.5)))
    def test_monotone_in_threshold(self, seed, thresholds):
        rng = np.random.default_rng(seed)
        times = np.arange(0.0, 1.0, 0.01)
        x1 = rng.uniform(-1, 1, (times.size, 3)) * np.exp(-3 * times)[:, None]
        traj = make_trajectory(times, x1=x1)
        low, high = sorted(thresholds)
        t_low = settling_time(traj.times, state_norms(traj), low)
        t_high = settling_time(traj.times, state_norms(traj), high)
        inf = float("inf")
        assert (t_high if t_high is not None else inf) <= (t_low if t_low is not None else inf)


class TestUltimateBound:
    def test_zero_signal(self):
        traj = make_trajectory(np.arange(0.0, 1.0, 0.1))
        assert ultimate_bound(traj.times, state_norms(traj)) == 0.0

    def test_constant_signal(self):
        times = np.arange(0.0, 1.0, 0.1)
        x1 = np.tile([3.0, 0.0, 4.0], (times.size, 1))
        traj = make_trajectory(times, x1=x1)
        assert ultimate_bound(traj.times, state_norms(traj)) == pytest.approx(5.0)

    def test_tail_containment(self):
        rng = np.random.default_rng(1)
        times = np.arange(0.0, 1.0, 0.01)
        traj = make_trajectory(times, x1=rng.uniform(-1, 1, (times.size, 3)))
        assert (ultimate_bound(traj.times, state_norms(traj), 0.1)
                <= ultimate_bound(traj.times, state_norms(traj), 0.5))

    def test_error_norm_signal(self):
        times = np.arange(0.0, 1.0, 0.1)
        d_true = np.tile([1.0, 0.0, 0.0], (times.size, 1))
        d_hat = np.tile([1.5, 0.0, 0.0], (times.size, 1))
        traj = make_trajectory(times, d_true=d_true, d_hat=d_hat)
        assert ultimate_bound(traj.times, error_norms(traj)) == pytest.approx(0.5)


class TestChatteringIndex:
    def test_constant_signal_has_zero_variation(self):
        times = np.arange(0.0, 1.0, 0.1)
        u = np.tile([1.0, -2.0, 0.5], (times.size, 1))
        traj = make_trajectory(times, u=u)
        assert chattering_index(traj.times, traj.u) == 0.0

    def test_square_wave_exact_rate(self):
        dt = 1e-3
        amplitude = 0.7
        times = np.arange(0.0, 1.0, dt)
        u = np.zeros((times.size, 3))
        u[:, 0] = amplitude * np.where(np.arange(times.size) % 2 == 0, 1.0, -1.0)
        traj = make_trajectory(times, u=u)
        tail = times >= times[0] + 0.8 * (times[-1] - times[0])
        count = int(tail.sum())
        expected = (count - 1) * 2.0 * amplitude / (times[tail][-1] - times[tail][0])
        assert chattering_index(traj.times, traj.u, 0.2) == pytest.approx(expected, rel=1e-12)

    def test_needs_two_tail_samples(self):
        traj = make_trajectory([0.0, 1.0])
        with pytest.raises(ValueError):
            chattering_index(traj.times, traj.u, 0.2)

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(2)
        times = np.arange(0.0, 1.0, 0.01)
        u = rng.uniform(-1, 1, (times.size, 3))
        base = chattering_index(times, u)
        doubled = chattering_index(times, 2.0 * u)
        assert doubled == 2.0 * base

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 10.0))
    def test_scale_equivariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        times = np.arange(0.0, 1.0, 0.01)
        u = rng.uniform(-1, 1, (times.size, 3))
        x1 = rng.uniform(-1, 1, (times.size, 3))
        traj = make_trajectory(times, u=u, x1=x1)
        scaled = make_trajectory(times, u=scale * u, x1=scale * x1)
        assert chattering_index(scaled.times, scaled.u) == pytest.approx(
            scale * chattering_index(traj.times, traj.u), rel=1e-12)
        assert ultimate_bound(scaled.times, state_norms(scaled)) == pytest.approx(
            scale * ultimate_bound(traj.times, state_norms(traj)), rel=1e-12)
        threshold = 0.25
        assert settling_time(scaled.times, state_norms(scaled), scale * threshold) == settling_time(
            traj.times, state_norms(traj), threshold)


class TestExactlyRoundedChattering:
    def test_the_reproduced_exp1_baseline_rounds_its_exact_sum_once(self, exp1_m2):
        # reproduce's exp1 baseline (its report is that of the cell run
        # alone): the exactly rounded sum of its tail step norms and numpy's
        # pairwise sum of them differ in the last bit
        traj, report = exp1_m2
        assert traj.times.size == round(report.config["sim"]["horizon"] / report.dt_used)
        t = traj.times[traj.times >= traj.times[0] + 0.8 * (traj.times[-1] - traj.times[0])]
        steps = np.linalg.norm(np.diff(traj.u[-t.size:], axis=0), axis=1)
        span = float(t[-1] - t[0])
        assert report.chattering_index == math.fsum(steps.tolist()) / span
        assert report.chattering_index != float(steps.sum()) / span


class TestExactParts:
    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1e150) | st.floats(0.0, 1e-300), max_size=40),
           split=st.integers(0, 40))
    def test_folded_parts_sum_as_the_whole(self, values, split):
        parts = exact_parts(exact_parts(values[:split]) + values[split:])
        assert sum(map(Fraction, parts)) == sum(map(Fraction, values))
        assert math.fsum(parts) == math.fsum(values)
        # each part is at most half an ulp of the one before, so the parts of
        # any sum below 2**505 number at most (505 + 1074) / 52 + 1, about 31
        assert len(parts) <= 31

    def test_a_non_finite_sum_is_its_one_part(self):
        assert exact_parts([1.0, math.inf, 2.0]) == [math.inf]
        (nan,) = exact_parts([math.inf, 1.0, math.nan])
        assert math.isnan(nan)
        assert exact_parts([]) == exact_parts([0.0, 0.0]) == []


class TestReport:
    def test_json_round_trip_and_not_settled_encoding(self):
        report = ExperimentReport(
            method_id="amssosmc", scenario_id="exp1",
            settling_time=None, ultimate_bound=0.5, chattering_index=1.5,
            final_L0=7.0, dt_used=1e-3, settling_threshold=0.037,
            tail_fraction=0.2,
        )
        payload = json.loads(report.to_json())
        assert payload["settling_time"] == "not settled"
        assert payload["dt"] == 1e-3

    def test_comparison_table_header_and_rows(self):
        reports = [
            ExperimentReport("amssosmc", "exp1", 0.5, 1e-6, 0.4, 7.0, 1e-3, 0.037, 0.2),
            ExperimentReport("amstsmc-baseline", "exp1", 0.49, 2e-5, 26.0, 6.6, 1e-3, 0.037, 0.2),
        ]
        table = comparison_csv(reports).splitlines()
        assert table[0] == "method,scenario,settling_time,ultimate_bound,chattering_index,final_L0,dt"
        assert table[1].startswith("amssosmc,exp1,0.5,")
        assert len(table) == 3
