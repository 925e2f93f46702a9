import math

import numpy as np
import pytest

from smoothsmc import (
    ControllerLaw,
    DisturbanceSpec,
    SimConfig,
    SimulationAborted,
    ZeroLaw,
    build_p_block,
    disturbance_at,
    load_trajectory_csv,
    norm_bound,
    rate_bound,
    simulate_closed_loop,
    simulate_observer,
    write_trajectory_csv,
)
from smoothsmc.experiments import build_sim_config, experiment_disturbance, run_cell
from smoothsmc.sim import trajectory_columns

from conftest import reference_gains

EXP1 = experiment_disturbance("exp1")
EXP2 = experiment_disturbance("exp2")
EXP3 = experiment_disturbance("exp3")


class TestDisturbanceSpecs:
    def test_constant_at_any_time(self):
        for t in (0.0, 0.37, 5.0):
            assert np.array_equal(disturbance_at(EXP1, t), [0.1, 0.2, 0.2])

    def test_sinusoid_mix_at_zero(self):
        assert disturbance_at(EXP2, 0.0) == pytest.approx([0.0, 0.2, 0.2])

    def test_sinusoid_mix_at_quarter_period(self):
        # sin(pi/2) = 1, cos(2 pi) = 1, cos(pi) = -1
        assert disturbance_at(EXP3, math.pi / 2) == pytest.approx([1.0, 2.0, -2.0],
                                                                  abs=1e-12)

    def test_none(self):
        spec = DisturbanceSpec.none(3)
        assert np.array_equal(disturbance_at(spec, 1.0), np.zeros(3))
        assert norm_bound(spec) == 0.0
        assert rate_bound(spec) == 0.0

    def test_norm_bounds(self):
        assert norm_bound(EXP1) == pytest.approx(np.linalg.norm([0.1, 0.2, 0.2]))
        assert rate_bound(EXP1) == 0.0
        assert norm_bound(EXP3) == pytest.approx(3.0)  # sqrt(1 + 4 + 4)
        assert rate_bound(EXP3) == pytest.approx(math.sqrt(1 + 64 + 16))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            disturbance_at(EXP1, -1.0)

    def test_dict_round_trip(self):
        for spec in (DisturbanceSpec.none(3), EXP1, EXP3):
            again = DisturbanceSpec.from_dict(spec.to_dict())
            assert again.to_dict() == spec.to_dict()


class TestClosedLoopBasics:
    def test_zero_law_zero_disturbance_is_equilibrium(self):
        sim = SimConfig(x1_init=[0.3, -0.7, 2.0], dt=1e-2, horizon=1.0)
        traj = simulate_closed_loop(ZeroLaw(), sim, DisturbanceSpec.none(3))
        assert np.array_equal(traj.x1, np.tile(sim.x1_init, (traj.times.size, 1)))
        assert traj.L0 is None and traj.V is None

    def test_zero_law_constant_disturbance_integrates_exactly(self):
        sim = SimConfig(x1_init=[0.0, 0.0, 0.0], dt=1e-2, horizon=1.0)
        traj = simulate_closed_loop(ZeroLaw(), sim, EXP1)
        expected = traj.times[:, None] * np.array([0.1, 0.2, 0.2])
        assert np.abs(traj.x1 - expected).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        sim = SimConfig(x1_init=[0.0, 0.0], dt=1e-2, horizon=1.0)
        with pytest.raises(ValueError):
            simulate_closed_loop(ZeroLaw(), sim, EXP1)

    def test_log_stride(self):
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-2, horizon=1.0, log_stride=5)
        traj = simulate_closed_loop(ControllerLaw(reference_gains()), sim, EXP1)
        assert traj.times.size == 20
        assert np.allclose(np.diff(traj.times), 5e-2)

    def test_nan_law_aborts_with_diagnostics(self):
        class NanLaw(ZeroLaw):
            def step(self, x1, state, dt, singular_tol):
                return np.full_like(x1, np.nan), None

        sim = SimConfig(x1_init=[1.0, 0.0, 0.0], dt=1e-2, horizon=1.0)
        with pytest.raises(SimulationAborted) as info:
            simulate_closed_loop(NanLaw(), sim, DisturbanceSpec.none(3))
        assert info.value.step == 0
        assert not np.isfinite(info.value.state).all()


class TestDeterminismAndExport:
    def test_bit_identical_reruns(self, exp1_m3):
        traj_a, _ = exp1_m3
        cfg = reference_gains()
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0])
        traj_b = simulate_closed_loop(ControllerLaw(cfg), sim, EXP1,
                                      lyapunov_P=build_p_block(cfg))
        assert np.array_equal(traj_a.x1, traj_b.x1)
        assert np.array_equal(traj_a.u, traj_b.u)
        assert np.array_equal(traj_a.V, traj_b.V)

    def test_header_contract(self, exp1_m3, exp3_m3):
        controller_traj, _ = exp1_m3
        observer_traj, _ = exp3_m3
        assert (",".join(trajectory_columns(controller_traj))
                == "t,x11,x12,x13,u1,u2,u3,d1,d2,d3,L0,V")
        assert (",".join(trajectory_columns(observer_traj))
                == "t,x11,x12,x13,u1,u2,u3,d1,d2,d3,dhat1,dhat2,dhat3,L0")

    def test_csv_round_trip_is_bit_faithful(self, tmp_path, exp1_m3, exp3_m3):
        # a controller cell (L0 and V columns) and an observer cell (dhat, L0)
        for name, (traj, _) in (("exp1_m3", exp1_m3), ("exp3_m3", exp3_m3)):
            path = tmp_path / f"{name}.csv"
            write_trajectory_csv(traj, path)
            again = load_trajectory_csv(path)
            for col in ("times", "x1", "u", "d_true", "d_hat", "L0", "V"):
                want, got = getattr(traj, col), getattr(again, col)
                if want is None:
                    assert got is None, (name, col)
                else:
                    assert np.array_equal(want, got), (name, col)


class TestDisturbanceHonesty:
    @pytest.mark.parametrize("spec", [EXP1, EXP2, EXP3], ids=["exp1", "exp2", "exp3"])
    def test_logged_samples_respect_norm_bound(self, spec):
        times = np.arange(0.0, 10.0, 1e-3)
        values = np.array([disturbance_at(spec, t) for t in times])
        assert np.linalg.norm(values, axis=1).max() <= norm_bound(spec) + 1e-12

    @pytest.mark.parametrize("spec", [EXP2, EXP3], ids=["exp2", "exp3"])
    def test_finite_difference_rate_respects_bound(self, spec):
        dt = 1e-3
        times = np.arange(0.0, 10.0, dt)
        values = np.array([disturbance_at(spec, t) for t in times])
        rates = np.linalg.norm(np.diff(values, axis=0), axis=1) / dt
        # forward differences overshoot by at most dt/2 times the curvature
        curvature = math.sqrt(sum((c.amplitude * c.frequency**2) ** 2
                                  for c in spec.channels))
        assert rates.max() <= rate_bound(spec) + 1e-6 + 0.5 * dt * curvature


class TestUndisturbedConvergence:
    def test_state_reaches_and_keeps_microscopic_norm(self, nodist_run):
        _, _, traj = nodist_run
        tail = traj.times >= traj.times[-1] - 2.0
        assert np.linalg.norm(traj.x1[tail], axis=1).max() < 1e-6

    def test_velocity_settles_to_discretization_floor(self, nodist_run):
        # xdot = u exactly (d = 0); the sampled loop leaves a micro limit
        # cycle whose velocity scales with dt, far below macroscopic motion
        _, _, traj = nodist_run
        tail = traj.times >= traj.times[-1] - 2.0
        assert np.linalg.norm(traj.u[tail], axis=1).max() < 1e-3

    def test_velocity_reconstruction_matches_finite_differences(self, nodist_run):
        _, sim, traj = nodist_run
        finite_diff = np.diff(traj.x1, axis=0) / sim.dt
        # with d = 0 and zero-order hold, each step moves exactly by dt * u
        assert np.abs(finite_diff - traj.u[:-1]).max() < 1e-9


class TestObserverRuns:
    def test_zero_error_manifold_is_invariant(self):
        cfg = reference_gains()
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-3, horizon=1.0)
        traj = simulate_observer(cfg, sim, DisturbanceSpec.none(3))
        assert np.array_equal(traj.d_hat, np.zeros_like(traj.d_hat))
        assert np.array_equal(traj.L0, np.full_like(traj.L0, cfg.L0_init))

    def test_recorded_stream_reproduces_live_run(self):
        cfg = reference_gains()
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-3, horizon=2.0)
        live = simulate_observer(cfg, sim, EXP3)
        recorded_plant = simulate_closed_loop(ZeroLaw(), sim, EXP3)
        replay = simulate_observer(cfg, sim, EXP3, recorded=recorded_plant)
        assert np.allclose(live.d_hat, replay.d_hat, rtol=0, atol=1e-12)

    def test_recorded_stream_requires_matching_dt(self):
        cfg = reference_gains()
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-3, horizon=1.0)
        recorded = simulate_closed_loop(ZeroLaw(), sim, EXP3)
        other = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=2e-3, horizon=1.0)
        with pytest.raises(ValueError):
            simulate_observer(cfg, other, EXP3, recorded=recorded)

    def test_constant_disturbance_is_reconstructed(self):
        cfg = reference_gains()
        sim = SimConfig(x1_init=[0.5, 0.5, 0.5], dt=1e-3, horizon=5.0)
        traj = simulate_observer(cfg, sim, EXP1)
        tail = traj.times >= 4.0
        err = np.linalg.norm(traj.d_hat[tail] - traj.d_true[tail], axis=1)
        assert err.max() < 1e-2


class TestLogStrideOnlyThinsOutput:
    @pytest.mark.parametrize("experiment,method",
                             [("exp1", "amstsmc-baseline"), ("exp3", "amsdo")])
    def test_reported_metrics_do_not_depend_on_log_stride(self, experiment, method):
        # 3007 steps: neither stride divides the step count
        horizon = 3.007
        steps = build_sim_config(horizon=horizon).steps
        fields = ("settling_time", "ultimate_bound", "chattering_index", "final_L0")
        full, reference = run_cell(experiment, method, sim_overrides={"horizon": horizon})
        assert full.times.size == steps
        for stride in (5, 20):
            traj, report = run_cell(experiment, method,
                                    sim_overrides={"horizon": horizon, "log_stride": stride})
            assert traj.times.size == math.ceil(steps / stride)
            assert np.array_equal(traj.times, full.times[::stride])
            assert np.array_equal(traj.x1, full.x1[::stride])
            for name in fields:
                assert getattr(report, name) == getattr(reference, name), (stride, name)
