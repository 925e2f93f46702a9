import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsmc import (
    DisturbanceSpec,
    SimConfig,
    SimulationAborted,
    Trajectory,
    build_p_block,
    controller_step,
    disturbance_at,
    initial_controller_state,
    initial_observer_state,
    load_trajectory_csv,
    lyapunov_value,
    norm_bound,
    observer_step,
    rate_bound,
    simulate_closed_loop,
    simulate_observer,
    transform_state,
    write_trajectory_csv,
)
from smoothsmc.experiments import build_sim_config, experiment_disturbance, run_cell, run_cells
from smoothsmc.sim import trajectory_columns

from conftest import reference_gains

EXP1 = experiment_disturbance("exp1")
EXP2 = experiment_disturbance("exp2")
EXP3 = experiment_disturbance("exp3")


def open_loop(sim, dist):
    """The uncontrolled plant, as the x1 and u columns of an observer record."""
    return simulate_observer([reference_gains()], sim, dist)[0]


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
        traj = open_loop(sim, DisturbanceSpec.none(3))
        assert np.array_equal(traj.x1, np.tile(sim.x1_init, (traj.times.size, 1)))
        assert traj.V is None

    def test_zero_law_constant_disturbance_integrates_exactly(self):
        sim = SimConfig(x1_init=[0.0, 0.0, 0.0], dt=1e-2, horizon=1.0)
        traj = open_loop(sim, EXP1)
        expected = traj.times[:, None] * np.array([0.1, 0.2, 0.2])
        assert np.abs(traj.x1 - expected).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        sim = SimConfig(x1_init=[0.0, 0.0], dt=1e-2, horizon=1.0)
        with pytest.raises(ValueError):
            open_loop(sim, EXP1)

    def test_log_stride(self):
        traj, _ = run_cell("exp1", "amssosmc",
                           sim_overrides={"dt": 1e-2, "horizon": 1.0, "log_stride": 5})
        assert traj.times.size == 20
        assert np.allclose(np.diff(traj.times), 5e-2)

    def test_nan_law_aborts_with_diagnostics(self):
        # the RK4 stages of a 1e308 disturbance overflow on the first step
        sim = SimConfig(x1_init=[1.0, 0.0, 0.0], dt=1e-2, horizon=1.0)
        with pytest.raises(SimulationAborted) as info:
            simulate_closed_loop([reference_gains()], sim, DisturbanceSpec.constant([1e308, 0, 0]))
        assert info.value.step == 0
        assert not np.isfinite(info.value.state).all()

    def test_open_loop_aborts_with_diagnostics(self):
        sim = SimConfig(x1_init=[1.0, 0.0, 0.0], dt=1e-2, horizon=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationAborted) as info:
                open_loop(sim, DisturbanceSpec.constant([1e308, 0, 0]))
        assert info.value.step == 0
        assert info.value.time == pytest.approx(1e-2)
        assert not np.isfinite(info.value.state).all()

    @pytest.mark.parametrize("spec", [EXP1, EXP2, EXP3], ids=["exp1", "exp2", "exp3"])
    def test_open_loop_is_the_textbook_rk4_loop(self, spec):
        sim = SimConfig(x1_init=[-0.0, 3.0, -2.5], dt=1e-3, horizon=1.0)
        x, zero, xs = sim.x1_init.copy(), np.zeros(3), []
        for k in range(sim.steps):
            xs.append(x)
            x = textbook_rk4(x, zero, spec, k * sim.dt, sim.dt)
        traj = open_loop(sim, spec)
        assert np.array_equal(traj.x1, np.array(xs))
        assert np.signbit(traj.x1[0, 0])
        assert np.array_equal(traj.u, np.zeros((sim.steps, 3)))


class TestDeterminismAndExport:
    def test_bit_identical_reruns(self, exp1_m3):
        traj_a, _ = exp1_m3
        cfg = reference_gains()
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0])
        traj_b = simulate_closed_loop([cfg], sim, EXP1, lyapunov=True)[0]
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


    def test_csv_round_trip_of_every_column_at_n2(self, tmp_path):
        # no run has both d_hat and V, and every built-in run has n = 3
        rng = np.random.default_rng(11)
        steps = 7
        traj = Trajectory(times=np.arange(steps) * 1e-3, x1=rng.normal(size=(steps, 2)),
                          u=rng.normal(size=(steps, 2)), d_true=rng.normal(size=(steps, 2)),
                          d_hat=rng.normal(size=(steps, 2)), L0=rng.uniform(1, 9, steps),
                          V=rng.uniform(0, 1e3, steps) ** 3)
        path = tmp_path / "all.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text().splitlines()[0] == "t,x11,x12,u1,u2,d1,d2,dhat1,dhat2,L0,V"
        assert_same_record(load_trajectory_csv(path), traj)


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
        traj = simulate_observer([cfg], sim, DisturbanceSpec.none(3))[0]
        assert np.array_equal(traj.d_hat, np.zeros_like(traj.d_hat))
        assert np.array_equal(traj.L0, np.full_like(traj.L0, cfg.L0_init))

    def test_constant_disturbance_is_reconstructed(self):
        cfg = reference_gains()
        sim = SimConfig(x1_init=[0.5, 0.5, 0.5], dt=1e-3, horizon=5.0)
        traj = simulate_observer([cfg], sim, EXP1)[0]
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


# --- the batched step loop against the scalar laws ---------------------------

COLUMNS = ("times", "x1", "u", "d_true", "d_hat", "L0", "V")


def assert_same_record(got, want, label=""):
    for col in COLUMNS:
        a, b = getattr(got, col), getattr(want, col)
        if b is None:
            assert a is None, (label, col)
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (label, col)


def textbook_rk4(x, u, dist, t, dt):
    f1 = u + disturbance_at(dist, t)
    f2 = u + disturbance_at(dist, t + 0.5 * dt)
    f3 = u + disturbance_at(dist, t + 0.5 * dt)
    f4 = u + disturbance_at(dist, t + dt)
    return x + dt / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)


def reference_controller_run(cfg, sim, dist, p_block=None):
    """A plain loop over laws.controller_step with the textbook RK4 step."""
    x = sim.x1_init.copy()
    state = initial_controller_state(cfg, sim.n)
    rows = {"times": [], "x1": [], "u": [], "d_true": [], "L0": [], "V": []}
    for k in range(sim.steps):
        t = k * sim.dt
        d = disturbance_at(dist, t)
        u, new_state = controller_step(x, state, cfg, sim.dt, singular_tol=sim.singular_tol)
        if p_block is not None:
            xi = transform_state(x, d - state.integral_term, state.L0, cfg.m, sim.singular_tol)
            rows["V"].append(lyapunov_value(xi, p_block))
        for name, value in (("times", t), ("x1", x), ("u", u), ("d_true", d), ("L0", state.L0)):
            rows[name].append(value)
        x, state = textbook_rk4(x, u, dist, t, sim.dt), new_state
    return Trajectory(**{name: np.array(v) for name, v in rows.items() if v})


def reference_observer_run(cfg, sim, dist):
    """The uncontrolled plant (textbook RK4), then a plain loop over
    laws.observer_step on its stream."""
    x, zero = sim.x1_init.copy(), np.zeros(sim.n)
    times, xs, ds = [], [], []
    for k in range(sim.steps):
        t = k * sim.dt
        times.append(t)
        xs.append(x)
        ds.append(disturbance_at(dist, t))
        x = textbook_rk4(x, zero, dist, t, sim.dt)
    state = initial_observer_state(cfg, xs[0])
    d_hat, l0 = [], []
    for x in xs:
        l0.append(state.L0)
        estimate, state = observer_step(x, zero, state, cfg, sim.dt,
                                        singular_tol=sim.singular_tol)
        d_hat.append(estimate)
    return Trajectory(times=np.array(times), x1=np.array(xs), u=np.zeros((len(xs), sim.n)),
                      d_true=np.array(ds), d_hat=np.array(d_hat), L0=np.array(l0))


SHORT = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-3, horizon=1.0)
NEGATIVE_ZERO = SimConfig(x1_init=[-0.0, 3.0, 2.0], dt=1e-3, horizon=1.0)
MIXED_CONTROLLERS = (
    reference_gains(),
    reference_gains(m=2.0, k4=25.0, kappa=7.0, epsilon=2e-3),
    reference_gains(m=3.5, k4=40.0, kappa=12.0, epsilon=5e-4),
)
MIXED_OBSERVERS = (
    reference_gains(),
    reference_gains(m=2.0, k4=20.0, kappa=5.0, epsilon=1e-2),
)


class TestBatchedLoopIsTheScalarLaws:
    @pytest.mark.parametrize("cfg,dist,sim", [
        (reference_gains(), EXP1, SHORT),
        (reference_gains(m=2.0), EXP2, SHORT),
        # u = -(L1*D1 + L2*x + I) turns the +0.0 law output at x = -0.0 into -0.0
        (reference_gains(), DisturbanceSpec.none(3), NEGATIVE_ZERO),
        (reference_gains(m=2.0), EXP2, NEGATIVE_ZERO),
    ], ids=["exp1-m3-with-V", "exp2-m2", "negative-zero-none-m3-with-V", "negative-zero-exp2-m2"])
    def test_controller_at_b1_is_the_reference_loop(self, cfg, dist, sim):
        p_block = build_p_block(cfg) if cfg.m > 2 else None
        got = simulate_closed_loop([cfg], sim, dist, lyapunov=True)[0]
        assert_same_record(got, reference_controller_run(cfg, sim, dist, p_block))

    @pytest.mark.parametrize("m", [3.0, 2.0])
    def test_observer_at_b1_is_the_reference_loop(self, m):
        cfg = reference_gains(m=m)
        got = simulate_observer([cfg], SHORT, EXP3)[0]
        assert_same_record(got, reference_observer_run(cfg, SHORT, EXP3))

    def test_mixed_controller_batch_rows_are_their_own_runs(self):
        batch = simulate_closed_loop(MIXED_CONTROLLERS, SHORT, EXP2, lyapunov=True)
        assert [traj.V is None for traj in batch] == [False, True, False]
        for i, cfg in enumerate(MIXED_CONTROLLERS):
            alone = simulate_closed_loop([cfg], SHORT, EXP2, lyapunov=True)[0]
            assert_same_record(batch[i], alone, i)

    def test_mixed_observer_batch_rows_are_their_own_runs(self):
        batch = simulate_observer(MIXED_OBSERVERS, SHORT, EXP3)
        for i, cfg in enumerate(MIXED_OBSERVERS):
            # z1 starts at the measurement, so the first innovation is the zero
            # vector and the first step takes the singular branch
            assert np.array_equal(batch[i].d_hat[0], np.zeros(3))
            assert_same_record(batch[i], simulate_observer([cfg], SHORT, EXP3)[0], i)

    def test_run_cells_reports_are_those_of_run_cell(self):
        cells = [("amssosmc", None), ("amstsmc-baseline", {"kappa": 7.0}),
                 ("amssosmc", {"k4": 40.0, "epsilon": 5e-4})]
        sim = {"horizon": 1.5}
        batch = run_cells("exp2", cells, sim)
        assert len(batch) == len(cells)
        for (method, gains), (traj, report) in zip(cells, batch):
            alone_traj, alone_report = run_cell("exp2", method, gains, sim)
            assert report.to_dict() == alone_report.to_dict()
            assert_same_record(traj, alone_traj, method)

    @settings(max_examples=15, deadline=None)
    @given(gains=st.lists(st.tuples(st.sampled_from([2.0, 2.5, 3.0, 4.0]),
                                    st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                                    st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                                    st.floats(2.0, 20.0), st.floats(1e-4, 1e-1)),
                          min_size=1, max_size=4),
           observer=st.booleans())
    def test_batching_is_invisible(self, gains, observer):
        cfgs = [reference_gains(m=m, k1=2.0 * s1, k2=2.5 * s2, k3=4.0 * s3, k4=30.0 * s4,
                                kappa=kappa, epsilon=eps)
                for m, s1, s2, s3, s4, kappa, eps in gains]
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-3, horizon=0.2)
        if observer:
            batch = simulate_observer(cfgs, sim, EXP3)
            alone = [simulate_observer([cfg], sim, EXP3)[0] for cfg in cfgs]
        else:
            batch = simulate_closed_loop(cfgs, sim, EXP2, lyapunov=True)
            alone = [simulate_closed_loop([cfg], sim, EXP2, lyapunov=True)[0] for cfg in cfgs]
        for i, (got, want) in enumerate(zip(batch, alone)):
            assert_same_record(got, want, i)


class TestAbortsAreClean:
    def test_divergent_cell_aborts_without_numpy_warnings(self):
        # at dt = 0.01 the sampled loop outruns the dead zone and diverges
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationAborted) as info:
                run_cell("exp1", "amssosmc", sim_overrides={"dt": 0.01, "horizon": 20})
        assert info.value.cell == 0
        assert not np.isfinite(info.value.state).all()

    def test_abort_names_the_aborting_cell(self):
        cells = [("amssosmc", {"k4": 20.0}), ("amssosmc", {"k4": 30.0})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationAborted) as info:
                run_cells("exp1", cells, {"dt": 0.01, "horizon": 20})
        assert info.value.cell == 1
        assert "cell 1" in str(info.value)
        assert info.value.state.shape == (3,)
