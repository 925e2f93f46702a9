import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothsmc.laws as laws
import smoothsmc.sim as sim_module
from smoothsmc import (
    DisturbanceSpec,
    SimConfig,
    SimulationAborted,
    Trajectory,
    build_p_block,
    chattering_index,
    controller_step,
    disturbance_at,
    initial_controller_state,
    initial_observer_state,
    load_trajectory_csv,
    lyapunov_value,
    norm_bound,
    observer_step,
    rate_bound,
    settling_time,
    simulate_closed_loop,
    simulate_observer,
    transform_state,
    ultimate_bound,
    write_trajectory_csv,
)
from smoothsmc.experiments import (
    CONTROLLER_SETTLE_REL,
    OBSERVER_SETTLE_ABS,
    TAIL_FRACTION,
    _Metrics,
    build_sim_config,
    experiment_disturbance,
    method_gain_config,
    run_cell,
    run_cells,
    tail_cutoff,
)
from smoothsmc.sim import Block, trajectory_columns

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

    def test_equality_compares_values(self):
        # the generated __eq__ compared the constant_value arrays and raised
        assert experiment_disturbance("exp1") == experiment_disturbance("exp1")
        assert DisturbanceSpec.constant([0.1, 0.2]) != DisturbanceSpec.constant([0.1, 0.3])
        assert EXP1 != EXP2 and EXP2 == experiment_disturbance("exp2")
        assert DisturbanceSpec.none(3) == DisturbanceSpec.none(3) != DisturbanceSpec.none(2)
        # the same samples, another kind: a different spec, as its JSON form is
        assert DisturbanceSpec.none(2) != DisturbanceSpec.constant([0.0, 0.0])
        assert EXP1 != EXP1.to_dict()

    def test_equal_specs_hash_equal(self):
        pairs = [
            (DisturbanceSpec.constant([-0.0, 2]), DisturbanceSpec.constant([0.0, 2.0])),
            (DisturbanceSpec.sinusoid_mix([(2, 1.0, True)]),
             DisturbanceSpec.sinusoid_mix([(2.0, 1, True)])),
            (experiment_disturbance("exp1"), DisturbanceSpec.from_dict(EXP1.to_dict())),
            (DisturbanceSpec.none(np.int64(3)), DisturbanceSpec.from_dict({"kind": "none"}, n=3)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)

    def test_specs_are_set_members_and_dict_keys(self):
        specs = {EXP1, EXP2, EXP3, experiment_disturbance("exp1"), DisturbanceSpec.none(3)}
        assert len(specs) == 4 and DisturbanceSpec.constant([0.1, 0.2, 0.2]) in specs
        names = {EXP1: "exp1", EXP2: "exp2"}
        assert names[experiment_disturbance("exp2")] == "exp2"
        assert DisturbanceSpec.none(2) not in {DisturbanceSpec.constant([0.0, 0.0])}

    @pytest.mark.parametrize("kind, channel", [
        ("constant", (0.1, 1.0, True)), ("constant", (0.1, 0.0, False)),
        ("none", (0.1, 0.0, True)), ("none", (-0.0, 0.0, True)), ("none", (0.0, 2.0, True)),
    ], ids=["constant-frequency", "constant-sine", "none-amplitude", "none-negative-zero",
            "none-frequency"])
    def test_a_constant_or_none_is_cosines_at_frequency_zero(self, kind, channel):
        # the JSON form of these kinds gives no channels, so it could not state others
        with pytest.raises(ValueError, match="cosines at w = 0"):
            DisturbanceSpec(kind=kind, n=1, channels=[channel])

    def test_channel_form_of_a_constant_and_of_none(self):
        spec = DisturbanceSpec(kind="constant", n=2, channels=[(0.1, 0.0, True), (-0.0, 0, True)])
        assert spec == DisturbanceSpec.constant([0.1, -0.0])
        assert json.dumps(spec.to_dict()) == json.dumps(DisturbanceSpec.constant(
            [0.1, -0.0]).to_dict()) == '{"kind": "constant", "n": 2, "constant_value": [0.1, -0.0]}'
        none = DisturbanceSpec(kind="none", n=2, channels=[(0.0, 0.0, True)] * 2)
        assert none == DisturbanceSpec.none(2)

    @pytest.mark.parametrize("make, message", [
        (lambda: DisturbanceSpec(kind="bogus", n=3), "unknown disturbance kind 'bogus'"),
        (lambda: DisturbanceSpec(kind="constant", n=2, channels=[(0.1, 0.0, True)] * 3),
         "one channel per component"),
        (lambda: DisturbanceSpec(kind="sinusoid-mix", n=2, channels=[(1.0, 1.0, True)]),
         "one channel per component"),
        (lambda: DisturbanceSpec(kind="sinusoid-mix", n=1), "one channel per component"),
        (lambda: DisturbanceSpec.from_dict({"kind": "none"}), "needs a dimension"),
    ], ids=["unknown-kind", "constant-dimension", "channel-count", "no-channels",
            "none-without-dimension"])
    def test_refusals(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        spec = DisturbanceSpec.sinusoid_mix([(np.float32(0.1), np.float64(1.0), False),
                                             (0.2, np.int64(4), True), (2, 2.0, True)])
        assert spec.channels == ((float(np.float32(0.1)), 1.0, False), (0.2, 4.0, True),
                                 (2, 2.0, True))
        assert [type(v) for c in spec.channels for v in c[:2]] == [float] * 4 + [int, float]
        none = DisturbanceSpec.none(np.int64(3))
        assert type(none.n) is int
        assert json.dumps(none.to_dict()) == '{"kind": "none", "n": 3}'
        assert json.dumps(spec.to_dict()).startswith('{"kind": "sinusoid-mix", "n": 3, ')

    @pytest.mark.parametrize("spec", [DisturbanceSpec.constant([-0.0, 0.2, -1e-300]),
                                      DisturbanceSpec.none(2)], ids=["constant", "none"])
    def test_a_constant_series_is_its_value_bit_for_bit(self, spec):
        # a constant is the cosine channels at frequency 0, none at amplitude 0
        value = np.array([c.amplitude for c in spec.channels])
        sim = SimConfig(x1_init=[1.0] * spec.n, dt=1e-3, horizon=5.0)
        times, d_now, d3 = sim_module._disturbance_series(sim, spec, 4000, 5000)
        assert d_now.tobytes() == np.tile(value, (1000, 1)).tobytes()
        assert d3.tobytes() == np.tile(value, (3, 1000, 1, 1)).tobytes()
        assert disturbance_at(spec, times[-1]).tobytes() == value.tobytes()


class TestSimConfigSettings:
    def test_numpy_scalars_are_stored_as_floats(self):
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=np.float32(1e-3), horizon=np.int64(2),
                        singular_tol=np.float64(1e-12))
        assert [type(v) for v in (sim.dt, sim.horizon, sim.singular_tol)] == [float] * 3
        assert (sim.dt, sim.horizon) == (float(np.float32(1e-3)), 2.0)
        assert type(SimConfig(x1_init=[1.0], horizon=2).horizon) is int

    @pytest.mark.parametrize("name", ["dt", "horizon", "singular_tol", "x1_init"])
    def test_an_int_too_large_for_a_float_is_refused_by_name(self, name):
        value = [10**400, 0, 0] if name == "x1_init" else 10**400
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            SimConfig(**{"x1_init": [1.0, 3.0, 2.0], name: value})

    def test_a_channel_too_large_for_a_float_is_refused(self):
        with pytest.raises(ValueError, match="must be finite numbers"):
            DisturbanceSpec.sinusoid_mix([(10**400, 1.0, False)])

    def test_equal_configs_hash_equal(self):
        a = SimConfig(x1_init=[-0.0, 2], horizon=2)
        b = SimConfig(x1_init=np.array([0.0, 2.0]), horizon=2.0)
        assert a == b and hash(a) == hash(b)
        assert a.x1_init == (0.0, 2.0) and [type(v) for v in a.x1_init] == [float, float]
        assert {a: "a"}[b] == "a" and len({a, b, replace(a, dt=2e-3)}) == 2

    def test_equality_compares_values(self):
        # the generated __eq__ compared the x1_init arrays and raised
        assert SimConfig(x1_init=[1.0, 2.0]) == SimConfig(x1_init=np.array([1.0, 2.0]))
        assert SimConfig(x1_init=[1.0, 2.0]) != SimConfig(x1_init=[1.0, 2.5])
        assert SimConfig(x1_init=[1.0, 2.0]) != SimConfig(x1_init=[1.0, 2.0], dt=2e-3)
        assert SimConfig(x1_init=[1.0, 2.0]) != SimConfig(x1_init=[1.0, 2.0, 0.0])
        assert SimConfig(x1_init=[1.0, 2.0]) != {"x1_init": [1.0, 2.0]}


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
        x, zero, xs = np.array(sim.x1_init), np.zeros(3), []
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
        traj_b = simulate_closed_loop([cfg], sim, EXP1)[0]
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

    @pytest.mark.parametrize("header", [
        "t,x11,x13,u1,u2,u3,d1,d2,d3",  # a gap in x1
        "t,x12,x11,x13,u1,u2,u3,d1,d2,d3",  # x1 out of order
        "t,x11,x12,x13,u1,u2,u3,d1,d2,d3,phase",  # a column no field has
        "t,x11,x12,x13,u1,u2,d1,d2,d3",  # u narrower than x1
    ], ids=["gap", "order", "unknown", "width"])
    def test_a_header_the_writer_cannot_write_is_refused(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        row = ",".join(["0.5"] * len(header.split(",")))
        path.write_text(f"{header}\n{row}\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(header)):
            load_trajectory_csv(path)


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
    x = np.array(sim.x1_init)
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
    x, zero = np.array(sim.x1_init), np.zeros(sim.n)
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
PARTNER = reference_gains(m=2.0, k4=25.0, kappa=7.0, epsilon=2e-3)


class TestBatchedLoopIsTheScalarLaws:
    @pytest.mark.parametrize("cfg,dist,sim", [
        (reference_gains(), EXP1, SHORT),
        (reference_gains(m=2.0), EXP2, SHORT),
        # u = -(L1*D1 + L2*x + I) turns the +0.0 law output at x = -0.0 into -0.0
        (reference_gains(), DisturbanceSpec.none(3), NEGATIVE_ZERO),
        (reference_gains(m=2.0), EXP2, NEGATIVE_ZERO),
    ], ids=["exp1-m3-with-V", "exp2-m2", "negative-zero-none-m3-with-V", "negative-zero-exp2-m2"])
    def test_controller_at_b1_is_the_reference_loop(self, cfg, dist, sim):
        # the float kernel calls laws.law_step as the reference loop does, so
        # row 0 of a pair (the array kernel, row 0 as in
        # assert_alone_is_row_zero_of_a_pair) is the check that is independent
        p_block = build_p_block(cfg) if cfg.m > 2 else None
        want = reference_controller_run(cfg, sim, dist, p_block)
        assert_same_record(simulate_closed_loop([cfg], sim, dist)[0], want, "alone")
        assert_same_record(simulate_closed_loop([cfg, PARTNER], sim, dist)[0], want, "row 0")

    @pytest.mark.parametrize("m", [3.0, 2.0])
    def test_observer_at_b1_is_the_reference_loop(self, m):
        cfg = reference_gains(m=m)
        want = reference_observer_run(cfg, SHORT, EXP3)
        assert_same_record(simulate_observer([cfg], SHORT, EXP3)[0], want, "alone")
        assert_same_record(simulate_observer([cfg, PARTNER], SHORT, EXP3)[0], want, "row 0")

    def test_mixed_controller_batch_rows_are_their_own_runs(self):
        batch = simulate_closed_loop(MIXED_CONTROLLERS, SHORT, EXP2)
        assert [traj.V is None for traj in batch] == [False, True, False]
        for i, cfg in enumerate(MIXED_CONTROLLERS):
            alone = simulate_closed_loop([cfg], SHORT, EXP2)[0]
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
            batch = simulate_closed_loop(cfgs, sim, EXP2)
            alone = [simulate_closed_loop([cfg], sim, EXP2)[0] for cfg in cfgs]
        for i, (got, want) in enumerate(zip(batch, alone)):
            assert_same_record(got, want, i)


def assert_alone_is_row_zero_of_a_pair(cfg, partner, sim, dist, observe=False):
    """A cell run alone (the float kernel) is bitwise its row in a batch of
    two (the array kernel).  The cell takes row 0: BLAS kernels that round a
    ``ddot`` by the row's alignment round an even row as a fresh vector."""
    simulate = simulate_observer if observe else simulate_closed_loop
    assert_same_record(simulate([cfg, partner], sim, dist)[0], simulate([cfg], sim, dist)[0])


class TestTheTwoKernelsAgree:
    """One cell steps on Python floats, a batch of two or more on arrays;
    the cell's record does not tell which."""

    @pytest.mark.parametrize("m", [3.0, 2.0])
    def test_a_start_below_the_singular_tolerance(self, m):
        sim = SimConfig(x1_init=[4e-13, -3e-13, 0.0], dt=1e-3, horizon=0.3)
        alone = simulate_closed_loop([reference_gains(m=m)], sim, EXP1)[0]
        # the first step's direction terms are +0.0: u = -((L1*0.0 + L2*x1) + 0.0)
        assert alone.u[0].tobytes() == (-(0.0 + 2.5 * np.array(sim.x1_init))).tobytes()
        assert_alone_is_row_zero_of_a_pair(reference_gains(m=m), PARTNER, sim, EXP1)

    @pytest.mark.parametrize("observe", [False, True], ids=["controller", "observer"])
    def test_negative_zero_components(self, observe):
        sim = SimConfig(x1_init=[-0.0, 3.0, -0.0], dt=1e-3, horizon=0.3)
        dist = (EXP3 if observe else DisturbanceSpec.none(3))
        assert_alone_is_row_zero_of_a_pair(reference_gains(), PARTNER, sim, dist, observe)

    @pytest.mark.parametrize("observe", [False, True], ids=["controller", "observer"])
    def test_numpy_scalar_gains_and_a_float32_dt(self, observe):
        cfg = reference_gains(k1=np.float64(2.1), k2=np.float32(2.6), k4=np.int64(31),
                              kappa=np.float32(9.5), m=np.float64(3.0))
        assert all(type(getattr(cfg, name)) is float for name in ("k1", "k2", "k4", "kappa", "m"))
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=np.float32(1e-3), horizon=0.3)
        assert type(sim.dt) is float and sim.dt == float(np.float32(1e-3))
        assert_alone_is_row_zero_of_a_pair(cfg, PARTNER, sim, EXP3 if observe else EXP2,
                                           observe)

    def test_the_dt_001_abort(self):
        sim = {"dt": 0.01, "horizon": 20}
        with pytest.raises(SimulationAborted) as alone:
            run_cells("exp1", [("amssosmc", None)], sim)
        with pytest.raises(SimulationAborted) as pair:  # k4 = 20 outlasts step 899
            run_cells("exp1", [("amssosmc", None), ("amssosmc", {"k4": 20.0})], sim)
        got, want = pair.value, alone.value
        assert (got.step, got.time, got.cell) == (want.step, want.time, want.cell) == (
            899, want.time, 0)
        assert got.state.tobytes() == want.state.tobytes()
        assert str(got) == str(want)

    @pytest.mark.parametrize("observe", [False, True], ids=["controller", "observer"])
    def test_a_lone_cell_makes_one_vecdot_a_step(self, monkeypatch, observe):
        # the float kernel leaves only its norm to numpy, on one reused
        # vector: each further numpy call would cost about as much again
        calls = []
        vecdot = np.vecdot

        def counted(a, b, *args, **kwargs):
            calls.append((id(a), id(b), a.shape))
            return vecdot(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "vecdot", counted)
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-3, horizon=0.5)
        simulate = simulate_observer if observe else simulate_closed_loop
        assert simulate([reference_gains()], sim, EXP3, False) == [None]
        assert len(calls) == sim.steps
        assert len(set(calls)) == 1 and calls[0][0] == calls[0][1] and calls[0][2] == (3,)

    @pytest.mark.parametrize("observe", [False, True], ids=["controller", "observer"])
    def test_a_lone_cell_calls_the_law_once_a_step(self, monkeypatch, observe):
        # the float kernel states no law of its own: it steps through laws.py
        assert sim_module.law_step is laws.law_step
        assert sim_module.update_L0 is laws.update_L0
        calls = {"law_step": 0, "update_L0": 0}

        def counted(name):
            def call(*args):
                calls[name] += 1
                return getattr(laws, name)(*args)
            return call

        for name in calls:
            monkeypatch.setattr(sim_module, name, counted(name))
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-3, horizon=0.5)
        simulate = simulate_observer if observe else simulate_closed_loop
        assert simulate([reference_gains()], sim, EXP3, False) == [None]
        assert calls == {"law_step": sim.steps, "update_L0": sim.steps}


def copied(block):
    """A copy of every array of ``block``."""
    return Block(block.start, *(None if a is None else a.copy() for a in block[1:]))


class TestRecordAndFold:
    @pytest.mark.parametrize("observe", [False, True], ids=["controllers", "observers"])
    def test_without_record_the_fold_still_sees_every_step(self, monkeypatch, observe):
        simulate, cfgs, dist = ((simulate_observer, MIXED_OBSERVERS, EXP3) if observe
                                else (simulate_closed_loop, MIXED_CONTROLLERS, EXP2))
        monkeypatch.setattr(sim_module, "BLOCK_CELL_STEPS", 7 * len(cfgs))
        sim = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-3, horizon=0.1, log_stride=4)
        seen = []
        got = simulate(cfgs, sim, dist, False, fold=lambda block: seen.append(copied(block)))
        assert got == [None] * len(cfgs)
        assert [block.start for block in seen] == list(range(0, sim.steps, 7))
        assert all(block.integral is None for block in seen)  # no V, so no integral
        full = simulate(cfgs, replace(sim, log_stride=1), dist)
        y = np.concatenate([block.y for block in seen], axis=1)
        L0 = np.concatenate([block.L0 for block in seen], axis=1)
        assert np.array_equal(np.concatenate([block.times for block in seen]), full[0].times)
        for b, want in enumerate(full):
            assert np.array_equal(y[b], want.d_hat if observe else want.u)
            assert np.array_equal(L0[b], want.L0)


    @pytest.mark.parametrize("cfgs", [[reference_gains()], MIXED_OBSERVERS],
                             ids=["alone", "batch"])
    def test_an_observer_block_broadcasts_its_one_measurement(self, cfgs):
        seen = []
        full = simulate_observer(cfgs, SHORT, EXP3, fold=lambda block: seen.append(
            (block.x1.shape, block.y.shape, block.x1.flags.writeable, block.x1[-1].copy())))
        assert all(x1 == y and not writeable for x1, y, writeable, _ in seen)
        measured = np.concatenate([last for *_, last in seen])
        assert all(np.array_equal(traj.x1, measured) for traj in full)

    def test_every_block_is_c_contiguous(self, monkeypatch):
        # blocks of 50 steps over 120: the last block is 20 steps, shorter than the first
        monkeypatch.setattr(sim_module, "BLOCK_CELL_STEPS", 2 * 50)
        sim, seen = SimConfig(x1_init=[1.0, 3.0, 2.0], dt=1e-3, horizon=0.12), []

        def fold(block):
            assert block.integral is not None  # the smooth cell's V needs it
            seen.append((block.y.shape[1], [name for name, a in block._asdict().items()
                                            if isinstance(a, np.ndarray)
                                            and not a.flags.c_contiguous]))

        simulate_closed_loop(MIXED_CONTROLLERS[:2], sim, EXP2, fold=fold)
        assert seen == [(50, []), (50, []), (20, [])]


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

    # The loop checks the state only when a norm is not finite; the abort
    # still names the step whose update left the state non-finite.
    @pytest.mark.parametrize("cells, cell", [
        ([("amssosmc", None)], 0),
        ([("amssosmc", {"k4": 20.0}), ("amssosmc", {"k4": 30.0})], 1),
    ], ids=["alone", "batch"])
    def test_abort_names_the_step_that_made_the_state(self, cells, cell):
        with pytest.raises(SimulationAborted) as info:
            run_cells("exp1", cells, {"dt": 0.01, "horizon": 20})
        assert (info.value.step, info.value.cell) == (899, cell)
        assert info.value.time == pytest.approx(9.0)
        assert not np.isfinite(info.value.state).all()

    def test_finite_states_with_overflowing_norms_do_not_abort(self):
        # the run above, stopped before step 899: its last states are finite,
        # but their norms, and so V, overflow to inf
        sim = build_sim_config(dt=0.01, horizon=8.99)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate_closed_loop([method_gain_config("amssosmc")], sim, EXP1)[0]
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.vecdot(traj.x1, traj.x1))
        assert traj.times.size == 899
        assert np.isfinite(traj.x1).all()
        assert np.isinf(norms[896:899]).all()
        assert np.isinf(traj.V[896:899]).all()

    def test_one_step_run_is_checked_after_the_loop(self):
        sim = SimConfig(x1_init=[1.0, 0.0, 0.0], dt=1e-2, horizon=1.4e-2)
        assert sim.steps == 1
        with pytest.raises(SimulationAborted) as info:
            simulate_closed_loop([reference_gains()], sim, DisturbanceSpec.constant([1e308, 0, 0]))
        assert (info.value.step, info.value.cell) == (0, 0)
        assert info.value.time == pytest.approx(1e-2)
        assert not np.isfinite(info.value.state).all()


class TestUnknownMethod:
    def test_configured_cells_name_an_unknown_method(self):
        sim = {"x1_init": [1.0, 3.0, 2.0], "horizon": 0.1}
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            run_cells("custom", [("bogus", None)], sim, disturbance=EXP1.to_dict())

    def test_gain_config_of_an_unknown_method_names_it(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            method_gain_config("bogus")


class TestRunCellsRefusals:
    def test_an_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment 'exp9'"):
            run_cells("exp9", [("amssosmc", None)])

    def test_a_custom_batch_of_a_controller_and_an_observer(self):
        with pytest.raises(ValueError, match="one kind"):
            run_cells("custom", [("amssosmc", None), ("amsdo", None)],
                      {"x1_init": [1.0, 3.0, 2.0], "horizon": 0.1}, disturbance=EXP1.to_dict())

    @pytest.mark.parametrize("experiment, method", [("exp1", "amssosmc"), ("exp3", "amsdo")])
    def test_a_tail_of_one_sample_is_refused_before_any_step(self, monkeypatch, experiment,
                                                             method):
        def no_stepping(*args, **kwargs):
            raise AssertionError("the plant was stepped")

        for name in ("simulate_closed_loop", "simulate_observer"):
            monkeypatch.setattr(f"smoothsmc.experiments.{name}", no_stepping)
        # at dt = 1 ms the tail of 5 steps is one sample; that of 6 is two
        with pytest.raises(ValueError, match="two tail samples"):
            run_cells(experiment, [(method, None)], {"horizon": 0.005})
        with pytest.raises(AssertionError, match="stepped"):
            run_cells(experiment, [(method, None)], {"horizon": 0.006})

    @pytest.mark.parametrize("dt", [1e-3, 0.1, 0.3, 1.0 / 3.0])
    def test_the_refusal_is_that_of_the_array_metrics(self, dt):
        # chattering_index refuses the same full-rate records, no more, no fewer
        def refuses(check, *args):
            try:
                check(*args)
            except ValueError as err:
                assert "two tail samples" in str(err)
                return True
            return False

        for steps in range(2, 40):
            times = np.arange(steps) * dt
            sim = build_sim_config(dt=dt, horizon=times[-1] + dt)
            assert sim.steps == steps
            assert refuses(tail_cutoff, sim) == refuses(
                chattering_index, times, np.zeros((steps, 1)), TAIL_FRACTION), steps

    @pytest.mark.parametrize("case", ["float32-amplitude", "int64-dimension",
                                      "int64-log-stride"])
    def test_a_numpy_scalar_setting_reaches_the_json_report(self, case):
        sim, disturbance = {"x1_init": [1.0, 3.0, 2.0], "horizon": 0.05}, EXP2.to_dict()
        if case == "float32-amplitude":
            disturbance["channels"][0]["amplitude"] = np.float32(0.1)
        if case == "int64-dimension":
            disturbance = {"kind": "none", "n": np.int64(3)}
        if case == "int64-log-stride":
            sim["log_stride"] = np.int64(2)
        traj, report = run_cells("custom", [("amssosmc", None)], sim, disturbance=disturbance)[0]
        config = json.loads(report.to_json())["config"]
        assert traj.times.size == 50 // config["sim"]["log_stride"]
        assert config["disturbance"] == DisturbanceSpec.from_dict(disturbance, n=3).to_dict()
        assert config["disturbance"]["n"] == 3


def defined_metrics(times, norms, values, threshold):
    """Settling time, ultimate bound and chattering index written as plain
    array code over a whole record: the oracle of the streamed folds."""
    above = np.flatnonzero(norms >= threshold)
    if above.size == 0:
        settle = float(times[0])
    else:
        settle = None if above[-1] == norms.size - 1 else float(times[above[-1] + 1])
    tail = times >= times[0] + (1.0 - TAIL_FRACTION) * (times[-1] - times[0])
    t = times[tail]
    variation = math.fsum(np.linalg.norm(np.diff(values[tail], axis=0), axis=1).tolist())
    return settle, float(norms[tail].max()), variation / float(t[-1] - t[0])


def assert_streamed_is_full_rate(experiment, cells, sim_overrides, block_steps,
                                 disturbance=None):
    """``run_cells`` with blocks of ``block_steps`` steps reports the metrics
    of the full-rate records (taken at ``log_stride`` 1) and keeps every
    ``log_stride``-th of their rows; returns the reports."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_module, "BLOCK_CELL_STEPS", block_steps * len(cells))
        streamed = run_cells(experiment, cells, sim_overrides, disturbance=disturbance)
    sim = build_sim_config(**sim_overrides)
    full_rate = replace(sim, log_stride=1)
    dist = (experiment_disturbance(experiment) if disturbance is None
            else DisturbanceSpec.from_dict(disturbance, n=sim.n))
    cfgs = [method_gain_config(method, gains) for method, gains in cells]
    observer = cells[0][0] in ("amsdo", "amdo-baseline")
    if observer:
        full, threshold = simulate_observer(cfgs, full_rate, dist), OBSERVER_SETTLE_ABS
    else:
        full = simulate_closed_loop(cfgs, full_rate, dist)
        threshold = CONTROLLER_SETTLE_REL * float(np.linalg.norm(sim.x1_init))
    for (traj, report), want in zip(streamed, full):
        norms = np.linalg.norm(want.d_hat - want.d_true if observer else want.x1, axis=1)
        values = want.d_hat if observer else want.u
        array = (settling_time(want.times, norms, threshold),
                 ultimate_bound(want.times, norms, TAIL_FRACTION),
                 chattering_index(want.times, values, TAIL_FRACTION))
        got = (report.settling_time, report.ultimate_bound, report.chattering_index)
        assert got == array == defined_metrics(want.times, norms, values, threshold)
        assert report.final_L0 == float(want.L0[-1])
        assert [name for name, _ in traj.columns()] == [name for name, _ in want.columns()]
        for name, col in want.columns():
            assert getattr(traj, name).tobytes() == col[::sim.log_stride].tobytes(), name
    return [report for _, report in streamed]


# (experiment, cells, sim overrides, disturbance), each run at 300 steps or fewer
STREAMED_CASES = {
    "never-settles": ("exp1", [("amssosmc", None)], {"horizon": 0.25, "log_stride": 3}, None),
    "settled-at-t0": ("custom", [("amsdo", None), ("amdo-baseline", {"kappa": 4.0})],
                      {"horizon": 0.2, "x1_init": [1.0, -2.0], "log_stride": 7},
                      {"kind": "none", "n": 2}),
    # the tail starts at step 240, inside a block of 7 steps or of 299
    "tail-inside-a-block": ("exp2", [("amssosmc", None), ("amstsmc-baseline", {"k4": 25.0})],
                            {"horizon": 0.3}, None),
    "observers": ("exp3", [("amsdo", {"kappa": 7.0}), ("amdo-baseline", None)],
                  {"horizon": 0.27, "log_stride": 11}, None),
}


class TestStreamedMetricsAreTheArrayMetrics:
    @pytest.mark.parametrize("blocks", ["1", "7", "steps-1", "steps", "steps+5"])
    @pytest.mark.parametrize("case", list(STREAMED_CASES))
    def test_constructed_runs(self, case, blocks):
        experiment, cells, sim_overrides, disturbance = STREAMED_CASES[case]
        steps = build_sim_config(**sim_overrides).steps
        block_steps = {"1": 1, "7": 7, "steps-1": steps - 1, "steps": steps,
                       "steps+5": steps + 5}[blocks]
        reports = assert_streamed_is_full_rate(experiment, cells, sim_overrides, block_steps,
                                               disturbance)
        if case == "never-settles":
            assert reports[0].settling_time is None
        if case == "settled-at-t0":
            assert [r.settling_time for r in reports] == [0.0, 0.0]

    @settings(max_examples=20, deadline=None)
    @given(horizon=st.floats(0.03, 0.3), stride=st.integers(1, 40), observer=st.booleans(),
           gains=st.lists(st.tuples(st.floats(15.0, 45.0), st.sampled_from([2.0, 3.0])),
                          min_size=1, max_size=3),
           blocks=st.sampled_from(["1", "7", "steps-1", "steps", "steps+5"]))
    def test_random_runs(self, horizon, stride, observer, gains, blocks):
        # a batch that mixes m = 2 and m = 3 has V on some rows only
        sim_overrides = {"horizon": horizon, "log_stride": stride}
        steps = build_sim_config(**sim_overrides).steps
        block_steps = {"1": 1, "7": 7, "steps-1": max(1, steps - 1), "steps": steps,
                       "steps+5": steps + 5}[blocks]
        methods = ("amsdo", "amdo-baseline") if observer else ("amssosmc", "amstsmc-baseline")
        cells = [(methods[m == 2.0], {"k4": k}) for k, m in gains]
        assert_streamed_is_full_rate("exp3" if observer else "exp2", cells, sim_overrides,
                                     block_steps)

    # ||x1|| overflows from step 896 on finite states; step 899 makes a non-finite state
    @pytest.mark.parametrize("block_steps", [1, 7, 897, 4608])
    def test_the_abort_does_not_depend_on_the_blocks(self, monkeypatch, block_steps):
        monkeypatch.setattr(sim_module, "BLOCK_CELL_STEPS", block_steps)
        with pytest.raises(SimulationAborted) as info:
            run_cells("exp1", [("amssosmc", None)], {"dt": 0.01, "horizon": 20})
        assert (info.value.step, info.value.cell) == (899, 0)
        assert str(info.value).startswith("non-finite state in cell 0 at step 899 ")


class TestMetricsFold:
    """``_Metrics`` on synthetic blocks: the step-index settling time and the
    exactly rounded sum of the tail steps, across block ends too, against
    the array functions, whatever the blocks."""

    # per cell, the last step whose ||x1|| reaches the threshold: one that ends
    # a block of 2 or 3 steps, one that starts one, the very last step, none
    LAST_ABOVE = (5, 6, 19, None)

    @pytest.mark.parametrize("block_steps", [1, 2, 3, 20])
    def test_synthetic_blocks(self, block_steps):
        sim = build_sim_config(dt=0.1, horizon=2.0)  # 20 steps, the tail is steps 16-19
        steps, threshold = sim.steps, 0.5
        times = np.arange(steps) * sim.dt
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-0.2, 0.2, (len(self.LAST_ABOVE), steps, 3))
        for row, last in zip(x1, self.LAST_ABOVE):
            if last is not None:
                row[:last + 1, 0] = 1.0
        y = rng.uniform(-1.0, 1.0, x1.shape)
        L0 = rng.uniform(1.0, 2.0, x1.shape[:2])
        d_true = np.zeros((steps, 3))
        metrics = _Metrics(len(x1), threshold, sim, observe=False)
        for start in range(0, steps, block_steps):
            rows = slice(start, start + block_steps)
            metrics.add(Block(start, times[rows], d_true[rows], x1[:, rows], y[:, rows],
                              L0[:, rows], None))
        got = metrics.results()
        assert [settle for settle, *_ in got] == [6 * sim.dt, 7 * sim.dt, None, 0.0]
        for (settle, bound, chatter, final_L0), x, u, l0 in zip(got, x1, y, L0):
            norms = np.linalg.norm(x, axis=1)
            assert settle == settling_time(times, norms, threshold)
            assert bound == ultimate_bound(times, norms, TAIL_FRACTION)
            assert chatter == chattering_index(times, u, TAIL_FRACTION)
            assert final_L0 == l0[-1]


class TestSweepMemory:
    def test_peak_memory_does_not_grow_with_the_horizon(self):
        cells = [("amssosmc", {"k4": k4}) for k4 in (20.0, 25.0, 30.0, 35.0)]
        run_cells("exp2", cells, {"horizon": 0.1}, record=False)  # first-call allocations

        def traced_peak(horizon):
            tracemalloc.start()
            try:
                assert run_cells("exp2", cells, {"horizon": horizon}, record=False)[0][0] is None
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(8.0) <= 1.2 * traced_peak(2.0)


class TestMetricsFoldMemory:
    def test_a_sweep_peak_is_flat_in_the_horizon(self, monkeypatch):
        # The fold keeps a few floats per cell, whatever the tail's length.
        # In blocks of 64 steps this sweep's traced peak at 8 s reads 0.99x
        # its peak at 2 s; a fold that keeps every tail step norm (8 bytes
        # a cell-step) read 1.58x, so a few per cent separates the two.
        monkeypatch.setattr(sim_module, "BLOCK_CELL_STEPS", 256)
        cells = [("amssosmc", {"k4": k4}) for k4 in (20.0, 25.0, 30.0, 35.0)]
        run_cells("exp2", cells, {"horizon": 0.1}, record=False)  # first-call allocations

        def traced_peak(horizon):
            tracemalloc.start()
            try:
                assert run_cells("exp2", cells, {"horizon": horizon}, record=False)[0][0] is None
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(8.0) <= 1.05 * traced_peak(2.0)


class TestRecordMemory:
    """A recorded run holds each value once: its traced peak grows with the
    horizon by little more than its records' own bytes, and a loaded record
    is views of the one table that it parsed."""

    @pytest.mark.parametrize("experiment, cells, bound", [
        ("exp2", [("amssosmc", None), ("amstsmc-baseline", None)], 2.0),  # V and its integral
        ("exp3", [("amsdo", None), ("amdo-baseline", None)], 1.25),  # one shared measurement
    ], ids=["controllers", "observers"])
    def test_peak_grows_as_the_records(self, monkeypatch, experiment, cells, bound):
        # blocks of 128 steps and V in chunks of 512 rows, all of them full at
        # both horizons, so that only what grows with the run differs
        monkeypatch.setattr(sim_module, "BLOCK_CELL_STEPS", 256)
        run_cells(experiment, cells, {"horizon": 0.1})  # first-call allocations

        def traced(horizon):
            tracemalloc.start()
            try:
                trajs = [traj for traj, _ in run_cells(experiment, cells, {"horizon": horizon})]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # shared columns (the time grid, d, an observer's measurement) count once
            return peak, sum({id(c): c.nbytes for t in trajs for _, c in t.columns()}.values())

        (peak_a, own_a), (peak_b, own_b) = traced(1.024), traced(2.048)
        assert peak_b - peak_a <= bound * (own_b - own_a)

    def test_a_loaded_record_is_views_of_its_table(self, tmp_path, exp3_m3):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(exp3_m3[0], path)
        loaded = load_trajectory_csv(path)
        table = loaded.times.base  # t is a column of the parsed table
        assert table.shape == (loaded.times.size, len(trajectory_columns(loaded)))
        for name in ("x1", "u", "d_true", "d_hat"):
            assert np.shares_memory(getattr(loaded, name), table), name
