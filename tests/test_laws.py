from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsmc import (
    ControllerState,
    GainConfig,
    ObserverState,
    check_gain_condition,
    controller_step,
    gains_from_L0,
    initial_controller_state,
    initial_observer_state,
    observer_step,
    unit_power_direction,
    update_L0,
)
from smoothsmc.laws import gain_condition_terms

from conftest import reference_gains


class TestGainCondition:
    def test_reference_gains_certified(self):
        chk = check_gain_condition(reference_gains())
        assert chk.holds
        assert chk.reason == "certified"
        assert (chk.lhs, chk.rhs) == (1080.0, 962.5)

    def test_exact_rational_terms(self):
        lhs, rhs = gain_condition_terms(reference_gains())
        assert lhs == Fraction(1080)
        assert rhs == Fraction(1925, 2)

    def test_reduced_k4_violates(self):
        chk = check_gain_condition(reference_gains(k4=20.0))
        assert not chk.holds
        assert chk.reason == "condition-violated"
        assert (chk.lhs, chk.rhs) == (720.0, 962.5)

    def test_baseline_exempt(self):
        chk = check_gain_condition(reference_gains(m=2.0))
        assert not chk.holds
        assert chk.reason == "baseline-exempt"


class TestGainConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            GainConfig(k1=-1, k2=2.5, k3=4, k4=30, m=3, kappa=10)

    def test_rejects_m_below_two(self):
        with pytest.raises(ValueError):
            GainConfig(k1=2, k2=2.5, k3=4, k4=30, m=1.5, kappa=10)

    def test_uncertified_needs_explicit_flag(self):
        with pytest.raises(ValueError):
            GainConfig(k1=2, k2=2.5, k3=4, k4=20, m=3, kappa=10)
        cfg = GainConfig(k1=2, k2=2.5, k3=4, k4=20, m=3, kappa=10,
                         allow_uncertified=True)
        assert not check_gain_condition(cfg).holds

    def test_baseline_constructs_without_flag(self):
        GainConfig(k1=2, k2=2.5, k3=4, k4=30, m=2, kappa=10)


class TestUnitPowerDirection:
    def test_origin_regularization(self):
        out = unit_power_direction(np.zeros(3), 0.5)
        assert np.array_equal(out, np.zeros(3))

    def test_square_root_scaling(self):
        out = unit_power_direction(np.array([4.0, 0.0, 0.0]), 0.5)
        assert out == pytest.approx([2.0, 0.0, 0.0])

    def test_unit_norm_input(self):
        out = unit_power_direction(np.array([1.0, 0.0, 0.0]), 1.0 / 3.0)
        assert out == pytest.approx([1.0, 0.0, 0.0])

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            unit_power_direction(np.ones(2), 1.5)
        with pytest.raises(ValueError):
            unit_power_direction(np.ones(2), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e3),
        exponent=st.floats(0.01, 0.99),
    )
    def test_positive_homogeneity(self, seed, scale, exponent):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, 3)
        x /= max(np.linalg.norm(x), 1e-2)  # keep well away from singular_tol
        lhs = unit_power_direction(scale * x, exponent)
        rhs = scale ** (1.0 - exponent) * unit_power_direction(x, exponent)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_baseline_direction_has_unit_norm(self, seed):
        # exponent 1 (the m=2 case) produces a unit vector for any x != 0,
        # which is why the baseline law chatters
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, 3) + np.array([1e-3, 0.0, 0.0])
        out = unit_power_direction(x, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)


class TestUpdateL0:
    def test_grows_outside_dead_zone(self):
        cfg = reference_gains(epsilon=1e-3, kappa=10.0)
        assert update_L0(1.0, 0.5, cfg, 1e-3) == pytest.approx(1.01)

    def test_frozen_inside_dead_zone(self):
        cfg = reference_gains(epsilon=1e-3)
        assert update_L0(1.0, 1e-4, cfg, 1e-3) == 1.0

    def test_boundary_is_inclusive(self):
        cfg = reference_gains(epsilon=1e-3, kappa=10.0)
        assert update_L0(2.0, 1e-3, cfg, 1e-3) == pytest.approx(2.0 + 10.0 * 1e-3)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_never_decreases(self, seed):
        cfg = reference_gains()
        rng = np.random.default_rng(seed)
        L0 = cfg.L0_init
        for norm in rng.uniform(0.0, 2e-3, 50):
            new = update_L0(L0, float(norm), cfg, 1e-3)
            assert new >= L0
            L0 = new


class TestGainsFromL0:
    def test_unit_L0_collapses_to_k(self):
        g = gains_from_L0(reference_gains(), 1.0)
        assert (g.L1, g.L2, g.L3, g.L4) == (2.0, 2.5, 4.0, 30.0)

    def test_power_laws_at_L0_four(self):
        g = gains_from_L0(reference_gains(), 4.0)
        assert g.L1 == pytest.approx(2.0 * 4.0 ** (2.0 / 3.0), rel=1e-12)  # ~5.0397
        assert g.L2 == pytest.approx(10.0)
        assert g.L3 == pytest.approx(4.0 * 4.0 ** (4.0 / 3.0), rel=1e-12)  # ~25.398
        assert g.L4 == pytest.approx(480.0)

    def test_baseline_exponents(self):
        g = gains_from_L0(reference_gains(m=2.0), 9.0)
        assert g.L1 == pytest.approx(3.0 * 2.0)   # k1 * L0**(1/2)
        assert g.L3 == pytest.approx(9.0 * 4.0)   # k3 * L0**1

    @settings(max_examples=50, deadline=None)
    @given(L0=st.floats(0.1, 50.0))
    def test_recomputable_functional_dependence(self, L0):
        cfg = reference_gains()
        g = gains_from_L0(cfg, L0)
        m = cfg.m
        assert g.L1 == cfg.k1 * L0 ** ((m - 1) / m)
        assert g.L2 == cfg.k2 * L0
        assert g.L3 == cfg.k3 * L0 ** ((2 * m - 2) / m)
        assert g.L4 == cfg.k4 * L0 ** 2


class TestControllerStep:
    def test_origin_is_equilibrium(self):
        cfg = reference_gains()
        state = initial_controller_state(cfg, 3)
        u, new = controller_step(np.zeros(3), state, cfg, 1e-3)
        assert np.array_equal(u, np.zeros(3))
        assert np.array_equal(new.integral_term, np.zeros(3))
        assert new.L0 == state.L0  # dead zone

    def test_unit_state_control(self):
        cfg = reference_gains()
        state = initial_controller_state(cfg, 3)
        u, _ = controller_step(np.array([1.0, 0.0, 0.0]), state, cfg, 1e-3)
        assert u == pytest.approx([-4.5, 0.0, 0.0])

    def test_two_step_hand_recursion(self):
        # hold x1 at [1,0,0]; the integral accumulates dt*(L3+L4) per step
        # with the gains re-evaluated after each L0 update
        cfg = reference_gains()
        dt = 1e-3
        x1 = np.array([1.0, 0.0, 0.0])
        state = initial_controller_state(cfg, 3)
        for _ in range(2):
            _, state = controller_step(x1, state, cfg, dt)

        L0_a = 1.0
        g_a = gains_from_L0(cfg, L0_a)
        L0_b = L0_a + cfg.kappa * dt
        g_b = gains_from_L0(cfg, L0_b)
        expected = dt * (g_a.L3 + g_a.L4) + dt * (g_b.L3 + g_b.L4)
        assert state.integral_term[0] == pytest.approx(expected, rel=1e-15)
        assert state.L0 == pytest.approx(L0_b + cfg.kappa * dt)

    def test_dimension_mismatch_is_hard_error(self):
        cfg = reference_gains()
        state = initial_controller_state(cfg, 3)
        with pytest.raises(ValueError):
            controller_step(np.zeros(2), state, cfg, 1e-3)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_L0_monotone_along_trajectories(self, seed):
        cfg = reference_gains()
        rng = np.random.default_rng(seed)
        state = initial_controller_state(cfg, 3)
        previous = state.L0
        for _ in range(30):
            _, state = controller_step(rng.uniform(-1, 1, 3), state, cfg, 1e-3)
            assert state.L0 >= previous
            previous = state.L0


class TestObserverStep:
    def test_zero_error_gives_zero_estimate(self):
        cfg = reference_gains()
        x = np.array([1.0, 2.0, 3.0])
        state = initial_observer_state(cfg, x)
        d_hat, new = observer_step(x, np.zeros(3), state, cfg, 1e-3)
        assert np.array_equal(d_hat, np.zeros(3))
        assert np.array_equal(new.integral_term, np.zeros(3))

    def test_unit_error_estimate(self):
        # innovation e = x - z = [1,0,0] mirrors the controller example with
        # the observer's plus signs
        cfg = reference_gains()
        state = initial_observer_state(cfg, np.zeros(3))
        d_hat, _ = observer_step(np.array([1.0, 0.0, 0.0]), np.zeros(3), state, cfg, 1e-3)
        assert d_hat == pytest.approx([4.5, 0.0, 0.0])

    def test_estimate_recomputable_from_state(self):
        cfg = reference_gains()
        rng = np.random.default_rng(3)
        state = initial_observer_state(cfg, rng.uniform(-1, 1, 3))
        x = rng.uniform(-1, 1, 3)
        for _ in range(5):
            d_hat, state = observer_step(x, np.zeros(3), state, cfg, 1e-3)
        assert np.array_equal(state.d_hat, d_hat)

    def test_dimension_mismatch_is_hard_error(self):
        cfg = reference_gains()
        state = initial_observer_state(cfg, np.zeros(3))
        with pytest.raises(ValueError):
            observer_step(np.zeros(3), np.zeros(2), state, cfg, 1e-3)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), L0=st.floats(0.5, 20.0))
    def test_controller_observer_duality(self, seed, L0):
        # with zero integrals and identical gains, feeding the innovation into
        # the controller yields the negated observer feedback, bit for bit
        cfg = reference_gains()
        rng = np.random.default_rng(seed)
        e = rng.uniform(-2, 2, 3)
        ctrl = ControllerState(integral_term=np.zeros(3), L0=L0)
        obs = ObserverState(z1=np.zeros(3), d_hat=np.zeros(3),
                            integral_term=np.zeros(3), L0=L0)
        u, _ = controller_step(e, ctrl, cfg, 1e-3)
        d_hat, _ = observer_step(e, np.zeros(3), obs, cfg, 1e-3)
        assert u.tobytes() == (-d_hat).tobytes()
