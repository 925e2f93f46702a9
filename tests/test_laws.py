from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsmc import (
    GainCheck,
    GainConfig,
    build_certificate,
    check_gain_condition,
    controller_step,
    gains_from_L0,
    observer_step,
    unit_power_direction,
    update_L0,
)
from smoothsmc import laws
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

    @settings(max_examples=300, deadline=None)
    @given(m=st.one_of(st.just(2), st.just(2.0), st.integers(2, 10**6), st.floats(2.0, 1e6)),
           gains=st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                          min_size=4, max_size=4))
    def test_integer_ratios_are_the_fraction_arithmetic(self, m, gains):
        # gains across the whole positive float range, subnormals included
        cfg = GainConfig(*gains, m=m, kappa=1.0, allow_uncertified=True)
        # the oracle: each gain a Fraction, combined by Fraction operations
        fm = Fraction(cfg.m)
        k1, k2, k3, k4 = map(Fraction, gains)
        lhs = fm * fm * k3 * k4
        rhs = (fm**3 * k3 / (fm - 1) + (4 * fm * fm - 4 * fm + 1) * k1 * k1) * k2 * k2
        assert gain_condition_terms(cfg) == (lhs, rhs)
        assert all(type(side) is Fraction for side in gain_condition_terms(cfg))
        holds = cfg.m > 2 and lhs > rhs
        reason = ("baseline-exempt" if cfg.m == 2 else
                  "certified" if holds else "condition-violated")
        try:
            sides = float(lhs), float(rhs)
        except OverflowError:  # a side past the float range is refused, as the oracle is
            with pytest.raises(ValueError, match=r"overflow the gain condition$"):
                check_gain_condition(cfg)
            return
        assert check_gain_condition(cfg) == GainCheck(holds, reason, *sides)

    def test_the_decision_builds_no_fraction(self, monkeypatch):
        # the gain rests on the cross-multiplied integers: a Fraction would
        # reduce each side by the gcd of integers of a hundred bits and more
        built = []

        def counted(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(laws, "Fraction", counted)
        cfg = reference_gains()
        assert check_gain_condition(cfg).holds
        assert build_certificate(cfg).certified
        assert built == []
        assert all(type(side) is Fraction for side in gain_condition_terms(cfg))
        assert len(built) == 2

    @pytest.mark.parametrize("m", [2.0, 3.0])
    def test_overflowing_terms_name_the_gains(self, m):
        with pytest.raises(ValueError, match=r"k1=1e\+200.*overflow the gain condition"):
            check_gain_condition(reference_gains(m=m, k1=1e200))


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


class TestGainConfigStoresFloats:
    FIELDS = ("k1", "k2", "k3", "k4", "m", "kappa", "epsilon", "L0_init")

    def test_numpy_scalars_are_stored_as_floats(self):
        cfg = GainConfig(k1=np.float32(2.1), k2=np.float64(2.5), k3=np.int64(4),
                         k4=np.float16(30.0), m=np.float64(3.0), kappa=np.int32(10),
                         epsilon=np.float32(1e-3), L0_init=np.float64(1.0))
        assert all(type(getattr(cfg, name)) is float for name in self.FIELDS)
        assert (cfg.k1, cfg.k3, cfg.epsilon) == (float(np.float32(2.1)), 4.0,
                                                 float(np.float32(1e-3)))

    def test_python_ints_and_floats_are_kept_as_given(self):
        cfg = GainConfig(k1=2, k2=2.5, k3=4, k4=30, m=3, kappa=10, L0_init=1)
        assert [type(getattr(cfg, name)) for name in self.FIELDS] == [
            int, float, int, int, int, int, float, int]

    @pytest.mark.parametrize("name", FIELDS)
    def test_an_int_too_large_for_a_float_is_refused_by_name(self, name):
        params = dict(k1=2.0, k2=2.5, k3=4.0, k4=30.0, m=3.0, kappa=10.0,
                      allow_uncertified=True)
        params[name] = 10**400
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            GainConfig(**params)


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
        u, integral, L0 = controller_step(np.zeros(3), np.zeros(3), cfg.L0_init, cfg, 1e-3)
        assert np.array_equal(u, np.zeros(3))
        assert np.array_equal(integral, np.zeros(3))
        assert L0 == cfg.L0_init  # dead zone

    def test_unit_state_control(self):
        cfg = reference_gains()
        u, _, _ = controller_step(np.array([1.0, 0.0, 0.0]), np.zeros(3), cfg.L0_init, cfg, 1e-3)
        assert u == pytest.approx([-4.5, 0.0, 0.0])

    def test_two_step_hand_recursion(self):
        # hold x1 at [1,0,0]; the integral accumulates dt*(L3+L4) per step
        # with the gains re-evaluated after each L0 update
        cfg = reference_gains()
        dt = 1e-3
        x1 = np.array([1.0, 0.0, 0.0])
        integral, L0 = np.zeros(3), cfg.L0_init
        for _ in range(2):
            _, integral, L0 = controller_step(x1, integral, L0, cfg, dt)

        L0_a = 1.0
        g_a = gains_from_L0(cfg, L0_a)
        L0_b = L0_a + cfg.kappa * dt
        g_b = gains_from_L0(cfg, L0_b)
        expected = dt * (g_a.L3 + g_a.L4) + dt * (g_b.L3 + g_b.L4)
        assert integral[0] == pytest.approx(expected, rel=1e-15)
        assert L0 == pytest.approx(L0_b + cfg.kappa * dt)

    def test_dimension_mismatch_is_hard_error(self):
        cfg = reference_gains()
        with pytest.raises(ValueError):
            controller_step(np.zeros(2), np.zeros(3), cfg.L0_init, cfg, 1e-3)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_L0_monotone_along_trajectories(self, seed):
        cfg = reference_gains()
        rng = np.random.default_rng(seed)
        integral, L0 = np.zeros(3), cfg.L0_init
        previous = L0
        for _ in range(30):
            _, integral, L0 = controller_step(rng.uniform(-1, 1, 3), integral, L0, cfg, 1e-3)
            assert L0 >= previous
            previous = L0


class TestObserverStep:
    def test_zero_error_gives_zero_estimate(self):
        cfg = reference_gains()
        x = np.array([1.0, 2.0, 3.0])
        d_hat, _, integral, _ = observer_step(x, np.zeros(3), x, np.zeros(3), cfg.L0_init, cfg,
                                              1e-3)
        assert np.array_equal(d_hat, np.zeros(3))
        assert np.array_equal(integral, np.zeros(3))

    def test_unit_error_estimate(self):
        # innovation e = x - z = [1,0,0] mirrors the controller example with
        # the observer's plus signs
        cfg = reference_gains()
        d_hat, _, _, _ = observer_step(np.array([1.0, 0.0, 0.0]), np.zeros(3), np.zeros(3),
                                       np.zeros(3), cfg.L0_init, cfg, 1e-3)
        assert d_hat == pytest.approx([4.5, 0.0, 0.0])

    def test_dimension_mismatch_is_hard_error(self):
        cfg = reference_gains()
        with pytest.raises(ValueError):
            observer_step(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), cfg.L0_init, cfg,
                          1e-3)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), L0=st.floats(0.5, 20.0))
    def test_controller_observer_duality(self, seed, L0):
        # with zero integrals and identical gains, feeding the innovation into
        # the controller yields the negated observer feedback, bit for bit
        cfg = reference_gains()
        rng = np.random.default_rng(seed)
        e = rng.uniform(-2, 2, 3)
        u, _, _ = controller_step(e, np.zeros(3), L0, cfg, 1e-3)
        d_hat, _, _, _ = observer_step(e, np.zeros(3), np.zeros(3), np.zeros(3), L0, cfg, 1e-3)
        assert u.tobytes() == (-d_hat).tobytes()
