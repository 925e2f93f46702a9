import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsmc import (
    SymMatrix,
    build_certificate,
    build_omega_blocks,
    build_p_block,
    build_q_block,
    eig_sym,
    estimate_convergence,
    is_positive_definite,
    kron_with_identity,
    linalg,
    lyapunov_series,
    lyapunov_value,
    residual_levels,
    settling_time_perturbed,
    settling_time_unperturbed,
    solve_residual_split,
    transform_state,
)
from smoothsmc.certificate import _split_residual

from conftest import reference_gains


class TestPBlock:
    def test_reference_entries(self):
        expected = 0.5 * np.array([
            [16.0, 5.0, -2.0],
            [5.0, 66.25, -2.5],
            [-2.0, -2.5, 2.0],
        ])
        assert np.array_equal(build_p_block(reference_gains()).entries, expected)

    def test_positive_definite_for_reference_gains(self):
        assert is_positive_definite(build_p_block(reference_gains()))

    @settings(max_examples=30, deadline=None)
    @given(m=st.floats(2.1, 8.0), k1=st.floats(0.5, 5.0), k4=st.floats(5.0, 60.0))
    def test_always_symmetric(self, m, k1, k4):
        cfg = reference_gains(m=m, k1=k1, k4=k4)
        p = build_p_block(cfg).entries
        assert np.array_equal(p, p.T)


class TestQBlock:
    def test_reference_diagonal(self):
        q = build_q_block(reference_gains()).entries
        assert np.array_equal(q, np.diag([23.25, 107.5, 2.875]))

    @settings(max_examples=30, deadline=None)
    @given(m=st.floats(2.0, 8.0), k1=st.floats(0.1, 5.0), k2=st.floats(0.1, 5.0),
           k3=st.floats(0.1, 20.0), k4=st.floats(0.1, 60.0))
    def test_diagonal_entries_positive(self, m, k1, k2, k3, k4):
        cfg = reference_gains(m=m, k1=k1, k2=k2, k3=k3, k4=k4)
        assert (np.diagonal(build_q_block(cfg).entries) > 0).all()


class TestOmegaBlocks:
    def test_reference_gains_both_positive_definite(self):
        o1, o2 = build_omega_blocks(reference_gains())
        assert is_positive_definite(o1)
        assert is_positive_definite(o2)

    def test_corner_entry(self):
        _, o2 = build_omega_blocks(reference_gains())
        assert o2.entries[2, 2] == 2.5  # k2 * 1

    def test_certified_direction_only(self):
        # the feasibility inequality is sufficient for definiteness, not
        # claimed necessary: certified gains must give PD blocks and positive
        # decrease constants, violating gains may or may not
        for m, k4 in ((2.5, 40.0), (3.0, 30.0), (4.0, 50.0), (6.0, 120.0)):
            cfg = reference_gains(m=m, k4=k4)
            from smoothsmc import check_gain_condition
            assert check_gain_condition(cfg).holds
            o1, o2 = build_omega_blocks(cfg)
            assert is_positive_definite(o1)
            assert is_positive_definite(o2)
            cert = build_certificate(cfg)
            assert cert.all_pd
            for constant in (cert.n1, cert.n2_coeff, cert.n3, cert.n4):
                assert constant is not None and constant > 0


def oracle_blocks(cfg):
    """The four blocks as numpy expressions, with numpy's overflow to inf."""
    k1, k2, k3, k4, m = cfg.k1, cfg.k2, cfg.k3, cfg.k4, cfg.m
    with np.errstate(over="ignore", invalid="ignore"):
        p = 0.5 * np.array([
            [2.0 * m / (m - 1.0) * k3 + k1 * k1, k1 * k2, -k1],
            [k1 * k2, 2.0 * k4 + k2 * k2, -k2],
            [-k1, -k2, 2.0],
        ])
        q1 = 2.0 * m / (m - 1.0) * k3 + k1 * k1 + (2.0 * m - 1.0) * k1 * k2 / (2.0 * (m - 1.0)) + k1 / 2.0
        q2 = m / (2.0 * (m - 1.0)) * (4.0 * k4 + 2.0 * k2 * k2 + k2) + (2.0 * m - 1.0) * k1 * k2 / (2.0 * (m - 1.0))
        q3 = k1 / 2.0 + m * k2 / (2.0 * (m - 1.0))
        omega1 = (k1 / m) * np.array([
            [k3 * m + k1 * k1 * (m - 1.0), 0.0, -k1 * (m - 1.0)],
            [0.0, k4 * m + k2 * k2 * (3.0 * m - 1.0), -k2 * (2.0 * m - 1.0)],
            [-k1 * (m - 1.0), -k2 * (2.0 * m - 1.0), m - 1.0],
        ])
        omega2 = k2 * np.array([
            [k3 + k1 * k1 * (3.0 * m - 2.0) / m, 0.0, 0.0],
            [0.0, k4 + k2 * k2, -k2],
            [0.0, -k2, 1.0],
        ])
    return p, np.diag([q1, q2, q3]), omega1, omega2


log_uniform_gains = st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)


class TestBlocksAgainstTheNumpyOracle:
    @settings(max_examples=300, deadline=None)
    @given(m=st.floats(2.0, 1e3, exclude_min=True), k1=log_uniform_gains, k2=log_uniform_gains,
           k3=log_uniform_gains, k4=log_uniform_gains)
    def test_bitwise_or_refused_by_name(self, m, k1, k2, k3, k4):
        cfg = reference_gains(m=m, k1=k1, k2=k2, k3=k3, k4=k4)
        p, q, omega1, omega2 = oracle_blocks(cfg)
        for build, want in ((build_p_block, (p,)), (build_q_block, (q,)),
                            (build_omega_blocks, (omega1, omega2))):
            if all(np.isfinite(w).all() for w in want):
                got = build(cfg)
                got = got if isinstance(got, tuple) else (got,)
                assert [g.entries.tobytes() for g in got] == [w.tobytes() for w in want]
            else:
                with pytest.raises(ValueError, match=r"^gains m=.*, k4=.* overflow the certificate blocks$"):
                    build(cfg)

    def test_the_top_of_the_gain_range_overflows_omega1(self):
        # Omega1 holds (k1/m) * k1^2 (m - 1): past the float range at k1 = 1e150,
        # so the property reaches the refusal
        assert not np.isfinite(oracle_blocks(reference_gains(m=1e3, k1=1e150))[2]).all()
        with pytest.raises(ValueError, match="overflow the certificate blocks"):
            build_omega_blocks(reference_gains(m=1e3, k1=1e150))


class TestCertificate:
    def test_reference_certificate(self):
        cert = build_certificate(reference_gains())
        assert cert.p1 == 0.75  # (2m-3)/(2m-2) at m=3
        assert cert.certified
        assert cert.all_pd
        assert cert.gain_condition.holds

    def test_n4_from_diagonal_q(self):
        cert = build_certificate(reference_gains())
        q2 = 107.5  # largest Q diagonal entry
        assert cert.n4 == pytest.approx(q2 / (2.0 * cert.P_eig.lambda_min), rel=1e-12)

    def test_n2_coeff_formula(self):
        cfg = reference_gains()
        cert = build_certificate(cfg)
        expected = math.sqrt(cfg.k1**2 + cfg.k2**2 + 4.0) / math.sqrt(cert.P_eig.lambda_min)
        assert cert.n2_coeff == pytest.approx(expected, rel=1e-12)

    def test_baseline_rejected(self):
        with pytest.raises(ValueError):
            build_certificate(reference_gains(m=2.0))

    def test_uncertified_flags_instead_of_nan(self):
        cert = build_certificate(reference_gains(k4=20.0))
        assert not cert.gain_condition.holds
        # constants valid iff all blocks are PD, and never NaN
        if cert.all_pd:
            for value in (cert.n1, cert.n2_coeff, cert.n3, cert.n4):
                assert value is not None and math.isfinite(value)
        else:
            assert cert.n1 is None and cert.n3 is None

    def test_overflowing_blocks_name_the_gains(self):
        # the exact condition stays finite, k1^2 in the blocks does not;
        # numpy's overflow warning would fail the suite
        with pytest.raises(ValueError, match=r"k1=1e\+200, k2=1e-200.*the certificate blocks"):
            build_certificate(reference_gains(k1=1e200, k2=1e-200))

    def test_each_block_is_solved_once(self, monkeypatch):
        # eig_sym runs the Jacobi sweeps without eigenvectors, through _jacobi
        calls = []
        solve = linalg._jacobi

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(linalg, "_jacobi", counted)
        build_certificate(reference_gains())
        assert len(calls) == 4  # P, Q, Omega1, Omega2

    def test_serializes(self):
        d = build_certificate(reference_gains()).to_dict()
        assert d["gain_condition"]["holds"] is True
        assert d["positive_definite"] == {"P": True, "Q": True, "Omega1": True, "Omega2": True}
        assert len(d["blocks"]["P"]) == 3


class TestNumpyScalarGains:
    def test_overflow_is_named_without_a_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"k1=1e\+200, k2=1e-200.*the certificate blocks"):
                build_certificate(reference_gains(k1=np.float64(1e200), k2=1e-200))

    def test_float32_gains_certify_as_their_floats(self):
        gains = {"k1": np.float32(2.1), "k2": np.float32(2.7), "k4": np.float32(35.0)}
        got = build_certificate(reference_gains(**gains)).to_dict()
        assert got == build_certificate(reference_gains(
            **{name: float(value) for name, value in gains.items()})).to_dict()


class TestLyapunovValue:
    def test_zero_state(self):
        xi = transform_state(np.zeros(3), np.zeros(3), 1.0, 3.0)
        assert lyapunov_value(xi, build_p_block(reference_gains())) == 0.0

    def test_identity_weight_gives_norms(self):
        rng = np.random.default_rng(0)
        xi = transform_state(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), 2.0, 3.0)
        v = lyapunov_value(xi, SymMatrix(np.eye(3)))
        expected = sum(float(part @ part) for part in (xi.xi1, xi.xi2, xi.xi3))
        assert v == pytest.approx(expected, rel=1e-14)

    def test_unit_first_block(self):
        from smoothsmc.certificate import TransformedState
        xi = TransformedState(xi1=np.array([1.0, 0.0, 0.0]),
                              xi2=np.zeros(3), xi3=np.zeros(3))
        assert lyapunov_value(xi, build_p_block(reference_gains())) == 8.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_blockwise_equals_full_quadratic_form(self, seed):
        rng = np.random.default_rng(seed)
        p_block = build_p_block(reference_gains())
        xi_parts = rng.uniform(-2, 2, (3, 3))
        from smoothsmc.certificate import TransformedState
        xi = TransformedState(*xi_parts)
        blockwise = lyapunov_value(xi, p_block)
        full = kron_with_identity(p_block, 3).entries
        flat = np.concatenate(xi_parts)  # (xi1; xi2; xi3) matches P (x) I_3 blocks
        direct = float(flat @ full @ flat)
        assert blockwise == pytest.approx(direct, rel=1e-10, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_eigenvalue_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        p_block = build_p_block(reference_gains())
        summary = eig_sym(p_block)
        from smoothsmc.certificate import TransformedState
        xi = TransformedState(*rng.uniform(-2, 2, (3, 3)))
        norm_sq = sum(float(p @ p) for p in (xi.xi1, xi.xi2, xi.xi3))
        v = lyapunov_value(xi, p_block)
        assert summary.lambda_min * norm_sq <= v * (1 + 1e-12) + 1e-12
        assert v <= summary.lambda_max * norm_sq * (1 + 1e-12) + 1e-12


class TestLyapunovSeries:
    @pytest.mark.parametrize("m", [3.0, 3.5])
    def test_each_sample_is_the_scalar_value(self, m):
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-2, 2, (40, 3))
        x1[5] = 0.0                # the origin
        x1[6] = [1e-13, 0.0, 0.0]  # inside the singular tolerance
        x1[7] = [0.0, -1e-4, 0.0]  # a small regular state
        x2 = rng.uniform(-1, 1, (40, 3))
        L0 = 1.0 + 0.37 * np.arange(40)
        p_block = build_p_block(reference_gains(m=m))
        series = lyapunov_series(x1, x2, L0, m, p_block)
        assert series.shape == (40,)
        for k in range(40):
            assert series[k] == lyapunov_value(transform_state(x1[k], x2[k], L0[k], m), p_block)

    def test_rejects_a_p_that_is_not_3x3(self):
        x = np.ones((4, 3))
        with pytest.raises(ValueError):
            lyapunov_series(x, x, np.ones(4), 3.0, SymMatrix(np.eye(2)))


class TestCertifiedDecrease:
    def test_decrease_at_frozen_gain_level(self, nodist_run):
        # The definiteness of both dissipation blocks certifies strict decrease
        # of V along the state motion at any FIXED gain level.  The logged V
        # series itself rises while L0 ramps (rescaling the transform), so the
        # check freezes L0 per sample and compares V(x_next) against V(x) at
        # that level, for macroscopic states (above the adaptation dead zone)
        # where the decay margin dominates the zero-order-hold noise.
        from smoothsmc import gains_from_L0, lyapunov_value, transform_state, unit_power_direction

        cfg, sim, traj = nodist_run
        p_block = build_p_block(cfg)
        m = cfg.m

        def integral_from_logs(k):
            g = gains_from_L0(cfg, traj.L0[k])
            x = traj.x1[k]
            return (-traj.u[k]
                    - g.L1 * unit_power_direction(x, 1.0 / m, sim.singular_tol)
                    - g.L2 * x)

        def v_at(k, L0):
            x2 = traj.d_true[k] - integral_from_logs(k)
            xi = transform_state(traj.x1[k], x2, L0, m, sim.singular_tol)
            return lyapunov_value(xi, p_block)

        violations = 0
        checked = 0
        for k in range(traj.times.size - 1):
            if np.linalg.norm(traj.x1[k]) < cfg.epsilon:
                continue
            checked += 1
            v_now = v_at(k, traj.L0[k])
            v_next = v_at(k + 1, traj.L0[k])
            if (v_next - v_now) / sim.dt > 1e-6 * max(1.0, v_now):
                violations += 1
        assert checked > 500
        assert violations == 0


class TestTransformState:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), L0=st.floats(0.5, 30.0),
           m=st.floats(2.0, 6.0))
    def test_norm_and_alignment(self, seed, L0, m):
        rng = np.random.default_rng(seed)
        x1 = rng.uniform(-2, 2, 3)
        if np.linalg.norm(x1) < 1e-3:
            x1 += 0.5
        xi = transform_state(x1, np.zeros(3), L0, m)
        nx = np.linalg.norm(x1)
        expected = L0 ** ((m - 1) / m) * nx ** ((m - 1) / m)
        assert np.linalg.norm(xi.xi1) == pytest.approx(expected, rel=1e-12)
        unit = x1 / nx
        assert np.allclose(xi.xi1 / np.linalg.norm(xi.xi1), unit, atol=1e-12)
        assert np.allclose(xi.xi2 / np.linalg.norm(xi.xi2), unit, atol=1e-12)

    def test_origin_maps_to_zero(self):
        xi = transform_state(np.zeros(3), np.zeros(3), 5.0, 3.0)
        assert np.array_equal(xi.xi1, np.zeros(3))
        assert np.array_equal(xi.xi2, np.zeros(3))


class TestSettlingTimes:
    def test_zero_initial_value(self):
        assert settling_time_unperturbed(1.0, 1.0, 0.5, 0.0) == 0.0
        assert settling_time_perturbed(1.0, 1.0, 1.0, 0.75, 0.5, 0.0, 0.5, 0.5) == 0.0

    def test_reference_value(self):
        assert settling_time_unperturbed(1.0, 1.0, 0.5, 1.0) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-14)

    def test_small_linear_coefficient_limit(self):
        # as c2 -> 0 the bound approaches V0**(1-p)/(c1*(1-p))
        value = settling_time_unperturbed(1.0, 1e-8, 0.5, 1.0)
        assert value == pytest.approx(1.0 / 0.5, rel=1e-4)

    def test_perturbed_reference_value(self):
        value = settling_time_perturbed(2.0, 1.0, 1.0, 0.75, 0.5, 16.0, 1.0, 0.5)
        assert value == pytest.approx(8.0 * math.log(2.0), rel=1e-12)

    def test_perturbed_reduces_to_unperturbed(self):
        a = settling_time_perturbed(1.0, 1.0, 1.0, 0.75, 0.5, 4.0, 1e-9, 1e-9)
        b = settling_time_unperturbed(1.0, 1.0, 0.75, 4.0)
        assert a == pytest.approx(b, abs=1e-6)

    def test_theta_out_of_range_is_hard_error(self):
        with pytest.raises(ValueError):
            settling_time_perturbed(1.0, 1.0, 1.0, 0.75, 0.5, 4.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            settling_time_perturbed(1.0, 1.0, 1.0, 0.75, 0.5, 4.0, 0.5, 2.0)


def _draw_split_params(seed):
    # Keep the root away from the ends of (0, 1): for extreme magnitude
    # ratios or a tiny p1 - p2 gap it collides with 1.0, where no float64
    # theta3 can push the residual below 1e-12 (the ulp near 1 is fixed).
    rng = np.random.default_rng(seed)
    theta1 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    theta2 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    c3 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    p1 = float(rng.uniform(0.35, 0.9))
    p2 = float(rng.uniform(0.05, p1 - 0.15))
    return theta1, theta2, c3, p1, p2


valid_split_params = st.builds(_draw_split_params, seed=st.integers(0, 2**32 - 1))


class TestResidualSplit:
    def test_symmetric_case_is_half(self):
        # with unit theta and c3 and p1 -> 1 the defining equation becomes
        # theta**(1-p2) = (1-theta)**(1-p2)
        theta3 = solve_residual_split(1.0, 1.0, 1.0, 1.0 - 1e-9, 0.5)
        assert theta3 == pytest.approx(0.5, abs=1e-6)

    def test_reference_root(self):
        theta3 = solve_residual_split(1.0, 1.0, 1.0, 0.75, 0.25)
        # root of theta**(3/4) = (1 - theta)**(1/2)
        assert abs(theta3 ** 0.75 - (1 - theta3) ** 0.5) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(params=valid_split_params)
    def test_residual_below_tolerance(self, params):
        theta1, theta2, c3, p1, p2 = params
        theta3 = solve_residual_split(theta1, theta2, c3, p1, p2)
        assert 0.0 < theta3 < 1.0
        assert abs(_split_residual(theta3, theta1, theta2, c3, p1, p2)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(params=valid_split_params)
    def test_levels_coincide_at_solution(self, params):
        theta1, theta2, c3, p1, p2 = params
        theta3 = solve_residual_split(theta1, theta2, c3, p1, p2)
        levels = residual_levels(c3, theta1, theta2, theta3, p1, p2)
        assert levels.from_power_term == pytest.approx(levels.from_linear_term, rel=1e-9)

    def test_root_pinned_against_one_stays_below_one(self):
        # a tiny p1-p2 gap with a large theta1 pushes the root to within a few
        # ulps of 1, where |g| < 1e-12 is unrepresentable in float64
        theta3 = solve_residual_split(3.2, 1.39, 0.25, 0.163, 0.094)
        assert 0.999 < theta3 < 1.0


class TestResidualLevels:
    def test_vanishing_disturbance_shrinks_to_zero(self):
        levels = residual_levels(1e-30, 0.5, 0.5, 0.5, 0.75, 0.5)
        assert levels.from_power_term < 1e-100
        assert levels.from_linear_term < 1e-50

    def test_power_law_scaling_in_c3(self):
        p1, p2 = 0.75, 0.5
        base = residual_levels(1.0, 0.5, 0.5, 0.5, p1, p2)
        doubled = residual_levels(2.0, 0.5, 0.5, 0.5, p1, p2)
        assert doubled.from_power_term == pytest.approx(
            base.from_power_term * 2.0 ** (1.0 / (p1 - p2)), rel=1e-12)


class TestConvergenceEstimate:
    def test_default_operating_point_is_vacuous_for_reference_gains(self):
        # at L0_init with the adaptation running the linear coefficient is
        # negative, so the frozen bound is honestly infinite
        cfg = reference_gains()
        cert = build_certificate(cfg)
        est = estimate_convergence(cert, cfg, v0=100.0, delta=0.3)
        assert est.c2 < 0
        assert est.settling_time_bound is None
        assert est.to_dict()["settling_time_bound"] == "infinite"

    def test_settled_operating_point_gives_finite_bound(self):
        cfg = reference_gains()
        cert = build_certificate(cfg)
        est = estimate_convergence(cert, cfg, v0=100.0, delta=0.3, L0=8.0, L0_dot=0.0)
        assert est.c1 > 0 and est.c2 > 0
        assert est.settling_time_bound is not None and est.settling_time_bound > 0
        assert est.residual_V_level is not None and est.residual_V_level > 0
        assert 0 < est.theta3 < 1

    def test_zero_disturbance_gives_zero_residual(self):
        cfg = reference_gains()
        cert = build_certificate(cfg)
        est = estimate_convergence(cert, cfg, v0=10.0, delta=0.0, L0=8.0, L0_dot=0.0)
        assert est.residual_V_level == 0.0
        assert est.settling_time_bound == pytest.approx(
            settling_time_unperturbed(est.c1, est.c2, est.p, 10.0))

    @settings(max_examples=200, deadline=None)
    @given(m=st.floats(2.2, 4.0, exclude_min=True, exclude_max=True),
           log_delta=st.floats(-6.0, 6.0),
           log_u1=st.floats(-323.5, -0.3), log_u2=st.floats(-323.5, -0.3))
    def test_reported_level_solves_the_residual_equation(self, m, log_delta, log_u1, log_u2):
        # theta1 and theta2 down to the least positive float put theta3 (or the
        # power term's base) in subnormal arithmetic: the level must still solve
        # theta1 V**(p1-p2) + theta2 V**(1-p2) = c3, and only a V past the float
        # range may be refused
        cfg = reference_gains(m)
        cert = build_certificate(cfg)
        delta = 10.0 ** log_delta
        theta1 = max(100.0 * cert.n1 * 10.0 ** log_u1, math.ulp(0.0))
        theta2 = max(100.0 * cert.n3 * 10.0 ** log_u2, math.ulp(0.0))
        c3 = delta * cert.n2_coeff

        def excess(v):
            return theta1 * v ** (cert.p1 - 0.5) + theta2 * v ** 0.5 - c3

        try:
            est = estimate_convergence(cert, cfg, v0=50.0, delta=delta, L0=100.0,
                                       L0_dot=0.0, theta1=theta1, theta2=theta2)
        except ValueError as err:
            assert "overflow the residual-set level" in str(err)
            assert excess(sys.float_info.max) <= 1e-12 * c3
            return
        assert est.c3 == c3
        if est.residual_V_level >= sys.float_info.min:
            assert abs(excess(est.residual_V_level)) <= 1e-12 * c3

    @pytest.mark.parametrize("name", ["v0", "delta", "L0", "L0_dot", "theta1", "theta2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_refused_by_name(self, name, value):
        # the CLI passes its flags straight through, so this is its only check
        cfg = reference_gains()
        cert = build_certificate(cfg)
        inputs = {"v0": 100.0, "delta": 0.3, "L0": 8.0, "L0_dot": 0.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
            estimate_convergence(cert, cfg, **inputs)

    @pytest.mark.parametrize("name", ["v0", "delta", "L0", "L0_dot", "theta1", "theta2"])
    def test_a_numpy_scalar_input_is_its_float(self, name):
        # a float32 input must not turn the estimate's arithmetic into float32
        cfg = reference_gains()
        cert = build_certificate(cfg)
        inputs = {"v0": 50.0, "delta": 0.3, "L0": 150.0, "L0_dot": 10.0, "theta1": 0.25,
                  "theta2": 1.5}
        given = estimate_convergence(cert, cfg, **inputs | {name: np.float32(inputs[name])})
        want = estimate_convergence(cert, cfg, **inputs | {name: float(np.float32(inputs[name]))})
        assert json.dumps(given.to_dict()) == json.dumps(want.to_dict())
        assert given == want
        assert all(type(v) in (float, type(None)) for v in dataclasses.astuple(given))
