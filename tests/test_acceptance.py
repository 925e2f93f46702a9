"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with its measured quantities.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from smoothsmc import (
    DisturbanceSpec,
    SimConfig,
    build_certificate,
    eig_sym,
    estimate_convergence,
    jacobi_eigh,
    kron_with_identity,
    residual_levels,
    run_cell,
    settling_time_perturbed,
    settling_time_unperturbed,
    simulate_closed_loop,
    solve_residual_split,
    write_trajectory_csv,
)
from smoothsmc.certificate import _split_residual
from smoothsmc.laws import gain_condition_terms
from smoothsmc.linalg import SymMatrix
from smoothsmc.metrics import chattering_index, settling_time, ultimate_bound

from conftest import reference_gains


def announce(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")


class TestCriterion1Certificate:
    def test_certificate_suite(self):
        start = time.perf_counter()
        cfg = reference_gains()
        lhs, rhs = gain_condition_terms(cfg)
        exact_ok = (lhs, rhs) == (Fraction(1080), Fraction(1925, 2)) and lhs > rhs

        cert = build_certificate(cfg)
        pd_ok = True
        for block in (cert.P_block, cert.Q_block, cert.Omega1_block, cert.Omega2_block):
            summary = eig_sym(block)
            pd_ok &= summary.lambda_min > 1e-12 * summary.lambda_max
        elapsed = time.perf_counter() - start

        passed = exact_ok and pd_ok and elapsed < 1.0
        announce(1, passed,
                 f"gain condition {lhs} > {rhs}, all blocks PD={pd_ok}, "
                 f"runtime {elapsed:.3f}s")
        assert exact_ok, f"exact gain condition failed: {lhs} vs {rhs}"
        assert pd_ok, "a certificate block failed the eigensolver PD check"
        assert elapsed < 1.0, f"certificate suite took {elapsed:.3f}s"


@pytest.fixture(scope="module")
def timed_run():
    cfg = reference_gains()
    sim = SimConfig(x1_init=(1.0, 3.0, 2.0), dt=1e-3, horizon=10.0)
    start = time.perf_counter()
    traj = simulate_closed_loop([cfg], sim, DisturbanceSpec.none(3))[0]
    elapsed = time.perf_counter() - start
    return traj, elapsed


class TestCriterion2UndisturbedConvergence:
    def test_state_vanishes_on_the_tail(self, timed_run):
        traj, elapsed = timed_run
        tail = traj.times >= traj.times[-1] - 2.0
        worst = float(np.linalg.norm(traj.x1[tail], axis=1).max())
        passed = worst < 1e-6 and elapsed < 5.0
        announce(2, passed,
                 f"max ||x1|| over final 2 s = {worst:.3e} (< 1e-6), "
                 f"runtime {elapsed:.2f}s (< 5 s); Lyapunov-decrease clause "
                 f"reported separately")
        assert worst < 1e-6
        assert elapsed < 5.0

    # The band left out of the check is ||x1|| <= BAND_FACTOR * (max ||x1||
    # over the final 2 s).  The explicit-Euler sampled loop settles into a
    # cycle whose size scales as dt**3 (370-379 dt**3 for dt = 0.25-4 ms), and
    # the continuous-time analysis says nothing inside it; every sample that
    # breaks the inequality lies within 2.15x that bound at those dt.
    BAND_FACTOR = 4.0

    def test_lyapunov_finite_difference_decrease(self, timed_run):
        # The certified inequality, checked on the logged V at the live gain:
        #   (V[k+1] - V[k])/dt <= -c1 V[k]**p1 - c2 V[k] + 1e-6 max(1, V[k])
        # with c1, c2, p1 from estimate_convergence at L0[k] and the logged
        # gain rate (L0[k+1] - L0[k])/dt.  Once L0 freezes this demands the
        # certified decay; while L0 ramps, c2 < 0 and V may rise only by the
        # certificate's own adaptation term.
        traj, _ = timed_run
        cfg = reference_gains()
        cert = build_certificate(cfg)
        dt = float(traj.times[1] - traj.times[0])
        V = traj.V[:-1]
        L0 = traj.L0[:-1]
        L0_dot = np.diff(traj.L0) / dt
        dv = np.diff(traj.V) / dt

        norms = np.linalg.norm(traj.x1[:-1], axis=1)
        tail = traj.times >= traj.times[-1] - 2.0
        tail_bound = float(np.linalg.norm(traj.x1[tail], axis=1).max())
        band = self.BAND_FACTOR * tail_bound
        checked_at = np.flatnonzero(norms > band)
        frozen = L0_dot[checked_at] == 0.0

        excess = np.empty(checked_at.size)
        for i, k in enumerate(checked_at):
            est = estimate_convergence(cert, cfg, v0=float(V[k]), delta=0.0,
                                       L0=float(L0[k]), L0_dot=float(L0_dot[k]))
            allowed = -est.c1 * V[k] ** est.p - est.c2 * V[k] + 1e-6 * max(1.0, V[k])
            excess[i] = dv[k] - allowed

        checked = int(checked_at.size)
        checked_frozen = int(frozen.sum())
        violations = int((excess > 0).sum())
        phases = [f"worst excess {name} {float(excess[mask].max()):.3e}"
                  for name, mask in (("adapting", ~frozen), ("frozen", frozen))
                  if mask.any()]
        passed = (violations == 0 and tail_bound < 1e-6 and checked >= 500
                  and checked_frozen >= 1)
        announce(2, passed,
                 f"certified Lyapunov decrease: {violations} violating of {checked} "
                 f"checked samples ({checked_frozen} after L0 freezes), band "
                 f"||x1|| <= {band:.3e}; " + ", ".join(phases))
        assert tail_bound < 1e-6, f"excluded band is not tiny: tail bound {tail_bound:.3e}"
        assert checked >= 500, f"only {checked} samples lie outside the band"
        assert checked_frozen >= 1, "no checked sample lies after L0 freezes"
        worst_k = int(checked_at[np.argmax(excess)])
        assert violations == 0, (
            f"{violations} of {checked} samples break the certified inequality; "
            f"worst excess {float(excess.max()):.3e} at "
            f"t={float(traj.times[worst_k]):.3f}s (L0={float(L0[worst_k]):.4g}, "
            f"dL0/dt={float(L0_dot[worst_k]):.4g})"
        )


class TestCriterion3ConstantDisturbance:
    REGRESSION_FLOOR = 2.0  # first green run measured a ratio of ~67x

    def test_settling_and_chattering_ordering(self, exp1_m3, exp1_m2):
        _, rep3 = exp1_m3
        _, rep2 = exp1_m2
        settled = rep3.settling_time is not None and rep2.settling_time is not None
        assert rep3.dt_used == rep2.dt_used
        ratio = rep2.chattering_index / rep3.chattering_index
        passed = settled and ratio >= self.REGRESSION_FLOOR
        announce(3, passed,
                 f"settling: smooth {rep3.settling_time}s / baseline {rep2.settling_time}s, "
                 f"chattering {rep3.chattering_index:.3g} vs {rep2.chattering_index:.3g} "
                 f"(ratio {ratio:.1f}x >= {self.REGRESSION_FLOOR}x)")
        assert settled, "both methods must settle below 1% of ||x1(0)|| in 10 s"
        assert ratio >= self.REGRESSION_FLOOR


class TestCriterion4TimeVaryingDisturbance:
    def test_bounded_with_chattering_suppression(self, exp2_m3, exp2_m2):
        traj3, rep3 = exp2_m3
        traj2, rep2 = exp2_m2
        finite = (np.isfinite(traj3.x1).all() and np.isfinite(traj2.x1).all()
                  and np.isfinite(rep3.ultimate_bound) and np.isfinite(rep2.ultimate_bound))
        within = rep3.ultimate_bound <= 10.0 * rep2.ultimate_bound
        ordering = rep3.chattering_index < rep2.chattering_index
        passed = finite and within and ordering
        announce(4, passed,
                 f"ultimate bounds {rep3.ultimate_bound:.3e} (smooth) / "
                 f"{rep2.ultimate_bound:.3e} (baseline), chattering "
                 f"{rep3.chattering_index:.3g} < {rep2.chattering_index:.3g}")
        assert finite, "trajectories must stay finite"
        assert within, "smooth ultimate bound must stay within 10x of the baseline"
        assert ordering, "chattering ordering must persist under the time-varying disturbance"


class TestCriterion5Observer:
    def test_estimation_error_and_smoothness(self, exp3_m3, exp3_m2):
        traj3, rep3 = exp3_m3
        _, rep2 = exp3_m2
        settled = rep3.settling_time is not None  # below 0.05 and stays there
        tail = traj3.times >= traj3.times[-1] - 2.0
        tail_err = float(np.linalg.norm((traj3.d_hat - traj3.d_true)[tail], axis=1).max())
        ordering = rep3.chattering_index < rep2.chattering_index
        passed = settled and tail_err < 0.05 and ordering
        announce(5, passed,
                 f"error settles at {rep3.settling_time}s, tail error {tail_err:.3e} "
                 f"(< 0.05), estimate chattering {rep3.chattering_index:.3g} < "
                 f"{rep2.chattering_index:.3g}")
        assert settled, "estimation error must fall below 0.05 within the horizon"
        assert tail_err < 0.05
        assert ordering


class TestCriterion6BoundMachinery:
    def test_split_solver_and_levels(self):
        # tuple distribution keeps the split away from the ends of (0, 1),
        # where float64 cannot represent any theta3 with |g| < 1e-12
        rng = np.random.default_rng(20260811)
        worst_residual = 0.0
        worst_level_gap = 0.0
        for _ in range(100):
            theta1 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
            theta2 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
            c3 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
            p1 = float(rng.uniform(0.35, 0.9))
            p2 = float(rng.uniform(0.05, p1 - 0.15))
            theta3 = solve_residual_split(theta1, theta2, c3, p1, p2)
            residual = abs(_split_residual(theta3, theta1, theta2, c3, p1, p2))
            worst_residual = max(worst_residual, residual)
            levels = residual_levels(c3, theta1, theta2, theta3, p1, p2)
            gap = abs(levels.from_power_term - levels.from_linear_term) / levels.from_power_term
            worst_level_gap = max(worst_level_gap, gap)

        limit_gap = abs(
            settling_time_perturbed(1.0, 1.0, 1.0, 0.75, 0.5, 4.0, 1e-9, 1e-9)
            - settling_time_unperturbed(1.0, 1.0, 0.75, 4.0))

        passed = (worst_residual < 1e-12 and worst_level_gap < 1e-9
                  and limit_gap < 1e-6)
        announce(6, passed,
                 f"split residual <= {worst_residual:.2e} (< 1e-12), residual-level "
                 f"gap <= {worst_level_gap:.2e} (< 1e-9 rel), theta->0 limit gap "
                 f"{limit_gap:.2e} (< 1e-6)")
        assert worst_residual < 1e-12
        assert worst_level_gap < 1e-9
        assert limit_gap < 1e-6


class TestCriterion7LinearAlgebraOracles:
    def test_spectrum_identity_and_reconstruction(self):
        rng = np.random.default_rng(7)
        worst_recon = 0.0
        worst_spectrum = 0.0
        for _ in range(1000):
            order = int(rng.integers(1, 7))
            a = rng.uniform(-1.0, 1.0, (order, order))
            mat = SymMatrix((a + a.T) / 2.0)

            values, vectors = jacobi_eigh(mat)
            recon_err = float(np.abs((vectors * values) @ vectors.T - mat.entries).max())
            worst_recon = max(worst_recon, recon_err)

            n = int(rng.integers(1, 4))
            expanded_values, _ = jacobi_eigh(kron_with_identity(mat, n))
            gap = float(np.abs(np.sort(np.repeat(values, n)) - expanded_values).max())
            worst_spectrum = max(worst_spectrum, gap)

        passed = worst_recon < 1e-9 and worst_spectrum < 1e-10
        announce(7, passed,
                 f"1000 matrices: reconstruction error <= {worst_recon:.2e} (< 1e-9), "
                 f"kron spectrum gap <= {worst_spectrum:.2e} (< 1e-10)")
        assert worst_recon < 1e-9
        assert worst_spectrum < 1e-10


class TestCriterion8DeterminismAndStepHalving:
    def test_bit_identical_csv(self, tmp_path, exp1_m3):
        traj_a, _ = exp1_m3
        traj_b, _ = run_cell("exp1", "amssosmc")
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(traj_a, path_a)
        write_trajectory_csv(traj_b, path_b)
        identical = path_a.read_bytes() == path_b.read_bytes()
        announce(8, identical, "identical configs reproduce bit-identical CSVs")
        assert identical

    def test_step_halving_consistency(self, exp1_m3, exp1_m3_half_dt):
        _, rep_full = exp1_m3
        _, rep_half = exp1_m3_half_dt
        change = abs(rep_half.settling_time - rep_full.settling_time) / rep_full.settling_time
        passed = change < 0.05
        announce(8, passed,
                 f"settling time {rep_full.settling_time}s at dt=1e-3 vs "
                 f"{rep_half.settling_time}s at dt=5e-4 ({100 * change:.2f}% < 5%)")
        assert change < 0.05
