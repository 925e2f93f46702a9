"""Invariances of the sampled loop, which need no stored value: each maps a
run to another run and says exactly how every output maps with it, so a
deliberate re-baseline of the bits leaves them standing (ROADMAP item 18).

Sign flips.  Negating components of x1(0) together with the amplitudes of
the same disturbance channels negates those components of x1, u, d and
d_hat at every step, and leaves L0, V and every reported metric as they
were.  Every operation of the loop (sums, products, the norms, the powers
of a norm, ``a * sin(w t)``) rounds sign-symmetrically in IEEE arithmetic,
so this holds bit for bit, but for the sign of a zero: ``x - x`` is +0.0
whatever the sign of ``x``.  ``np.array_equal`` compares floats that way,
equal exactly when their bits are, or when both are zeros.

Rotation.  Every term of the law is parallel to its signal and scaled by
the signal's norm, so an orthogonal Q applied to x1(0) and to a constant
disturbance rotates the whole run: the reports stay.  Q's products round,
so the bounds and chattering indices agree to a tolerance, and settling
times and final L0, decided on steps, agree exactly.

Weighted scaling.  Dividing x1(0), dt, the horizon, epsilon and
``singular_tol`` by lambda, multiplying L0_init and the channel frequencies
by lambda and kappa by lambda**2 maps each term of the law onto itself,
every power of L0 cancelling the powers of lambda that ``s/r**(1/m)``,
``s/r**(2/m)`` and dt bring: the run is the original one on a time axis
divided by lambda, x1 divided by lambda and L0 times lambda.  At lambda a
power of two every map is exact, so steps are decided alike, and only the
powers ``r**(1/m)`` and ``L0**((m-1)/m)`` round differently.

The ray.  Undisturbed, x1 stays on the ray through x1(0), within the
rounding of its first steps, until the run reaches its residual cycle,
which amplifies rounding off the ray.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoothsmc.experiments import (
    DEFAULT_GAINS,
    EXPERIMENTS,
    experiment_disturbance,
    run_cells,
)
from smoothsmc.laws import DEFAULT_SINGULAR_TOL

CELLS = {
    "controller": [("amssosmc", None), ("amstsmc-baseline", {"k4": 25.0}),
                   ("amssosmc", {"kappa": 7.0})],
    "observer": [("amsdo", None), ("amdo-baseline", {"kappa": 4.0}), ("amsdo", {"k4": 20.0})],
}
DISTURBANCE = {"controller": experiment_disturbance("exp2"),
               "observer": experiment_disturbance("exp3")}
SIGNED = {"x1", "u", "d_true", "d_hat"}  # the fields that a flip negates
HORIZON = 0.3  # 300 steps, L0 adapting throughout


def run(kind, cells, x1_init, signs):
    """``cells`` with x1(0) and the disturbance amplitudes times ``signs``."""
    channels = [(s * c.amplitude, c.frequency, c.is_cosine)
                for s, c in zip(signs, DISTURBANCE[kind].channels)]
    return run_cells("custom", cells, {"x1_init": [s * x for s, x in zip(signs, x1_init)],
                                       "horizon": HORIZON},
                     disturbance={"kind": "sinusoid-mix", "channels": channels})


class TestSignFlips:
    @settings(max_examples=8, deadline=None)
    @given(x1_init=st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3),
           signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3))
    @pytest.mark.parametrize("kind", ["controller", "observer"])
    @pytest.mark.parametrize("cells", [1, 3], ids=["alone", "batch"])
    def test_a_flip_negates_the_flipped_components_alone(self, kind, cells, x1_init, signs):
        cells = CELLS[kind][:cells]
        for (traj, report), (flipped, flipped_report) in zip(
                run(kind, cells, x1_init, [1.0] * 3), run(kind, cells, x1_init, signs)):
            for name in ("settling_time", "ultimate_bound", "chattering_index", "final_L0"):
                assert getattr(flipped_report, name) == getattr(report, name), name
            assert [name for name, _ in flipped.columns()] == [name for name, _ in traj.columns()]
            for name, col in traj.columns():
                want = col * np.array(signs) if name in SIGNED else col
                assert np.array_equal(getattr(flipped, name), want), name


EXP1 = np.array([c.amplitude for c in experiment_disturbance("exp1").channels])
X1_INIT = np.array([1.0, 3.0, 2.0])  # the experiments' x1(0)


def lone_cell(method, x1_init, disturbance, horizon, record):
    return run_cells("custom", [(method, None)], {"x1_init": x1_init.tolist(), "horizon": horizon},
                     disturbance=disturbance, record=record)[0]


class TestRotation:
    # At 10 s, over 30 random Q (QR of a seeded normal 3x3), the smooth
    # cell's bound read at most 2.6e-13 relative apart and its chattering
    # index 3.6e-15, the baseline's 1.9e-15 and 1.4e-16 (the ROADMAP's one Q
    # read 9.4e-14 and 4.0e-15); the tolerances are 10x the ROADMAP's.
    BOUND_RTOL, CHATTERING_RTOL = 1e-12, 4e-14

    @pytest.mark.parametrize("method", ["amssosmc", "amstsmc-baseline"])
    def test_a_rotated_run_reports_the_same(self, method):
        Q, R = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        Q *= np.sign(np.diag(R))
        report, rotated = (
            lone_cell(method, x, {"kind": "constant", "value": d.tolist()}, 10.0, False)[1]
            for x, d in ((X1_INIT, EXP1), (Q @ X1_INIT, Q @ EXP1)))
        assert rotated.settling_time == report.settling_time
        assert rotated.final_L0 == report.final_L0
        assert rotated.ultimate_bound == pytest.approx(report.ultimate_bound, rel=self.BOUND_RTOL)
        assert rotated.chattering_index == pytest.approx(report.chattering_index,
                                                         rel=self.CHATTERING_RTOL)


@lru_cache(maxsize=None)
def scaled_report(experiment, method, k):
    """The report of a preset cell run for 2 s under the weighted scaling by
    lambda = 2**k (k = 0 is the cell itself), as a custom run."""
    lam = 2.0 ** k
    channels = [(c.amplitude, lam * c.frequency, c.is_cosine)
                for c in experiment_disturbance(experiment).channels]
    gains = {"kappa": lam * lam * DEFAULT_GAINS["kappa"], "epsilon": 1e-3 / lam, "L0_init": lam}
    sim = {"x1_init": (X1_INIT / lam).tolist(), "dt": 1e-3 / lam, "horizon": 2.0 / lam,
           "singular_tol": DEFAULT_SINGULAR_TOL / lam}
    return run_cells("custom", [(method, gains)], sim, record=False,
                     disturbance={"kind": "sinusoid-mix", "channels": channels})[0][1]


class TestWeightedScaling:
    # The largest relative deviation of the ultimate bound and of the
    # chattering index from the unscaled cell's over k = -12..12 at 2 s,
    # under the default (SkylakeX), Nehalem and Prescott kernels; a zero
    # read under all three is given 1e-16, so that the tolerance is 1e-15.
    # exp2 amssosmc's chattering index is left out until ROADMAP item 4
    # gives it a tolerance from its ulp spread: it is that item's
    # ill-conditioned metric, which moved by up to 4.6e-3 here (a 1-ulp
    # change of x1(0) moves it by 2.8e-5 at 10 s).
    SPREAD = {
        ("exp1", "amssosmc"): (4.8e-14, 8.3e-15),
        ("exp1", "amstsmc-baseline"): (1.1e-15, 2.2e-16),
        ("exp2", "amssosmc"): (8.3e-15, None),
        ("exp2", "amstsmc-baseline"): (2.3e-15, 1e-16),
        ("exp3", "amsdo"): (3.1e-12, 5.1e-7),
        ("exp3", "amdo-baseline"): (1e-16, 1e-16),
    }

    @settings(max_examples=24, deadline=None)
    @given(k=st.integers(-12, 12), cell=st.sampled_from(sorted(SPREAD)))
    def test_a_scaled_run_reports_the_original_scaled(self, k, cell):
        lam, (bound_spread, chattering_spread) = 2.0 ** k, self.SPREAD[cell]
        report, scaled = scaled_report(*cell, 0), scaled_report(*cell, k)
        settled = scaled.settling_time
        assert (None if settled is None else settled * lam) == report.settling_time
        assert scaled.final_L0 / lam == report.final_L0
        # a controller's bound is of ||x1||, an observer's of ||d_hat - d||
        bound = scaled.ultimate_bound * (lam if EXPERIMENTS[cell[0]] == "controller" else 1.0)
        assert bound == pytest.approx(report.ultimate_bound, rel=10 * bound_spread)
        if chattering_spread is not None:
            assert scaled.chattering_index / lam == pytest.approx(report.chattering_index,
                                                                  rel=10 * chattering_spread)


class TestTheRay:
    # Measured against ||x1(0)||, the off-ray part ||x - (x.v)v|| is the
    # rounding of the first steps, which the radial law then contracts with
    # x1.  Over 200 seeded runs at 3 s it read at most 5.4e-16 (2.4 ulp)
    # while ||x1|| stayed above 100x the tail peak (the first 300 to 660
    # steps; about 90 from a start of norm 0.1), so 1e-14 is a margin of
    # about 18.  Measured against ||x1||, it is that rounding over a
    # shrinking norm: below 1e-12 in 199 of those runs, 1.8e-12 in one.  In
    # the residual cycle after the window it grows to O(1).
    @settings(max_examples=6, deadline=None)
    @given(x1_init=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    @pytest.mark.parametrize("method", ["amssosmc", "amstsmc-baseline"])
    def test_an_undisturbed_run_stays_on_its_ray(self, method, x1_init):
        x1_init = np.array(x1_init)
        assume(np.linalg.norm(x1_init) > 0.1)
        traj, report = lone_cell(method, x1_init, {"kind": "none"}, 3.0, True)
        ray = x1_init / np.linalg.norm(x1_init)
        window = np.cumprod(np.linalg.norm(traj.x1, axis=-1) > 100.0 * report.ultimate_bound)
        x = traj.x1[window.astype(bool)]
        off = np.linalg.norm(x - (x * ray).sum(axis=1)[:, None] * ray, axis=-1)
        assert len(x) > 50 and off.max() <= 1e-14 * np.linalg.norm(x1_init)
