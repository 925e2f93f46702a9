"""The sampled loop's accuracy order: the tail bound of ``||x1||`` under a
constant disturbance goes as dt**m, and under exp2's sinusoids the smooth
controller's bound has a floor that does not depend on dt.  These check the
discrete loop against its theory (Levant 1993, 2005), where the bitwise and
threshold tests only check it against itself."""

import math

import pytest

from smoothsmc.experiments import run_cells

ORDERS = (2.0, 2.5, 3.0, 4.0)
STEPS = (0.25e-3, 0.5e-3, 1e-3, 2e-3)
# Measured slopes: 1.991-2.005, 2.491-2.505, 3.002-3.020 and 3.979-3.992, so
# the worst |slope - m| is 0.0212.  The tolerance is that spread with a margin
# of about 2.4x, and a tenth of the gap between neighbouring orders.
SLOPE_TOL = 0.05


def test_the_exp1_tail_bound_goes_as_dt_to_the_m():
    bounds = {}
    for dt in STEPS:  # a 2 s horizon keeps all 16 runs near 0.3 s
        cells = run_cells("exp1", [("amssosmc", {"m": m}) for m in ORDERS],
                          {"dt": dt, "horizon": 2.0}, record=False)
        for m, (_, report) in zip(ORDERS, cells):
            bounds[m, dt] = report.ultimate_bound
    for m in ORDERS:
        slopes = [math.log(bounds[m, b] / bounds[m, a]) / math.log(b / a)
                  for a, b in zip(STEPS, STEPS[1:])]
        assert all(abs(s - m) <= SLOPE_TOL for s in slopes), (m, slopes)


def test_the_exp2_smooth_bound_has_a_floor(exp2_m3):
    # 3.831e-6 at 1 ms (the session's default run) and 4.158e-6 at 0.25 ms:
    # 8.5 % apart, where an order m = 3 in dt would make them 64x apart
    coarse = exp2_m3[1].ultimate_bound
    ((_, fine),) = run_cells("exp2", [("amssosmc", None)], {"dt": 0.25e-3}, record=False)
    assert coarse == pytest.approx(3.831e-6, rel=1e-3)
    assert fine.ultimate_bound == pytest.approx(4.158e-6, rel=1e-3)
    assert 0.8 < coarse / fine.ultimate_bound < 1.25
