"""Shared fixtures: the expensive 10 s reference runs are computed once per
session and reused across module and acceptance tests."""

import pytest

from smoothsmc import (
    DisturbanceSpec,
    GainConfig,
    SimConfig,
    run_cell,
    simulate_closed_loop,
)

X1_INIT = (1.0, 3.0, 2.0)


def reference_gains(m=3.0, **overrides):
    params = dict(k1=2.0, k2=2.5, k3=4.0, k4=30.0, kappa=10.0, allow_uncertified=True)
    params.update(overrides)
    return GainConfig(m=m, **params)


@pytest.fixture(scope="session")
def exp1_m3():
    return run_cell("exp1", "amssosmc")


@pytest.fixture(scope="session")
def exp1_m2():
    return run_cell("exp1", "amstsmc-baseline")


@pytest.fixture(scope="session")
def exp2_m3():
    return run_cell("exp2", "amssosmc")


@pytest.fixture(scope="session")
def exp2_m2():
    return run_cell("exp2", "amstsmc-baseline")


@pytest.fixture(scope="session")
def exp3_m3():
    return run_cell("exp3", "amsdo")


@pytest.fixture(scope="session")
def exp3_m2():
    return run_cell("exp3", "amdo-baseline")


@pytest.fixture(scope="session")
def nodist_run():
    """The undisturbed closed loop with certified gains and Lyapunov logging."""
    cfg = reference_gains()
    sim = SimConfig(x1_init=X1_INIT, dt=1e-3, horizon=10.0)
    dist = DisturbanceSpec.none(3)
    traj = simulate_closed_loop([cfg], sim, dist)[0]
    return cfg, sim, traj


@pytest.fixture(scope="session")
def exp1_m3_half_dt():
    return run_cell("exp1", "amssosmc", sim_overrides={"dt": 5e-4})
