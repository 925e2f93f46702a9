"""Adaptive smooth second-order sliding-mode control toolkit.

Simulation of the smooth adaptive controller and disturbance observer against
their super-twisting baselines, numerical Lyapunov certificates for the gain
configuration, and trajectory metrics for chattering and convergence.
"""

from .certificate import (
    ConvergenceEstimate,
    LyapunovCertificate,
    ResidualLevels,
    build_certificate,
    build_omega_blocks,
    build_p_block,
    build_q_block,
    estimate_convergence,
    lyapunov_series,
    lyapunov_value,
    residual_levels,
    settling_time_perturbed,
    settling_time_unperturbed,
    solve_residual_split,
    transform_state,
)
from .experiments import run_cell, run_cells, write_cell_outputs
from .laws import (
    AdaptiveGains,
    GainCheck,
    GainConfig,
    check_gain_condition,
    controller_step,
    gains_from_L0,
    law_step,
    observer_step,
    unit_power_direction,
    update_L0,
)
from .linalg import (
    EigenSummary,
    JacobiConvergenceError,
    SymMatrix,
    eig_sym,
    jacobi_eigh,
    kron_with_identity,
)
from .metrics import (
    ExperimentReport,
    chattering_index,
    comparison_csv,
    settling_time,
    ultimate_bound,
)
from .sim import (
    DisturbanceSpec,
    SimConfig,
    SimulationAborted,
    Trajectory,
    disturbance_at,
    load_trajectory_csv,
    norm_bound,
    rate_bound,
    simulate_closed_loop,
    simulate_observer,
    write_trajectory_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
