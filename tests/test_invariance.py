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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsmc.experiments import experiment_disturbance, run_cells

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
