"""V and the settling threshold do not depend on the OpenBLAS kernel, and a
batch row is bitwise its lone run under every kernel: a child process
computes them under each ``OPENBLAS_CORETYPE``, which acts on that child
only, and every child prints the same bytes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the sha256 of lyapunov_series over seeded rows stored at row offsets
# 0-3 (a row of an (N, 3) array starts 8 bytes off a 16-byte boundary at odd
# offsets), then the settling threshold of a custom controller run from each
# x1(0) given: three whose BLAS ``(x @ x) ** 0.5`` differs between the
# default and Prescott kernels.  Then, for each row of a 3-row exp2 controller
# batch (row 1 has m = 2) and of a 3-row exp3 observer batch, whether its
# record arrays and report are byte for byte those of the cell run alone:
# Prescott rounds a ``ddot`` by its vector's alignment, so a batch row's step
# norm is a lone cell's, on a fresh 1-D buffer, only if the row is 16-byte
# aligned as that buffer is.
CHILD = '''
import hashlib
import numpy as np
from smoothsmc import build_p_block, lyapunov_series
from smoothsmc.experiments import build_gain_config, run_cells

rng = np.random.default_rng(0)
rows, L0 = rng.uniform(-2.0, 2.0, (2, 1000, 3)), rng.uniform(1.0, 6.0, 1000)
P = build_p_block(build_gain_config(3.0))
for offset in range(4):
    stored = np.empty((2, offset + 1000, 3))
    stored[:, offset:] = rows
    V = lyapunov_series(*stored[:, offset:], L0, 3.0, P)
    print(offset, hashlib.sha256(V.tobytes()).hexdigest())
for x1 in ([-0.08498784700926532, 2.336927006094001, 2.604261095737498],
           [-2.367028322578623, 0.7746489092382554, 2.562927318407205],
           [-0.3577370717052961, 2.7275429621444234, -0.0006251178741178975]):
    (_, report), = run_cells("custom", [("amssosmc", None)], {"x1_init": x1, "horizon": 0.01},
                             record=False, disturbance={"kind": "none", "n": 3})
    print(repr(report.settling_threshold))

def fingerprint(traj, report):
    return [(name, col.shape, col.tobytes()) for name, col in traj.columns()], repr(report.to_dict())

for experiment, cells in (
        ("exp2", [("amssosmc", None), ("amstsmc-baseline", None), ("amssosmc", {"k4": 40.0})]),
        ("exp3", [("amsdo", None), ("amdo-baseline", None), ("amsdo", {"kappa": 12.0})])):
    batch = run_cells(experiment, cells, {"horizon": 0.2})
    for row, (cell, got) in enumerate(zip(cells, batch)):
        (alone,) = run_cells(experiment, [cell], {"horizon": 0.2})
        print(experiment, row, fingerprint(*got) == fingerprint(*alone))
'''


def child_output(coretype):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def outputs():
    return {coretype: child_output(coretype).splitlines()
            for coretype in (None, "Prescott", "Nehalem")}


def test_v_and_the_threshold_are_the_same_under_every_kernel(outputs):
    default = outputs[None][:7]
    assert len(default) == 7
    # the same rows give the same V wherever they are stored
    assert len({line.split()[1] for line in default[:4]}) == 1
    assert outputs["Prescott"][:7] == default
    assert outputs["Nehalem"][:7] == default


def test_a_batch_row_is_its_lone_run_under_every_kernel(outputs):
    want = [f"{experiment} {row} True" for experiment in ("exp2", "exp3") for row in range(3)]
    for coretype, lines in outputs.items():
        assert lines[7:] == want, coretype
