"""The trajectory CSV writer formats a chunk of rows per ``%`` and writes the
bytes that ``np.savetxt(path, table, fmt="%.17g", delimiter=",",
header=..., comments="")`` writes: the header, every newline, ``nan``,
``inf``, ``-0``, subnormals and the ends of the float range.  The tables
are built from arrays, not runs, so no test here calls BLAS.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothsmc.sim as sim_module
from smoothsmc import Trajectory, load_trajectory_csv, write_trajectory_csv
from smoothsmc.sim import CSV_CHUNK_ROWS, trajectory_columns

CHUNK = CSV_CHUNK_ROWS
ROW_COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.225073858507201e-308,
           -1.5e-310, 1e308, -1e308, np.finfo(float).max, 1.0, -1.0, 0.1]


def savetxt_bytes(traj, path):
    """What the writer wrote before it formatted rows a chunk at a time."""
    np.savetxt(path, np.column_stack([col for _, col in traj.columns()]),
               fmt="%.17g", delimiter=",", header=",".join(trajectory_columns(traj)),
               comments="")
    return path.read_bytes()


def record(table, n, observer):
    """The columns of ``table`` (rows, 3n + 3 or 4n + 2) as a controller
    record (t, x1, u, d, L0, V) or an observer's (t, x1, u, d, dhat, L0)."""
    cut = np.cumsum([1, n, n, n, n if observer else 1])
    t, x1, u, d, a, b = np.split(table, cut, axis=1)
    if observer:
        return Trajectory(times=t[:, 0], x1=x1, u=u, d_true=d, d_hat=a, L0=b[:, 0])
    return Trajectory(times=t[:, 0], x1=x1, u=u, d_true=d, L0=a[:, 0], V=b[:, 0])


def width(n, observer):
    return 4 * n + 2 if observer else 3 * n + 3


def draw_table(seed, rows, columns, finite):
    """Random bit patterns (every exponent, subnormals, NaN payloads), the
    special values and ordinary floats, mixed entry by entry."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=(rows, columns), dtype=np.uint64).view(np.float64)
    pick = rng.integers(0, 3, size=(rows, columns))
    table = np.where(pick == 0, bits, rng.choice(SPECIAL, size=(rows, columns)))
    table = np.where(pick == 2, rng.normal(scale=10.0, size=(rows, columns)), table)
    if finite:
        table[~np.isfinite(table)] = -0.0
    return table


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestTheBytesOfSavetxt:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.sampled_from(ROW_COUNTS),
           n=st.integers(1, 3), observer=st.booleans())
    def test_every_byte_is_that_of_savetxt(self, scratch, seed, rows, n, observer):
        traj = record(draw_table(seed, rows, width(n, observer), finite=False), n, observer)
        write_trajectory_csv(traj, scratch / "chunked.csv")
        assert (scratch / "chunked.csv").read_bytes() == savetxt_bytes(traj, scratch / "np.csv")

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_the_special_values_in_every_column(self, scratch, rows):
        table = np.resize(np.array(SPECIAL), (rows, width(3, False)))
        traj = record(table, 3, observer=False)
        write_trajectory_csv(traj, scratch / "chunked.csv")
        text = (scratch / "chunked.csv").read_bytes()
        assert text == savetxt_bytes(traj, scratch / "np.csv")
        assert text.count(b"\n") == rows + 1
        for token in (b"nan", b"inf", b"-inf", b"-0,", b"4.9406564584124654e-324",
                      b"1.7976931348623157e+308"):
            assert token in text, token

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.sampled_from(ROW_COUNTS),
           n=st.integers(1, 3), observer=st.booleans())
    def test_a_finite_table_loads_back_bit_for_bit(self, scratch, seed, rows, n, observer):
        table = draw_table(seed, rows, width(n, observer), finite=True)
        write_trajectory_csv(record(table, n, observer), scratch / "t.csv")
        again = load_trajectory_csv(scratch / "t.csv")
        loaded = np.column_stack([col for _, col in again.columns()])
        assert loaded.tobytes() == table.tobytes()


class TestWriteMemory:
    """A chunk's floats and text stay small beside the table: a 10,000-row
    controller record (12 columns, 960,000 bytes) peaks at 1.20x the
    table's bytes, savetxt at 1.03x, and one ``%`` over the whole table at
    8.6x."""

    ROWS, BOUND = 10_000, 1.5

    def traced_peak(self, path):
        traj = record(np.random.default_rng(0).normal(size=(self.ROWS, 12)), 3, observer=False)
        write_trajectory_csv(traj, path)  # first-call allocations
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, path)
            return tracemalloc.get_traced_memory()[1] / (self.ROWS * 12 * 8)
        finally:
            tracemalloc.stop()

    def test_a_write_peaks_near_the_table(self, scratch):
        assert self.traced_peak(scratch / "big.csv") < self.BOUND

    def test_one_format_over_the_whole_table_exceeds_the_bound(self, scratch, monkeypatch):
        monkeypatch.setattr(sim_module, "CSV_CHUNK_ROWS", self.ROWS)
        assert self.traced_peak(scratch / "big.csv") > self.BOUND
