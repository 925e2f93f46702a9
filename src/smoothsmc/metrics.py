"""Trajectory metrics over arrays of samples: settling time, ultimate bound
over a tail window, and a total-variation chattering index, plus the per-run
report record.

Each metric is a fold over records that share one increasing time grid: it
is fed a block of consecutive samples at a time, in order, one row per
record, and gives each record the same float whatever the blocks.  The
array functions feed one record as one block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


def _row_norms(d: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(d, axis=2)`` by its own arithmetic for real input,
    ``sqrt`` of the ``add.reduce`` of ``d * d``, but squaring ``d`` in place,
    so that a block's steps take one temporary of its size, not two."""
    return np.sqrt(np.add.reduce(np.multiply(d, d, out=d), axis=2))


class Settling:
    """Settling time: the time of the sample after the last one whose norm
    is at or above ``threshold``; None while the latest sample is above it."""

    def __init__(self, threshold: float, records: int = 1):
        if not threshold > 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.pending = np.ones(records, dtype=bool)  # settles at the next sample below
        self.time = np.zeros(records)

    def add(self, times: np.ndarray, norms: np.ndarray) -> None:
        above = norms >= self.threshold
        samples, hit = norms.shape[1], above.any(axis=1)
        after = np.where(hit, samples - np.argmax(above[:, ::-1], axis=1), 0)
        moved = hit | self.pending
        self.pending = np.where(moved, after == samples, self.pending)
        self.time = np.where(moved & ~self.pending, times[np.minimum(after, samples - 1)],
                             self.time)

    def result(self) -> list[float | None]:
        return [None if p else t for p, t in zip(self.pending.tolist(), self.time.tolist())]


class _TailWindow:
    """The tail window, the final ``tail_fraction`` of a time grid from
    ``first_time`` to ``last_time``: a suffix of every block."""

    def __init__(self, first_time: float, last_time: float, tail_fraction: float = 0.2):
        if not 0.0 < tail_fraction < 1.0:
            raise ValueError("tail_fraction must lie in (0, 1)")
        self.cutoff = first_time + (1.0 - tail_fraction) * (last_time - first_time)

    def tail(self, times: np.ndarray) -> int | None:
        """The block's first sample in the window, None if it has none."""
        inside = times >= self.cutoff
        return int(inside.argmax()) if inside[-1] else None


class TailMax(_TailWindow):
    """Ultimate bound: the largest norm over the tail window."""

    peak = None

    def add(self, times: np.ndarray, norms: np.ndarray) -> None:
        if (start := self.tail(times)) is not None:
            peak = norms[:, start:].max(axis=1)
            self.peak = peak if self.peak is None else np.maximum(self.peak, peak)

    def result(self) -> list[float]:
        if self.peak is None:
            raise ValueError("no samples in the tail window")
        return self.peak.tolist()


class TailVariation(_TailWindow):
    """Chattering index: the total variation per second of a vector signal
    over the tail window, ``||v_k - v_(k-1)||`` summed over its steps.  The
    window's last sample is carried into the next block; each record's
    steps are kept and summed once, with numpy's pairwise ``sum``, so the
    result does not depend on the blocks."""

    first = last = previous = steps = None  # window times, last sample, step norms

    def add(self, times: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fold ``values`` of shape (records, samples, n) and return the
        block's new step norms, which are those of its last samples."""
        if (start := self.tail(times)) is None:
            return values[:, :0, 0]
        rows = values[:, start:]
        steps = _row_norms(np.diff(rows, axis=1))
        if self.previous is None:  # the window's first sample closes no step inside it
            self.first, self.steps = times[start], []
        else:
            carried = _row_norms(rows[:, :1] - self.previous[:, None])
            steps = np.concatenate([carried, steps], axis=1)
        self.steps.append(steps)
        self.last, self.previous = times[-1], rows[:, -1].copy()
        return steps

    def result(self) -> list[float]:
        if self.first is None or self.last == self.first:
            raise ValueError("need at least two tail samples for a variation rate")
        span = float(self.last - self.first)
        return [float(np.concatenate([s[b] for s in self.steps]).sum()) / span
                for b in range(self.steps[0].shape[0])]


def settling_time(times: np.ndarray, norms: np.ndarray, threshold: float) -> float | None:
    """Earliest sample time after which ``norms`` stays below the threshold
    through the end of the record; None if it never does."""
    fold = Settling(threshold)
    fold.add(times, norms[None])
    return fold.result()[0]


def ultimate_bound(times: np.ndarray, norms: np.ndarray, tail_fraction: float = 0.2) -> float:
    """Max of ``norms`` over the final fraction of the record."""
    fold = TailMax(times[0], times[-1], tail_fraction)
    fold.add(times, norms[None])
    return fold.result()[0]


def chattering_index(times: np.ndarray, values: np.ndarray, tail_fraction: float = 0.2) -> float:
    """Total variation per second of a vector signal, rows of ``values``,
    over the tail window."""
    fold = TailVariation(times[0], times[-1], tail_fraction)
    fold.add(times, values[None])
    return fold.result()[0]


@dataclass(frozen=True)
class ExperimentReport:
    """Comparison quantities for one (method, scenario) cell."""

    method_id: str
    scenario_id: str
    settling_time: float | None  # None encodes "not settled"
    ultimate_bound: float
    chattering_index: float
    final_L0: float | None
    dt_used: float
    settling_threshold: float
    tail_fraction: float
    certificate_summary: dict | None = None
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method_id,
            "scenario": self.scenario_id,
            "settling_time": "not settled" if self.settling_time is None else self.settling_time,
            "ultimate_bound": self.ultimate_bound,
            "chattering_index": self.chattering_index,
            "final_L0": self.final_L0,
            "dt": self.dt_used,
            "settling_threshold": self.settling_threshold,
            "tail_fraction": self.tail_fraction,
            "certificate": self.certificate_summary,
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# The metric cells of a report row, shared by the comparison and sweep tables.
METRIC_COLUMNS = ("settling_time", "ultimate_bound", "chattering_index", "final_L0", "dt")


def metric_cells(r: ExperimentReport) -> list[str]:
    """The :data:`METRIC_COLUMNS` cells of one report: floats to 17
    significant digits, an unsettled run as ``not settled``, no L0 as empty."""
    settle = "not settled" if r.settling_time is None else format(r.settling_time, ".17g")
    return [settle] + ["" if v is None else format(v, ".17g")
                       for v in (r.ultimate_bound, r.chattering_index, r.final_L0, r.dt_used)]


def comparison_csv(reports: Iterable[ExperimentReport]) -> str:
    """CSV table across (method, scenario) cells."""
    lines = [",".join(("method", "scenario", *METRIC_COLUMNS))]
    lines += [",".join([r.method_id, r.scenario_id, *metric_cells(r)]) for r in reports]
    return "\n".join(lines) + "\n"
