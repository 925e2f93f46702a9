"""Trajectory metrics over arrays of samples: settling time, ultimate bound
over a tail window and a total-variation chattering index, its step norms
summed exactly and rounded once, plus the per-run report record.  The array
functions are the plain definitions over one record; the runs fold the same
numbers block by block (``experiments._Metrics``), held bitwise equal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


def _tail_mask(times: np.ndarray, tail_fraction: float) -> np.ndarray:
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must lie in (0, 1)")
    cutoff = times[0] + (1.0 - tail_fraction) * (times[-1] - times[0])
    return times >= cutoff


def settling_time(times: np.ndarray, norms: np.ndarray, threshold: float) -> float | None:
    """Earliest sample time after which ``norms`` stays below the threshold
    through the end of the record; None if it never does."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    above = np.flatnonzero(norms >= threshold)
    if above.size == 0:
        return float(times[0])
    last = above[-1]
    if last == norms.shape[0] - 1:
        return None
    return float(times[last + 1])


def ultimate_bound(times: np.ndarray, norms: np.ndarray, tail_fraction: float = 0.2) -> float:
    """Max of ``norms`` over the final fraction of the record."""
    return float(norms[_tail_mask(times, tail_fraction)].max())


def chattering_index(times: np.ndarray, values: np.ndarray, tail_fraction: float = 0.2) -> float:
    """Total variation per second of a vector signal, rows of ``values``, over
    the tail window: ``math.fsum`` of its step norms over the tail's span."""
    mask = _tail_mask(times, tail_fraction)
    if int(mask.sum()) < 2:
        raise ValueError("need at least two tail samples for a variation rate")
    t = times[mask]
    steps = np.linalg.norm(np.diff(values[mask], axis=0), axis=1)
    return math.fsum(steps.tolist()) / float(t[-1] - t[0])


def exact_parts(values: list) -> list:
    """A few floats, the rounded sum and remainders, whose exact sum is that of
    ``values`` (one part if it is not finite), to fold a sum into ``math.fsum``."""
    parts = []
    while rest := math.fsum(values + [-p for p in parts]):
        parts.append(rest)
        if not math.isfinite(rest):
            break
    return parts


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
