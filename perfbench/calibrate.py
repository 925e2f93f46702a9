"""Machine-speed calibration for the timed jobs.

On a shared machine the speed of one core moves by 10-40 % in phases from a
fraction of a second to several minutes, so raw times of the same code differ
more between runs than the changes the benchmark has to resolve.  A fixed
reference kernel, which uses no code of the package, is timed at a steady
cadence all through the run, interrupting the job from a timer signal.  Each
operation's time is scaled by the kernel's nominal time over its median time
during that operation (or, for an operation shorter than the cadence, its
time nearest to it).  A phase that slows the machine slows both and cancels;
a change to the package moves only the operations.  The scaled times are
seconds at the reference speed: the speed at which the kernel takes
``REFERENCE_S``.

The kernel mixes what the package's jobs spend their time on: small numpy
arrays in a Python loop (norms, elementwise arithmetic, row writes), float
arithmetic, small objects, and float formatting and parsing as CSV I/O does.
It stays fixed from commit to commit, so scaled times of two commits compare.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

# Nominal time of one kernel call; a scaled time is in seconds at the speed
# where the kernel takes this long.  A unit, not a measurement: changing it
# rescales every time and breaks comparison with earlier results.
REFERENCE_S = 0.01
KERNEL_STEPS = 800
# Job time between two kernel calls: the kernel takes about a sixth of a run.
INTERVAL_S = 0.05


class _State:
    __slots__ = ("x", "gain")

    def __init__(self, x, gain):
        self.x, self.gain = x, gain


def kernel() -> float:
    """One call of the reference kernel; returns a checksum so that no step
    can be skipped."""
    import numpy as np

    x = np.array([0.3, -0.2, 0.1])
    log = np.empty((KERNEL_STEPS, 3))
    state = _State(x, 1.0)
    lines = []
    acc = 0.0
    for i in range(KERNEL_STEPS):
        nrm = float(np.linalg.norm(state.x))
        direction = state.x * (nrm ** -0.5) if nrm > 1e-12 else np.zeros(3)
        gain = state.gain + 1e-3 * (nrm - 0.5 * state.gain)
        x = state.x - 1e-3 * (gain * direction + 0.5 * state.x) + 1e-4 * math.sin(i * 1e-3)
        state = _State(x, gain)
        log[i] = x
        acc += nrm * nrm
        if i % 5 == 0:
            lines.append(",".join(repr(float(v)) for v in (i * 1e-3, *x, gain)))
    for line in lines:
        acc += sum(float(v) for v in line.split(","))
    return acc + float(log.sum())


def scale(spans, stamps) -> list[float]:
    """Each ``(start, end)`` span's length at the reference speed.

    ``stamps`` are ``(time, sample)`` pairs in time order, on the spans'
    clock.  A span is scaled by the samples taken inside it; a span with none
    inside by the sample nearest to it.
    """
    if not stamps:
        raise ValueError("no calibration sample")
    times = [t for t, _ in stamps]
    out = []
    for start, end in spans:
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        if lo == hi:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(stamps)]
            lo = min(near, key=lambda i: min(abs(times[i] - start), abs(times[i] - end)))
            hi = lo + 1
        out.append((end - start) * REFERENCE_S / statistics.median(s for _, s in stamps[lo:hi]))
    return out


class Sampler:
    """Times the kernel while active, from a SIGALRM handler, which Python
    runs between the job's bytecodes.  The one-shot timer is re-armed after
    each call, so the job runs ``interval`` seconds between two calls and a
    slow call cannot be interrupted by the next.

    ``clock()`` is ``perf_counter`` minus the time spent in the handler, so
    laps read from it leave the kernel out; ``stamps`` holds each sample with
    the ``clock()`` reading at which it interrupted the job.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.stamps: list[tuple[float, float]] = []
        self.paused = 0.0
        self._active = False
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self.paused

    def _tick(self, signum, frame):
        if not self._active:  # delivered while leaving: do not re-arm
            return
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.stamps.append((t0 - self.paused, t1 - t0))
        self.paused += t1 - t0
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
