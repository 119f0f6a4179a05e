"""Timings calibrated against the speed of the CPU at the moment they ran.

On a shared host the speed one vCPU delivers drifts by 1.5-2x within
seconds, as other tenants load the physical core. Wall times of the same
code then spread far more than any change worth measuring, and repeating
work inside one run does not remove a slow phase that outlasts the run.

`SpeedSampler` measures that drift as it happens: at random intervals of
`INTERVAL_S` on average (random, so that sampling cannot lock onto periodic
load from elsewhere) a SIGALRM handler, running in the benchmark's own
process on its own CPU, times a fixed reference routine (Welford updates and a log-likelihood
on 8-element numpy vectors, the same kind of interpreter and small-array
work as the library's hot paths). A timed interval is then reported in
*reference seconds*: each stretch of it is multiplied by the routine's
nominal duration over its duration measured nearest that stretch, and the
time the handler itself took is taken out. At the nominal speed a reference
second is a wall second.

Workloads record plain `perf_counter()` values; the sampler knows when its
handler ran and takes that time out of any interval it is asked about.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
# The reference routine's duration at which a reference second equals a
# wall second: about its fastest run-median on a 2.0 GHz Xeon vCPU
# (CPython 3.11.7, numpy 2.4.6).
NOMINAL_S = 0.31e-3

_X = np.linspace(0.5, 1.5, 8)


def _reference() -> float:
    mean, m2 = np.zeros(8), np.zeros(8)
    total = 0.0
    for n in range(1, 31):
        delta = _X - mean
        mean += delta / n
        m2 += delta * (_X - mean)
        total += float(np.sum(np.log(m2 + 1.0) + delta ** 2 / _X))
    return total


class SpeedSampler:
    """Context manager: samples the reference routine while it is active."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list[float] = []     # handler entry and exit times
        self.ends: list[float] = []
        self.durations: list[float] = []  # reference routine durations
        self._previous = None
        self._arrays = None
        self._rng = random.Random(0)
        self._armed = False

    def _sample(self) -> None:
        t0 = perf_counter()
        _reference()
        t1 = perf_counter()
        self.durations.append(t1 - t0)
        self.starts.append(t0)
        self.ends.append(perf_counter())
        self._arrays = None

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._rng.uniform(0.5, 1.5) * self.interval_s)

    def _tick(self, signum, frame) -> None:
        self._sample()
        if self._armed:
            self._arm()

    def __enter__(self) -> "SpeedSampler":
        for _ in range(3):          # warm up: the first calls run cold
            _reference()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        self._arm()
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @contextmanager
    def suspended(self):
        """No samples inside: for waiting on a child process, which runs on
        the same CPU and would slow the reference routine down. The time
        inside is calibrated by the samples just before and after."""
        self._sample()
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            self._armed = True
            self._arm()

    def slowdown(self) -> float:
        """Median measured over nominal reference duration for the run."""
        return float(np.median(self.durations)) / NOMINAL_S

    def _get_arrays(self):
        if self._arrays is None:
            starts, ends = np.asarray(self.starts), np.asarray(self.ends)
            mids = (starts + ends) / 2
            slow = np.asarray(self.durations) / NOMINAL_S
            # Each sample stands for the time nearer to it than to its neighbours.
            edges = np.concatenate(([-np.inf], (mids[1:] + mids[:-1]) / 2, [np.inf]))
            paused = np.concatenate(([0.0], np.cumsum(ends - starts)))
            self._arrays = mids, slow, edges, starts, ends, paused
        return self._arrays

    def _paused_before(self, t: np.ndarray) -> np.ndarray:
        """Seconds spent in the handler before each time in t."""
        _, _, _, starts, ends, paused = self._get_arrays()
        k = np.searchsorted(starts, t, side="right") - 1
        j = np.maximum(k, 0)
        inside = np.clip(t - starts[j], 0.0, ends[j] - starts[j])
        return np.where(k >= 0, paused[j] + inside, 0.0)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds from a to b (perf_counter values)."""
        if b <= a:
            return 0.0
        _, slow, edges, *_ = self._get_arrays()
        overlap = np.clip(np.minimum(edges[1:], b) - np.maximum(edges[:-1], a), 0.0, None)
        paused = np.diff(self._paused_before(np.array([a, b])))[0]
        return float(np.sum(overlap / slow)) * (b - a - paused) / (b - a)

    def latencies(self, spans: np.ndarray) -> np.ndarray:
        """Reference seconds of many short spans (rows start, end), each
        scaled by the sample nearest its midpoint."""
        mids, slow, *_ = self._get_arrays()
        mid = spans.mean(axis=1)
        idx = np.clip(np.searchsorted(mids, mid), 1, len(mids) - 1)
        nearer = np.where(mid - mids[idx - 1] < mids[idx] - mid, idx - 1, idx)
        paused = self._paused_before(spans[:, 1]) - self._paused_before(spans[:, 0])
        return (spans[:, 1] - spans[:, 0] - paused) / slow[nearer]


class WallClock:
    """Plain wall time, with SpeedSampler's interface."""

    def seconds(self, a: float, b: float) -> float:
        return b - a

    def latencies(self, spans: np.ndarray) -> np.ndarray:
        return spans[:, 1] - spans[:, 0]
