"""Arrival processes for the open-loop workload.

All processes expose one method, :meth:`ArrivalProcess.next_interarrival`,
returning the time to the next arrival. Provided models:

* :class:`PoissonArrivals` — the paper's primary load model (open-loop
  Poisson, as produced by a large population of independent users);
* :class:`MMPP2Arrivals` — a 2-state Markov-modulated Poisson process
  modeling bursty traffic (the robustness experiment);
* :class:`TraceArrivals` — replay of explicit timestamps.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.util.validation import require, require_positive

#: Share of time :meth:`MMPP2Arrivals.with_mean_rate` spends in the high state.
HIGH_FRACTION = 0.2


class ArrivalProcess(abc.ABC):
    """Generates successive inter-arrival times (seconds)."""

    #: Traffic class of the arrival the latest ``next_interarrival``
    #: produced; labelled streams (:mod:`repro.sim.traffic`) set it.
    last_class: Optional[str] = None

    @abc.abstractmethod
    def next_interarrival(self) -> float:
        """Time until the next arrival; ``inf`` when the stream ends."""


class PoissonArrivals(ArrivalProcess):
    """Exponential inter-arrivals at a fixed rate (queries/second)."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        require_positive(rate, "rate")
        self.rate = float(rate)
        self._rng = rng

    def next_interarrival(self) -> float:
        return float(self._rng.exponential(1.0 / self.rate))


class MMPP2Arrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    The process alternates between a *low* and a *high* intensity state
    with exponentially distributed dwell times. Its mean rate is the
    dwell-weighted average of the two intensities; burstiness grows with
    the intensity ratio and dwell lengths.
    """

    def __init__(
        self,
        rate_low: float,
        rate_high: float,
        mean_dwell_low_s: float,
        mean_dwell_high_s: float,
        rng: np.random.Generator,
    ) -> None:
        require_positive(rate_low, "rate_low")
        require_positive(rate_high, "rate_high")
        require_positive(mean_dwell_low_s, "mean_dwell_low_s")
        require_positive(mean_dwell_high_s, "mean_dwell_high_s")
        require(rate_high >= rate_low, "rate_high must be >= rate_low")
        self.rate_low = float(rate_low)
        self.rate_high = float(rate_high)
        self.mean_dwell_low_s = float(mean_dwell_low_s)
        self.mean_dwell_high_s = float(mean_dwell_high_s)
        self._rng = rng
        self._in_high = False
        self._dwell_remaining_s = float(rng.exponential(mean_dwell_low_s))

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate."""
        total_s = self.mean_dwell_low_s + self.mean_dwell_high_s
        return (
            self.rate_low * self.mean_dwell_low_s
            + self.rate_high * self.mean_dwell_high_s
        ) / total_s

    @staticmethod
    def with_mean_rate(
        mean_rate: float,
        burst_ratio: float,
        mean_dwell_s: float,
        rng: np.random.Generator,
    ) -> "MMPP2Arrivals":
        """Construct an MMPP2 with a target mean rate.

        ``burst_ratio`` is rate_high / rate_low; ``mean_dwell_s`` is the
        mean high-state dwell in seconds; a fifth of the time
        (``HIGH_FRACTION``) is spent in the high state.
        """
        require_positive(mean_rate, "mean_rate")
        require(burst_ratio >= 1.0, "burst_ratio must be >= 1")
        # mean = rl*(1-f) + rh*f with rh = ratio*rl.
        rate_low = mean_rate / ((1.0 - HIGH_FRACTION) + burst_ratio * HIGH_FRACTION)
        rate_high = burst_ratio * rate_low
        return MMPP2Arrivals(
            rate_low=rate_low,
            rate_high=rate_high,
            mean_dwell_low_s=mean_dwell_s * (1.0 - HIGH_FRACTION) / HIGH_FRACTION,
            mean_dwell_high_s=mean_dwell_s,
            rng=rng,
        )

    def _current_rate(self) -> float:
        return self.rate_high if self._in_high else self.rate_low

    def _switch(self) -> None:
        self._in_high = not self._in_high
        dwell_s = self.mean_dwell_high_s if self._in_high else self.mean_dwell_low_s
        self._dwell_remaining_s = float(self._rng.exponential(dwell_s))

    def next_interarrival(self) -> float:
        """Sample across state switches until an arrival lands."""
        elapsed = 0.0
        while True:
            candidate_s = float(self._rng.exponential(1.0 / self._current_rate()))
            # Strict inequality: regime windows are half-open
            # [switch, next_switch), so a candidate landing exactly on
            # the dwell boundary belongs to the *new* regime and must be
            # re-sampled at the new rate rather than accepted at the old
            # one. (For float exponentials the boundary has measure
            # zero, so stationary outputs are unchanged; the distinction
            # matters for deterministic regression inputs.)
            if candidate_s < self._dwell_remaining_s:
                self._dwell_remaining_s -= candidate_s
                return elapsed + candidate_s
            elapsed += self._dwell_remaining_s
            self._switch()


class TraceArrivals(ArrivalProcess):
    """Replays an explicit, sorted sequence of arrival timestamps."""

    def __init__(self, times: Sequence[float]) -> None:
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError("times must be a 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("times must be finite")
        if arr.size and (np.any(np.diff(arr) < 0) or arr[0] < 0):
            raise ConfigurationError("times must be sorted and non-negative")
        self._times = arr
        self._cursor = 0
        self._last = 0.0

    def next_interarrival(self) -> float:
        if self._cursor >= self._times.shape[0]:
            return float("inf")
        gap = float(self._times[self._cursor] - self._last)
        self._last = float(self._times[self._cursor])
        self._cursor += 1
        if gap < 0:
            raise SimulationError("trace went backwards")
        return gap
