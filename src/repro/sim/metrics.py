"""Metrics collection for simulated load points.

Records one row per completed query (arrival, start, completion, granted
degree) plus core-busy integrals, with warmup discarding, and summarizes
into the statistics the experiments report (mean / percentile latency,
queueing delay, throughput, utilization, degree mix).

Rows are stored as columns — 40 bytes per completed query, no object
per row — because a live node keeps its collector for as long as it
serves: a list of :class:`QueryRecord` retained ~230 B per answered
request, a megabyte a second at the front door's saturation rate.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, NamedTuple

import numpy as np
import numpy.typing as npt

from repro.errors import SimulationError


class QueryRecord(NamedTuple):
    """Lifecycle of one completed query."""

    query_index: int
    arrival: float
    start: float
    completion: float
    degree: int

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


class Window(NamedTuple):
    """What a collector recorded between two calls of one window reader:
    all arrivals and sheds, and the observed (post-warmup) completions'
    latencies and degrees, as copies that never pin the store."""

    n_arrivals: int
    n_shed: int
    latencies: npt.NDArray[np.float64]
    degrees: npt.NDArray[np.int64]


class MetricsCollector:
    """Accumulates query records and core-busy time within a window.

    The measurement window is ``[warmup, horizon]``; queries *arriving*
    before the warmup cutoff are excluded from latency statistics, and
    busy-core time is clipped to the window for utilization.
    """

    def __init__(self, warmup: float, horizon: float, n_cores: int) -> None:
        if warmup < 0 or horizon <= warmup:
            raise SimulationError(
                f"need 0 <= warmup < horizon, got warmup={warmup}, horizon={horizon}"
            )
        self.warmup = float(warmup)
        self.horizon = float(horizon)
        self.n_cores = int(n_cores)
        # The observed rows, interleaved so a completion is one extend
        # per array: (arrival, start, completion) and (query_index, degree).
        self._times = array("d")
        self._ints = array("q")
        self.busy_core_seconds = 0.0
        self.n_arrivals = 0
        self.n_completions = 0
        self.n_completed_in_window = 0
        # Robustness accounting: queries dropped without completing,
        # keyed by why (admission cap, deadline at dispatch, crashed
        # server). Window counts use the query's arrival time, matching
        # how latency records are warmup-filtered.
        self.shed_by_reason: Dict[str, int] = {}
        self.n_shed = 0
        self.n_shed_in_window = 0

    # ----------------------------------------------------------------
    # Recording (called by the server model)
    # ----------------------------------------------------------------

    def on_arrival(self) -> None:
        self.n_arrivals += 1

    def on_completion(self, record: QueryRecord) -> None:
        """Record a completion.

        Latency statistics cover every query *arriving* inside the
        window, even if it completes after the horizon (the load driver
        drains in-flight queries to avoid censoring the slow tail);
        throughput counts completions falling inside the window.
        """
        self.n_completions += 1
        if record.arrival >= self.warmup:
            self._times.extend((record.arrival, record.start, record.completion))
            self._ints.extend((record.query_index, record.degree))
        if self.warmup <= record.completion <= self.horizon:
            self.n_completed_in_window += 1

    def on_shed(self, arrival: float, reason: str) -> None:
        """Record a query dropped without service (load shedding)."""
        self.n_shed += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        if arrival >= self.warmup:
            self.n_shed_in_window += 1

    def on_core_usage(self, start_s: float, end_s: float, cores: int) -> None:
        """Account ``cores`` busy during [start_s, end_s], clipped to window."""
        lo_s = max(start_s, self.warmup)
        hi_s = min(end_s, self.horizon)
        if hi_s > lo_s:
            self.busy_core_seconds += cores * (hi_s - lo_s)

    # ----------------------------------------------------------------
    # Summaries
    # ----------------------------------------------------------------

    @property
    def window_s(self) -> float:
        """Measurement window length in seconds."""
        return self.horizon - self.warmup

    @property
    def n_observed(self) -> int:
        return len(self._ints) // 2

    def _time_columns(self, since: int = 0) -> npt.NDArray[np.float64]:
        """Rows ``since`` onward as an ``(n, 3)`` view of arrival, start,
        completion. The view pins the store (an ``array`` cannot grow
        while exported): derive from it, never keep it."""
        return np.frombuffer(self._times, dtype=np.float64).reshape(-1, 3)[since:]

    def window_reader(self) -> Callable[[], Window]:
        """A callable whose every call returns the :class:`Window` since
        its previous call (the first: since the start). Each reader keeps
        its own cursors."""
        cursors = [0, 0, 0]  # observed rows, arrivals, sheds already read

        def read() -> Window:
            n_rows, n_arrivals, n_shed = cursors
            times = self._time_columns(n_rows)
            window = Window(
                self.n_arrivals - n_arrivals,
                self.n_shed - n_shed,
                times[:, 2] - times[:, 0],
                np.frombuffer(self._ints, dtype=np.int64)[2 * n_rows + 1::2].copy(),
            )
            cursors[:] = self.n_observed, self.n_arrivals, self.n_shed
            return window

        return read

    @property
    def records(self) -> List[QueryRecord]:
        """The observed rows materialised as records (a fresh list per
        read: for tests and debugging, not for per-tick consumers)."""
        times, ints = self._times, self._ints
        return [
            QueryRecord(ints[2 * i], times[3 * i], times[3 * i + 1],
                        times[3 * i + 2], ints[2 * i + 1])
            for i in range(self.n_observed)
        ]

    def latencies(self) -> npt.NDArray[np.float64]:
        """Latency of every observed row."""
        times = self._time_columns()
        return times[:, 2] - times[:, 0]

    def queue_delays(self) -> npt.NDArray[np.float64]:
        times = self._time_columns()
        return times[:, 1] - times[:, 0]

    def degrees(self) -> npt.NDArray[np.int64]:
        return np.frombuffer(self._ints, dtype=np.int64)[1::2].copy()

    def latency_percentile(self, q_pct: float) -> float:
        """Latency percentile; ``q_pct`` is on the [0, 100] scale."""
        lat = self.latencies()
        if lat.size == 0:
            return float("nan")
        return float(np.percentile(lat, q_pct))

    def mean_latency(self) -> float:
        lat = self.latencies()
        return float(lat.mean()) if lat.size else float("nan")

    def throughput(self) -> float:
        """Completed queries per second inside the window."""
        return self.n_completed_in_window / self.window_s

    def utilization(self) -> float:
        """Mean fraction of cores busy inside the window."""
        return self.busy_core_seconds / (self.n_cores * self.window_s)

    def shed_rate(self) -> float:
        """Fraction of in-window demand (observed + shed) dropped."""
        demand = self.n_observed + self.n_shed_in_window
        if demand == 0:
            return 0.0
        return self.n_shed_in_window / demand

    def slo_attainment(self, deadline: float) -> float:
        """Fraction of in-window *demand* answered within ``deadline``.

        Shed queries count against attainment: a dropped query is an
        SLO miss from the client's point of view.
        """
        demand = self.n_observed + self.n_shed_in_window
        if demand == 0:
            return float("nan")
        lat = self.latencies()
        return float(np.count_nonzero(lat <= deadline)) / demand

    def goodput(self, deadline: float) -> float:
        """In-SLO completions per second inside the window.

        Unlike :meth:`throughput`, late completions do not count: under
        overload a system can stay busy finishing queries nobody is
        still waiting for, and goodput is the metric that exposes it.
        """
        times = self._time_columns()
        completion = times[:, 2]
        in_slo = np.count_nonzero(
            (self.warmup <= completion)
            & (completion <= self.horizon)
            & (completion - times[:, 0] <= deadline)
        )
        return int(in_slo) / self.window_s

    def conservation(self) -> Dict[str, int]:
        """Flow-conservation accounting over the whole run.

        ``in_flight`` is whatever arrived but neither completed nor was
        shed (non-zero only if the caller stopped before draining).
        Trace-backed tests re-derive these counts from spans and assert
        ``completed + shed + in_flight == issued``.
        """
        return {
            "issued": self.n_arrivals,
            "completed": self.n_completions,
            "shed": self.n_shed,
            "in_flight": self.n_arrivals - self.n_completions - self.n_shed,
        }

    def degree_histogram(self) -> Dict[int, float]:
        """Fraction of observed queries granted each degree."""
        degrees = self.degrees()
        if degrees.size == 0:
            return {}
        values, counts = np.unique(degrees, return_counts=True)
        total = float(degrees.size)
        return {int(v): float(c) / total for v, c in zip(values, counts)}

    def mean_degree(self) -> float:
        degrees = self.degrees()
        return float(degrees.mean()) if degrees.size else float("nan")
