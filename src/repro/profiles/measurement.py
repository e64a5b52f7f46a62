"""Measure per-query execution costs across parallelism degrees.

:func:`measure_cost_table` runs a query sample through the engine once
per degree (sharing each query's chunk trace across degrees, so every
chunk is evaluated at most once) and records latency, CPU time, and work
counters. The resulting :class:`QueryCostTable` is:

* the simulator's service-time oracle — when the modeled ISN runs query
  ``i`` at degree ``p``, it occupies ``p`` cores for ``latency[i, p]``
  virtual seconds;
* the raw material for :class:`~repro.profiles.speedup.SpeedupProfile`
  and :class:`~repro.profiles.servicetime.ServiceTimeDistribution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.engine.executor import Engine
from repro.engine.query import Query
from repro.errors import ProfileError
from repro.util.validation import require, require_int_in_range


@dataclass(frozen=True)
class MeasurementConfig:
    """Which degrees to measure and how many queries to sample."""

    degrees: Tuple[int, ...] = (1, 2, 3, 4, 6, 8, 12)
    n_queries: int = 1_000

    def __post_init__(self) -> None:
        require(len(self.degrees) > 0, "degrees must not be empty")
        require(1 in self.degrees, "degrees must include 1 (the sequential baseline)")
        require(
            tuple(sorted(set(self.degrees))) == tuple(self.degrees),
            "degrees must be strictly increasing and unique",
        )
        require_int_in_range(self.n_queries, "n_queries", low=1)


class QueryCostTable:
    """Per-query latency/CPU measurements over a fixed set of degrees.

    ``latency[i, j]`` and ``cpu[i, j]`` are the virtual seconds for query
    ``i`` at degree ``degrees[j]``; ``chunks[i, j]`` is the number of
    chunks evaluated (whose growth with ``j`` is the speculative waste).
    """

    def __init__(
        self,
        queries: Sequence[Query],
        degrees: Sequence[int],
        latency: np.ndarray,
        cpu: np.ndarray,
        chunks: np.ndarray,
    ) -> None:
        n, d = len(queries), len(degrees)
        for name, arr in (("latency", latency), ("cpu", cpu), ("chunks", chunks)):
            if arr.shape != (n, d):
                raise ProfileError(f"{name} must have shape ({n}, {d}), got {arr.shape}")
        self.queries = list(queries)
        self.degrees = tuple(int(p) for p in degrees)
        self.latency = np.ascontiguousarray(latency, dtype=np.float64)
        self.cpu = np.ascontiguousarray(cpu, dtype=np.float64)
        self.chunks = np.ascontiguousarray(chunks, dtype=np.int64)
        self._degree_index = {p: j for j, p in enumerate(self.degrees)}

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def degree_column(self, degree: int) -> int:
        try:
            return self._degree_index[int(degree)]
        except KeyError:
            raise ProfileError(
                f"degree {degree} not measured; available: {self.degrees}"
            ) from None

    def latency_of(self, query_index: int, degree: int) -> float:
        return float(self.latency[query_index, self.degree_column(degree)])

    def sequential_latencies(self) -> np.ndarray:
        return self.latency[:, self.degree_column(1)]

    def speedups(self, degree: int) -> np.ndarray:
        """Per-query speedup ``t(1) / t(degree)``."""
        return self.sequential_latencies() / self.latency[:, self.degree_column(degree)]

    def work_inflation(self, degree: int) -> np.ndarray:
        """Per-query CPU inflation ``cpu(degree) / cpu(1)`` (>= 1)."""
        return self.cpu[:, self.degree_column(degree)] / self.cpu[:, self.degree_column(1)]

    def mean_work_inflation(self, degree: int) -> float:
        """Aggregate inflation: total CPU at ``degree`` over total at 1.

        This (not the mean of per-query ratios) is what scales the ISN's
        saturation throughput, because capacity is about total work.
        """
        j = self.degree_column(degree)
        j1 = self.degree_column(1)
        return float(self.cpu[:, j].sum() / self.cpu[:, j1].sum())

    def subset(self, mask: np.ndarray) -> "QueryCostTable":
        """Restrict to queries selected by the boolean ``mask``."""
        indices = np.nonzero(mask)[0]
        return QueryCostTable(
            queries=[self.queries[i] for i in indices],
            degrees=self.degrees,
            latency=self.latency[indices],
            cpu=self.cpu[indices],
            chunks=self.chunks[indices],
        )


def measure_cost_table(
    engine: Engine,
    queries: Sequence[Query],
    config: Optional[MeasurementConfig] = None,
) -> QueryCostTable:
    """Execute ``queries`` at every configured degree and tabulate costs."""
    config = config or MeasurementConfig()
    degrees = config.degrees
    if max(degrees) > engine.config.max_degree:
        raise ProfileError(
            f"measurement degree {max(degrees)} exceeds engine max_degree "
            f"{engine.config.max_degree}"
        )
    n = len(queries)
    latency = np.empty((n, len(degrees)), dtype=np.float64)
    cpu = np.empty((n, len(degrees)), dtype=np.float64)
    chunks = np.empty((n, len(degrees)), dtype=np.int64)
    for i, query in enumerate(queries):
        trace = engine.trace(query)
        for j, degree in enumerate(degrees):
            result = engine.execute_trace(trace, degree)
            latency[i, j] = result.latency
            cpu[i, j] = result.cpu_time
            chunks[i, j] = result.chunks_evaluated
    return QueryCostTable(queries, degrees, latency, cpu, chunks)
