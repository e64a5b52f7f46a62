"""Service oracle: the simulator's view of query execution costs.

The discrete-event server does not run the engine inline; it replays the
per-query, per-degree virtual-time measurements captured in a
:class:`~repro.profiles.measurement.QueryCostTable`. The oracle also
carries optional predicted latencies (for the predictive policy) and
answers "what is the largest measured degree <= d" so grants clamp onto
the measured grid.

Every lookup the dispatch path makes is precomputed at construction as
plain Python lists — t1 and the per-degree latencies of each query, the
clamp indexed by degree, the plan chunk limit, one shared
:class:`~repro.policies.base.QueryInfo` per query — so a dispatch
indexes lists instead of calling into numpy. The cost is
O(queries × degrees), paid once per oracle.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.policies.base import QueryInfo
from repro.profiles.measurement import QueryCostTable


class ServiceOracle:
    """Query cost lookups for the simulated ISN."""

    def __init__(
        self,
        table: QueryCostTable,
        predicted_latencies: Optional[Sequence[float]] = None,
    ) -> None:
        self.table = table
        self.degrees = table.degrees
        if predicted_latencies is not None:
            predictions = np.asarray(predicted_latencies, dtype=np.float64)
            if predictions.shape[0] != table.n_queries:
                raise SimulationError(
                    "predicted_latencies must align with the cost table"
                )
            self.predicted = predictions
        else:
            self.predicted = None
        # Raises ProfileError for a table without degree 1: there is no
        # sequential baseline, and nothing to clamp a grant onto.
        self._t1 = table.sequential_latencies()
        t1 = self._t1.tolist()
        predicted = self.predicted.tolist() if self.predicted is not None else None
        self._t1_rows = t1
        self._expected_rows = predicted if predicted is not None else t1
        self._latency_rows = table.latency.tolist()
        self._column = {p: j for j, p in enumerate(table.degrees)}
        grid = sorted(self.degrees)
        # _clamp[d] is the largest measured degree <= d; degree 0 is
        # rejected before the lookup, so index 0 only pads.
        self._clamp = [0] + [
            grid[bisect.bisect_right(grid, d) - 1] for d in range(1, grid[-1] + 1)
        ]
        sequential = table.degree_column(1)
        self._plan_limits = [max(1, c) for c in table.chunks[:, sequential].tolist()]
        self._infos = [
            QueryInfo(
                query_id=query.query_id,
                n_terms=query.n_terms,
                predicted_sequential_latency=(
                    predicted[i] if predicted is not None else None
                ),
                true_sequential_latency=t1[i],
            )
            for i, query in enumerate(table.queries)
        ]

    @property
    def n_queries(self) -> int:
        return self.table.n_queries

    @property
    def max_degree(self) -> int:
        return self._clamp[-1]

    def clamp_degree(self, degree: int) -> int:
        """Largest measured degree <= ``degree`` (at least 1)."""
        if degree < 1:
            raise SimulationError(f"degree must be >= 1, got {degree}")
        clamp = self._clamp
        return clamp[degree] if degree < len(clamp) else clamp[-1]

    def latency(self, query_index: int, degree: int) -> float:
        """Virtual service time of the query at a *measured* degree."""
        column = self._column.get(degree)
        if column is None:
            # Unmeasured: the table raises ProfileError naming its grid.
            column = self.table.degree_column(degree)
        return self._latency_rows[query_index][column]

    def sequential_latency(self, query_index: int) -> float:
        return self._t1_rows[query_index]

    def expected_sequential_latency(self, query_index: int) -> float:
        """Best *pre-execution* estimate of t1: the predictor's value
        when the table carries predictions, else the true latency (the
        fallback keeps unpredicted tables usable in tests/tools)."""
        return self._expected_rows[query_index]

    def plan_chunk_limit(self, query_index: int) -> int:
        """Useful-parallelism bound: the query's sequential chunk count.

        A query whose sequential run terminates after ``c`` chunks keeps
        at most ~``c`` workers productively busy; a wider gang claims
        speculative chunks (wasting CPU) while the reserved extra cores
        add no speedup. The simulated clamp uses the oracle's measured
        count; a deployed system would approximate it with the same
        pre-execution features the latency predictor uses.
        """
        return self._plan_limits[query_index]

    def info(self, query_index: int) -> QueryInfo:
        """Policy-visible information for one query (one shared, immutable
        instance per query)."""
        return self._infos[query_index]

    def mean_sequential_latency(self) -> float:
        return float(self._t1.mean())
