"""Batch execution: the sequential driver, once per query.

``execute_batch`` is a loop over
:func:`~repro.engine.sequential.execute_sequential` — one
:class:`~repro.engine.trace.ChunkTrace` per query, in input order — so
every result is what ``engine.execute(query, degree=1)`` returns.
:class:`BatchStats` adds up, over the batch, what the traces scored and
what the scans read; the difference is wall-clock speculation (defined
in :mod:`repro.engine.trace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.engine.cost import CostModel
from repro.engine.plan import QueryPlan
from repro.engine.query import Query
from repro.engine.results import ExecutionResult
from repro.engine.sequential import execute_sequential
from repro.engine.termination import TerminationConfig
from repro.engine.trace import ChunkTrace
from repro.index.inverted import InvertedIndex


@dataclass
class BatchStats:
    """Work accounting for one :meth:`BatchExecutor.execute` call."""

    queries: int = 0
    #: kernel calls: blocks the traces filled.
    waves: int = 0
    chunks_evaluated: int = 0
    #: chunks a trace scored and no scan read, because a stop came first (wasted compute, zero result skew).
    chunks_speculative: int = 0


class BatchExecutor:
    """Runs queries one after another; ``last_stats`` describes the last
    :meth:`execute` call."""

    def __init__(
        self,
        index: InvertedIndex,
        cost_model: Optional[CostModel] = None,
        termination: Optional[TerminationConfig] = None,
    ) -> None:
        self.index = index
        self.cost_model = cost_model or CostModel()
        self.termination = termination or TerminationConfig()
        self.last_stats = BatchStats()

    def execute(self, queries: Sequence[Query]) -> List[ExecutionResult]:
        """Execute ``queries`` in input order, each exactly as
        ``engine.execute(query, degree=1)`` would."""
        stats = BatchStats(queries=len(queries))
        results = []
        for query in queries:
            plan = QueryPlan(query, self.index)
            trace = ChunkTrace(plan, self.cost_model)
            result = execute_sequential(trace, self.termination)
            results.append(result)
            stats.waves += trace.n_blocks
            stats.chunks_evaluated += result.chunks_evaluated
            stats.chunks_speculative += trace.n_evaluated - result.chunks_evaluated
        self.last_stats = stats
        return results

    def __repr__(self) -> str:
        return f"BatchExecutor(index={self.index!r})"
