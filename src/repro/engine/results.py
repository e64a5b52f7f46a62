"""Execution results and work accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.engine.query import Query


@dataclass(frozen=True)
class RankedDocument:
    """One ranked search result."""

    doc_id: int
    score: float
    rank: int  # 1-based position in the result list


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one query at one parallelism degree.

    Timing fields are *virtual seconds* from the engine's cost model:

    * ``latency`` — wall-clock (makespan) of the execution: what a client
      would observe on an otherwise idle machine;
    * ``cpu_time`` — total processor time consumed across all workers,
      including fork/join/merge overheads. For sequential execution
      ``cpu_time == latency``; for parallel execution ``cpu_time >
      latency`` and the ratio captures the efficiency loss the adaptive
      policy reasons about.

    Work counters:

    * ``chunks_evaluated`` — candidate chunks actually scored;
    * ``postings_scanned`` / ``docs_matched`` — low-level work units;
    * ``terminated_early`` / ``termination_rule`` — why execution stopped;
    * ``worker_busy`` — per-worker busy time (parallel only), whose spread
      measures load imbalance.
    """

    query: Query
    degree: int
    results: Tuple[RankedDocument, ...]
    latency: float
    cpu_time: float
    chunks_evaluated: int
    postings_scanned: int
    docs_matched: int
    terminated_early: bool
    termination_rule: Optional[str]
    worker_busy: Tuple[float, ...] = field(default_factory=tuple)

    @property
    def n_results(self) -> int:
        return len(self.results)

    @property
    def doc_ids(self) -> List[int]:
        return [r.doc_id for r in self.results]

    @property
    def scores(self) -> List[float]:
        return [r.score for r in self.results]

def make_ranked(pairs: List[Tuple[int, float]]) -> Tuple[RankedDocument, ...]:
    """Wrap (doc_id, score) pairs (already best-first) as ranked results."""
    return tuple(
        RankedDocument(doc_id=doc_id, score=score, rank=i + 1)
        for i, (doc_id, score) in enumerate(pairs)
    )
