"""Cached per-chunk evaluation trace.

Evaluating a chunk is deterministic given (query, index), independent of
execution order, degree, or termination state. :class:`ChunkTrace`
memoizes chunk outcomes and their virtual costs so that running the same
query at several parallelism degrees (as the speedup-profile measurement
does) evaluates each chunk at most once.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.engine.cost import CostModel
from repro.engine.plan import ChunkOutcome, QueryPlan


class ChunkTrace:
    """Lazy, memoizing view of a plan's chunk outcomes and costs."""

    def __init__(self, plan: QueryPlan, cost_model: CostModel) -> None:
        self.plan = plan
        self.cost_model = cost_model
        self._cache: Dict[int, Tuple[ChunkOutcome, float]] = {}

    @property
    def n_positions(self) -> int:
        return self.plan.n_candidate_chunks

    def get(self, position: int) -> Tuple[ChunkOutcome, float]:
        """Outcome and virtual cost of the candidate chunk at ``position``."""
        cached = self._cache.get(position)
        if cached is not None:
            return cached
        outcome = self.plan.score_chunk(position)
        cost = self.cost_model.chunk_time(outcome)
        entry = (outcome, cost)
        # Benign race: score_chunk is deterministic in `position`, so two
        # threads can only store an equal value, and a dict store is a
        # single GIL-atomic bytecode — no torn state is observable.
        self._cache[position] = entry  # reprolint: disable=R012 -- idempotent memo write; value is deterministic per position and dict stores are GIL-atomic
        return entry

    @property
    def n_evaluated(self) -> int:
        """How many distinct chunks have been materialized so far."""
        return len(self._cache)
