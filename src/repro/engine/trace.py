"""Memoized chunk outcomes, scored a block at a time.

Evaluating a chunk is deterministic given (query, index), independent of
execution order, degree, or termination state. :class:`ChunkTrace`
memoizes chunk outcomes and their virtual costs, and is where the
sequential and virtual-time parallel executors get every chunk they
merge — so running one query at several parallelism degrees
(as the speedup-profile measurement does) scores each chunk at most once.

A miss scores the whole fixed *block* of positions it falls in with one
:meth:`~repro.engine.plan.QueryPlan.score_chunks` call: ``[0, 4)``,
``[4, 12)``, ``[12, 28)``, ``[28, 60)``, ``[60, 124)``, then 64 wide.
The block is a pure function of the position, so the trace carries no
wave state.

**Wall-clock speculation.** Positions of a block that the scan stops
before are scored and never read. That costs real time and
nothing else: an outcome reaches the top-k heap, the work counters and
virtual time only when a driver asks for its position, so every
:class:`~repro.engine.results.ExecutionResult` is what scoring chunk by
chunk would have produced. It is not the *modelled* speculation of the
parallel executor — chunks claimed before a stop is known — which is
counted in ``chunks_evaluated`` and priced in ``cpu_time``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.engine.cost import CostModel
from repro.engine.plan import ChunkOutcome, QueryPlan
from repro.errors import ExecutionError

#: Width of the first block of positions handed to
#: :meth:`~repro.engine.plan.QueryPlan.score_chunks`, and the cap its
#: doubling stops at. Small first, so a query that stops after a chunk or
#: two scores little it never reads; doubling, so a long scan soon
#: amortizes numpy dispatch over large calls.
FIRST_WAVE = 4
MAX_WAVE = 64


def _block(position: int) -> Tuple[int, int]:
    """``(start, end)`` of the fixed block that holds ``position``."""
    start, width = 0, FIRST_WAVE
    while position >= start + width:
        start += width
        width = min(2 * width, MAX_WAVE)
    return start, start + width


class ChunkTrace:
    """Memoizing view of a plan's chunk outcomes and costs."""

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
        if not 0 <= position < self.n_positions:
            raise ExecutionError(
                f"position {position} outside [0, {self.n_positions})"
            )
        start, end = _block(position)
        positions = range(start, min(end, self.n_positions))
        chunk_time = self.cost_model.chunk_time
        for at, outcome in zip(positions, self.plan.score_chunks(positions)):
            self._cache[at] = (outcome, chunk_time(outcome))
        return self._cache[position]

    @property
    def n_evaluated(self) -> int:
        """How many distinct chunks have been scored so far, including
        those of a block that no driver has asked for."""
        return len(self._cache)

    @property
    def n_blocks(self) -> int:
        """How many blocks have been scored so far, one kernel call
        each. A block is stored whole, so its first position stands for
        it."""
        count = start = 0
        while start < self.n_positions:
            count += start in self._cache
            start = _block(start)[1]
        return count
