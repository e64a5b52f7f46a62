"""Memoized chunk scores, kept a whole block at a time.

Evaluating a chunk is deterministic given (query, index), independent of
execution order, degree, or termination state. :class:`ChunkTrace`
memoizes scored chunks and their virtual costs, and is where the
sequential and virtual-time parallel executors get every chunk they
merge — so running one query at several parallelism degrees
(as the speedup-profile measurement does) scores each chunk at most once.

A miss scores the whole fixed *block* of positions it falls in with one
:meth:`~repro.engine.plan.QueryPlan.score_chunks` call: ``[0, 4)``,
``[4, 12)``, ``[12, 28)``, ``[28, 60)``, ``[60, 124)``, then 64 wide.
The block is a pure function of the position, so the trace carries no
wave state. It is stored as the kernel returned it — flat match arrays
cut per position — plus a work counter and a virtual cost per position
(:class:`ScoredBlock`); nothing is split into per-chunk objects, and a
driver merges a run of a block's positions with one slice of each array
(:meth:`~repro.engine.scan.ChunkScan.merge_run`).

**Wall-clock speculation.** Positions of a block that the scan stops
before are scored and never read. That costs real time and
nothing else: a position's matches reach the top-k heap, the work
counters and virtual time only when a driver merges it, so every
:class:`~repro.engine.results.ExecutionResult` is what scoring chunk by
chunk would have produced. It is not the *modelled* speculation of the
parallel executor — chunks claimed before a stop is known — which is
counted in ``chunks_evaluated`` and priced in ``cpu_time``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.engine.cost import CostModel
from repro.engine.plan import QueryPlan
from repro.errors import ExecutionError

#: Width of the first block of positions handed to
#: :meth:`~repro.engine.plan.QueryPlan.score_chunks`, and the cap its
#: doubling stops at (both powers of two). Small first, so a query that
#: stops after a chunk or two scores little it never reads; doubling, so
#: a long scan soon amortizes numpy dispatch over large calls.
FIRST_WAVE = 4
MAX_WAVE = 64
#: Where the doubling reaches ``MAX_WAVE``: the widths before it,
#: ``FIRST_WAVE``, ``2 * FIRST_WAVE``, …, ``MAX_WAVE / 2``, sum to this.
_RAMP_END = MAX_WAVE - FIRST_WAVE


def _block(position: int) -> Tuple[int, int]:
    """``(start, end)`` of the fixed block that holds ``position``.

    On the ramp the block of width ``FIRST_WAVE * 2**j`` starts at
    ``FIRST_WAVE * (2**j - 1)``, so ``j`` is one less than the bit length
    of ``position // FIRST_WAVE + 1``; past it, blocks are ``MAX_WAVE``
    wide from ``_RAMP_END`` on.
    """
    if position >= _RAMP_END:
        start = position - (position - _RAMP_END) % MAX_WAVE
        return start, start + MAX_WAVE
    width = FIRST_WAVE << ((position // FIRST_WAVE + 1).bit_length() - 1)
    return width - FIRST_WAVE, 2 * width - FIRST_WAVE


class ScoredBlock(NamedTuple):
    """One scored block of plan positions ``[start, start + len(costs))``.

    Position ``start + i`` matched ``doc_ids[cuts[i]:cuts[i + 1]]`` with
    ``scores`` alongside (the kernel's
    :class:`~repro.engine.plan.ChunkColumns`), scanned
    ``postings_scanned[i]`` postings, matched ``n_matched[i]`` documents
    and costs ``costs[i]`` virtual seconds
    (:meth:`~repro.engine.cost.CostModel.chunk_times`).
    """

    start: int
    doc_ids: np.ndarray
    scores: np.ndarray
    cuts: List[int]
    postings_scanned: List[int]
    n_matched: List[int]
    costs: List[float]


class ChunkTrace:
    """Memoizing view of a plan's scored blocks."""

    def __init__(self, plan: QueryPlan, cost_model: CostModel) -> None:
        self.plan = plan
        self.cost_model = cost_model
        self._blocks: Dict[int, ScoredBlock] = {}

    @property
    def n_positions(self) -> int:
        return self.plan.n_candidate_chunks

    def block(self, position: int) -> ScoredBlock:
        """The scored block that holds the candidate chunk at ``position``."""
        n_positions = self.plan.n_candidate_chunks
        if not 0 <= position < n_positions:
            raise ExecutionError(f"position {position} outside [0, {n_positions})")
        start, end = _block(position)
        found = self._blocks.get(start)
        if found is not None:
            return found
        doc_ids, scores, cuts, postings_scanned = self.plan.score_chunks(
            range(start, min(end, n_positions))
        )
        n_matched = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        found = self._blocks[start] = ScoredBlock(
            start,
            doc_ids,
            scores,
            cuts,
            postings_scanned,
            n_matched,
            self.cost_model.chunk_times(postings_scanned, n_matched),
        )
        return found

    @property
    def n_evaluated(self) -> int:
        """How many distinct chunks have been scored so far, including
        those of a block that no driver has merged."""
        return sum(len(block.costs) for block in self._blocks.values())

    @property
    def n_blocks(self) -> int:
        """How many blocks have been scored so far, one kernel call each."""
        return len(self._blocks)
