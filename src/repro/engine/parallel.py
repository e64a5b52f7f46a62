"""Intra-query parallel execution in deterministic virtual time.

Models the paper's parallelization: ``degree`` workers dynamically claim
candidate chunks (in document order) from a shared cursor, evaluate them
independently, and merge their matches into a shared top-k under a lock.
Termination rules are consulted at *claim* time against the shared state,
so — exactly as in the real system — workers that are mid-chunk when the
budget fills complete their chunk anyway. Those extra chunks are the
**speculative waste** that makes parallel efficiency sublinear; no waste
factor is assumed anywhere, it emerges from the execution dynamics.

The executor is an event-driven mini-simulation over worker completion
times driving one shared :class:`~repro.engine.scan.ChunkScan` (merge at a
worker's completion event, claim right after), so it is deterministic
(ties broken by worker id) and independent of host scheduling. A claim
reads its chunk's cost from the :class:`~repro.engine.trace.ScoredBlock`
that holds it, and the completion event carries that block, so the merge
reads the chunk's matches straight from its columns: one block lookup
per block claimed from, not two trace reads per chunk.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.engine.results import ExecutionResult
from repro.engine.scan import ChunkScan
from repro.engine.termination import TerminationConfig
from repro.engine.trace import ChunkTrace, ScoredBlock


def execute_parallel(
    trace: ChunkTrace,
    termination: TerminationConfig,
    degree: int,
) -> ExecutionResult:
    """Run the traced query with ``degree`` parallel workers."""
    cost_model = trace.cost_model
    scan = ChunkScan(trace.plan, termination)

    merge_cost = cost_model.merge_time(degree)
    busy: List[float] = [0.0] * degree

    # Event heap of (worker-local ready time, worker id, completed
    # position, its block). Worker ids are unique, so ties never compare
    # further. All workers become ready at t=0 of the parallel phase;
    # fork/join are accounted as serial prologue/epilogue.
    events: List[Tuple[float, int, int, Optional[ScoredBlock]]] = [
        (0.0, worker, -1, None) for worker in range(degree)
    ]
    heapq.heapify(events)
    claimed: Optional[ScoredBlock] = None

    parallel_makespan = 0.0

    while events:
        now, worker, completed, block = heapq.heappop(events)
        if block is not None:
            scan.merge(block, completed)
            busy[worker] += merge_cost
            now += merge_cost
        # The worker that just merged claims right away, against the
        # shared state its own merge produced.
        position = scan.claim()
        if position >= 0:
            # Claims are consecutive positions, so the last claim's block
            # holds this one unless it starts a new block.
            if claimed is None or position - claimed.start >= len(claimed.costs):
                claimed = trace.block(position)
            cost = claimed.costs[position - claimed.start]
            busy[worker] += cost
            heapq.heappush(events, (now + cost, worker, position, claimed))
        else:
            parallel_makespan = max(parallel_makespan, now)

    serial_overhead = (
        cost_model.query_fixed_cost
        + cost_model.fork_time(degree)
        + cost_model.join_time(degree)
    )
    return scan.result(
        degree=degree,
        latency=serial_overhead + parallel_makespan,
        cpu_time=serial_overhead + sum(busy),
        worker_busy=tuple(busy),
    )
