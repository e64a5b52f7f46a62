"""Sequential (degree-1) query execution.

Drives the :class:`~repro.engine.scan.ChunkScan` in lockstep: claim the
next candidate chunk in document order, read the block that holds it
from the :class:`~repro.engine.trace.ChunkTrace` (one kernel call per
block), merge the run of that block's positions in which no stop rule
can fire (:meth:`~repro.engine.scan.ChunkScan.merge_run`), and claim
where the run ends, until a termination rule fires at claim time — the
same claims, merges and result as one chunk per step. Virtual time is
charged per chunk *merged*, one cost at a time in position order; what
the trace scored ahead and the scan never claimed costs wall-clock time
only. This is both the production baseline the paper compares against
and the reference semantics the parallel executor's results are
validated against.
"""

from __future__ import annotations

from repro.engine.results import ExecutionResult
from repro.engine.scan import ChunkScan
from repro.engine.termination import TerminationConfig
from repro.engine.trace import ChunkTrace


def execute_sequential(
    trace: ChunkTrace, termination: TerminationConfig
) -> ExecutionResult:
    """Run the traced query sequentially and return its result."""
    cost_model = trace.cost_model
    scan = ChunkScan(trace.plan, termination)

    elapsed = cost_model.query_fixed_cost
    position = scan.claim()
    while position >= 0:
        block = trace.block(position)
        end = scan.merge_run(block, position)
        for cost in block.costs[position - block.start : end - block.start]:
            elapsed += cost
        position = scan.claim()

    return scan.result(
        degree=1,
        latency=elapsed,
        cpu_time=elapsed,
        worker_busy=(elapsed - cost_model.query_fixed_cost,),
    )
