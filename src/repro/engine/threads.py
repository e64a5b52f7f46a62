"""Real thread-pool parallel execution (validation mode).

The virtual-time executor in :mod:`repro.engine.parallel` is the one the
experiments use — it is deterministic and measures virtual seconds. This
module drives the *same* :class:`~repro.engine.scan.ChunkScan` from an
actual ``ThreadPoolExecutor``, every claim and merge under one real lock,
which serves two purposes:

* it demonstrates the engine's parallel protocol is a working concurrent
  algorithm, not only a model;
* tests use it to check that concurrent merging produces results
  equivalent to sequential execution (identical when termination is
  exhaustive or score-bound-only; a superset-quality result when the
  approximate match budget is active, because real thread timing may
  claim extra chunks — exactly the speculative waste the paper
  describes).

Timing from this executor is *not* meaningful for experiments (Python
threads serialize on the GIL); use the virtual executor for measurements.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine.results import ExecutionResult
from repro.engine.scan import ChunkScan
from repro.engine.termination import TerminationConfig
from repro.engine.trace import ChunkTrace


def execute_threaded(
    trace: ChunkTrace, termination: TerminationConfig, degree: int
) -> ExecutionResult:
    """Run the traced query on ``degree`` real threads."""
    scan = ChunkScan(trace.plan, termination)
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                position = scan.claim()
            if position < 0:
                return
            # Chunk evaluation happens outside the lock, as in the real
            # engine; only claim and merge synchronize.
            outcome, _ = trace.get(position)
            with lock:
                scan.merge(outcome)

    if degree == 1:
        worker()
    else:
        with ThreadPoolExecutor(max_workers=degree) as pool:
            futures = [pool.submit(worker) for _ in range(degree)]
            for future in futures:
                future.result()

    # Wall-clock timing is not meaningful here (see module docstring).
    return scan.result(
        degree=degree, latency=float("nan"), cpu_time=float("nan"), worker_busy=()
    )
