"""Virtual-time cost model.

The paper measures query execution on a real 12-core Xeon; this
reproduction replaces wall-clock measurement with a deterministic cost
model applied to the engine's *actual* work counters. Crucially, the
sublinear speedups, the waste from speculative chunks, and the
short-vs-long query asymmetry all come from the engine's real dynamics —
the cost model only converts work units into seconds.

Default coefficients are calibrated so a mid-size synthetic shard yields
the service-time scale reported for production ISNs (median a few
milliseconds, long tail tens of milliseconds):

* ``posting_cost`` — per posting scanned (decode + score accumulate);
* ``match_cost`` — per matched document (scoring + heap bookkeeping);
* ``chunk_cost`` — per chunk claimed (work-queue claim, cursor setup);
  a chunk outside the candidate list is never claimed and costs nothing
  (candidate-chunk selection is metadata-only);
* ``query_fixed_cost`` — per query (parse, plan, result assembly);
  *sequential*, paid once regardless of parallelism degree (Amdahl term);
* ``fork_cost`` / ``join_cost`` — per *extra* worker when running with
  intra-query parallelism (thread dispatch and final merge barrier);
* ``merge_cost`` — per chunk-result merge into the shared top-k
  (synchronization), paid only by parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.util.validation import require_in_range


@dataclass(frozen=True)
class CostModel:
    """Coefficients mapping work counters to virtual seconds."""

    posting_cost: float = 120e-9
    match_cost: float = 300e-9
    chunk_cost: float = 2.5e-6
    query_fixed_cost: float = 60e-6
    fork_cost: float = 12e-6
    join_cost: float = 8e-6
    merge_cost: float = 3e-6

    def __post_init__(self) -> None:
        for name in (
            "posting_cost",
            "match_cost",
            "chunk_cost",
            "query_fixed_cost",
            "fork_cost",
            "join_cost",
            "merge_cost",
        ):
            require_in_range(getattr(self, name), name, low=0.0)

    def chunk_times(
        self, postings_scanned: Sequence[int], n_matched: Sequence[int]
    ) -> List[float]:
        """Virtual seconds to evaluate each of several chunks (excluding
        merge), from their parallel work counters."""
        chunk_cost = self.chunk_cost
        posting_cost = self.posting_cost
        match_cost = self.match_cost
        return [
            chunk_cost + posting_cost * scanned + match_cost * matched
            for scanned, matched in zip(postings_scanned, n_matched)
        ]

    def fork_time(self, degree: int) -> float:
        """One-time cost to spin up ``degree`` workers (0 for sequential)."""
        return self.fork_cost * (degree - 1) if degree > 1 else 0.0

    def join_time(self, degree: int) -> float:
        """One-time cost to join ``degree`` workers (0 for sequential)."""
        return self.join_cost * (degree - 1) if degree > 1 else 0.0

    def merge_time(self, degree: int) -> float:
        """Per-chunk merge/synchronization cost under parallel execution."""
        return self.merge_cost if degree > 1 else 0.0
