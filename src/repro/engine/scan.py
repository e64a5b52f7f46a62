"""The claim–stop–merge protocol, expressed once.

Every executor runs one protocol over a plan's candidate chunks: claim
positions in document order from a shared cursor, consult the stop rules
*at claim time*, and merge evaluated chunks into a shared top-k.
:class:`ChunkScan` holds that state and is the only place that knows how
cursor, stop and merge interleave. The executors are *drivers*: they
decide when a claim or a merge happens (in lockstep, at a virtual
completion event, or under a lock) and what it costs — never how.
"""

from __future__ import annotations

from typing import Tuple

from repro.engine.plan import ChunkOutcome, QueryPlan
from repro.engine.results import ExecutionResult, make_ranked
from repro.engine.termination import TerminationConfig, TerminationState
from repro.engine.topk import TopK


class ChunkScan:
    """Cursor + top-k + termination state + work counters of one query.

    Not synchronized: a concurrent driver serializes every transition
    under its own lock (see :mod:`repro.engine.threads`).
    """

    __slots__ = (
        "plan",
        "topk",
        "state",
        "position",
        "chunks_evaluated",
        "postings_scanned",
        "docs_matched",
    )

    def __init__(self, plan: QueryPlan, termination: TerminationConfig) -> None:
        self.plan = plan
        self.topk = TopK(plan.query.k)
        self.state = TerminationState(termination, plan, self.topk)
        self.position = 0
        self.chunks_evaluated = 0
        self.postings_scanned = 0
        self.docs_matched = 0

    @property
    def stopped(self) -> bool:
        """True once a stop rule has latched; no position is handed out
        afterwards."""
        return self.state.fired_rule is not None

    def claim(self) -> int:
        """Hand out the next position to evaluate, or -1 when execution
        should stop."""
        position = self.position
        if self.state.should_stop(position):
            return -1
        self.position = position + 1
        return position

    def merge(self, outcome: ChunkOutcome) -> None:
        """Fold one evaluated chunk into the top-k and the counters."""
        self.chunks_evaluated += 1
        self.postings_scanned += outcome.postings_scanned
        self.docs_matched += outcome.n_matched
        self.topk.offer_many(outcome.scores, outcome.doc_ids)
        self.state.record_matches(outcome.n_matched)

    def result(
        self,
        degree: int,
        latency: float,
        cpu_time: float,
        worker_busy: Tuple[float, ...],
    ) -> ExecutionResult:
        """Assemble the execution result; timing is the driver's."""
        return ExecutionResult(
            query=self.plan.query,
            degree=degree,
            results=make_ranked(self.topk.results()),
            latency=latency,
            cpu_time=cpu_time,
            chunks_evaluated=self.chunks_evaluated,
            postings_scanned=self.postings_scanned,
            docs_matched=self.docs_matched,
            terminated_early=self.state.terminated_early,
            termination_rule=self.state.fired_rule,
            worker_busy=worker_busy,
        )
