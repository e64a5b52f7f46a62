"""The claim–stop–merge protocol, expressed once.

Every executor runs one protocol over a plan's candidate chunks: claim
positions in document order from a shared cursor, consult the stop rules
*at claim time*, and merge evaluated chunks into a shared top-k.
:class:`ChunkScan` holds that state and is the only place that knows how
cursor, stop and merge interleave. The executors are *drivers*: they
decide when a claim or a merge happens (in lockstep, or at a virtual
completion event) and what it costs — never how.

Chunks arrive as :class:`~repro.engine.trace.ScoredBlock` columns.
:meth:`ChunkScan.merge` folds one position of a block;
:meth:`ChunkScan.merge_run` folds the longest run of a block's positions,
from a granted one on, in which no stop rule can fire — what claiming and
merging them one at a time would do, with one slice of the block's match
arrays per run instead of one per chunk.
"""

from __future__ import annotations

from typing import Tuple

from repro.engine.plan import QueryPlan
from repro.engine.results import ExecutionResult, make_ranked
from repro.engine.termination import TerminationConfig, TerminationState
from repro.engine.topk import TopK
from repro.engine.trace import ScoredBlock


class ChunkScan:
    """Cursor + top-k + termination state + work counters of one query.

    Not synchronized: a driver applies one transition at a time. Any
    order of claims and merges it produces gives the answer the
    sequential driver gives (exactly, or dominating it under a match
    budget); ``tests/test_property_engine.py`` draws those orders.
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

    def merge(self, block: ScoredBlock, position: int) -> None:
        """Fold the chunk at ``position``, one of ``block``'s, into the
        top-k and the counters."""
        at = position - block.start
        self.chunks_evaluated += 1
        self.postings_scanned += block.postings_scanned[at]
        n_matched = block.n_matched[at]
        # A chunk without matches, common on long scans, changes neither
        # the heap nor the match count.
        if n_matched:
            lo = block.cuts[at]
            hi = lo + n_matched
            self.docs_matched += n_matched
            self.topk.offer_many(block.scores[lo:hi], block.doc_ids[lo:hi])
            self.state.record_matches(n_matched)

    def merge_run(self, block: ScoredBlock, position: int) -> int:
        """Merge the just granted ``position`` and the positions after it in
        ``block`` up to the first at whose claim a stop rule could fire;
        return that position, the next one to claim.

        Exactly what granting and merging them one at a time does. The
        match budget's first firing is a bisection over the block's match
        cuts (:meth:`TerminationState.budget_cut`). The score bound fires
        inside the run only if it fires at the run's last position once
        the rest has merged (:meth:`TerminationState.bound_reached`), so
        that is the one position tested; if it fires there, the heap is
        put back and the positions go one at a time. Top-k contents do not
        depend on how the offers are grouped: ``(score, -doc_id)`` keys
        are unique.
        """
        state = self.state
        topk = self.topk
        start = block.start
        cuts = block.cuts
        first = position - start
        end = state.budget_cut(cuts, first)
        lo = cuts[first]
        merged_to = lo
        if end - first > 1 and state.config.use_score_bound:
            saved = topk.snapshot()
            merged_to = cuts[end - 1]
            if merged_to > lo:
                topk.offer_many(
                    block.scores[lo:merged_to], block.doc_ids[lo:merged_to]
                )
            if state.bound_reached(start + end - 1):
                topk.restore(saved)
                return self._merge_to_bound(block, position, start + end - 1)
        hi = cuts[end]
        if hi > merged_to:
            topk.offer_many(block.scores[merged_to:hi], block.doc_ids[merged_to:hi])
        self.chunks_evaluated += end - first
        self.postings_scanned += sum(block.postings_scanned[first:end])
        if hi > lo:
            self.docs_matched += hi - lo
            state.record_matches(hi - lo)
        self.position = start + end
        return self.position

    def _merge_to_bound(self, block: ScoredBlock, position: int, last: int) -> int:
        """Merge from the granted ``position`` one chunk at a time up to the
        first position at which the score bound holds, which is ``last``
        at the latest; return it, the next one to claim."""
        self.merge(block, position)
        for position in range(position + 1, last):
            if self.state.bound_reached(position):
                break
            self.merge(block, position)
        else:
            position = last
        self.position = position
        return position

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
