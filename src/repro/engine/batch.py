"""Batched multi-query execution: many queries in flight, scored in waves.

Scoring one chunk is ~O(terms) numpy calls on arrays of a few dozen
elements, so chunk by chunk the interpreter — not the hardware — sets
the throughput ceiling. Every executor therefore scores a *wave* of
positions per :meth:`~repro.engine.plan.QueryPlan.score_chunks` call:
the per-query executors through :class:`~repro.engine.trace.ChunkTrace`'s
fixed blocks, this one through waves it nominates itself. On the repo
benchmark's 2,048-query ``perf-batch`` stream a loop over
``engine.execute(q, 1)`` and ``execute_batch`` run within a few percent
of each other (CHANGES.md, PR 16), so this module is not a faster path;
what :class:`BatchExecutor` adds is the shape:

* **lookahead-nominated waves** — each active query nominates up to
  ``wave`` upcoming positions with a pure ``would_stop`` / ``should_skip``
  lookahead, so chunks the rules already exclude are never scored (on
  that stream 10.5 % of scored chunks go unread, against 13.5 % for the
  trace's blind blocks). Waves start at
  :data:`~repro.engine.plan.FIRST_WAVE` and double per survived wave up
  to :data:`~repro.engine.plan.MAX_WAVE`;
* **many queries in flight** — the executor plans the whole batch up
  front and round-robins waves across active queries, the scheduling
  shape of a real ISN serving concurrent traffic (and of the
  real-thread validation mode in :mod:`repro.engine.threads`).

Results are **bit-identical** to ``engine.execute(query, degree=1)`` for
every query in the batch: the merge replay applies the termination and
skip rules chunk-by-chunk in sequential order — chunks scored beyond a
mid-wave stop are *discarded*, never merged. That is wall-clock
speculation (defined in :mod:`repro.engine.trace`): counted in
:class:`BatchStats`, invisible in the per-query results and in virtual
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.engine.cost import CostModel
from repro.engine.plan import FIRST_WAVE, MAX_WAVE, QueryPlan
from repro.engine.query import Query
from repro.engine.results import ExecutionResult
from repro.engine.scan import ChunkScan
from repro.engine.termination import TerminationConfig
from repro.errors import ExecutionError
from repro.index.inverted import InvertedIndex
from repro.ranking.composite import ScoreWeights
from repro.util.validation import require_int_in_range


@dataclass
class BatchStats:
    """Work accounting for one :meth:`BatchExecutor.execute` call."""

    queries: int = 0
    waves: int = 0
    chunks_evaluated: int = 0
    chunks_skipped: int = 0
    #: chunks scored speculatively but discarded because a stop or skip
    #: decision overtook them mid-wave (wasted compute, zero result skew).
    chunks_speculative: int = 0


class _QueryRun:
    """One query's :class:`~repro.engine.scan.ChunkScan` inside a batch,
    plus what wave scheduling adds: the virtual clock and the wave size.

    The invariants that make wave replay exact are documented on
    :meth:`merge_wave`.
    """

    __slots__ = ("scan", "cost_model", "elapsed", "wave")

    def __init__(
        self, plan: QueryPlan, cost_model: CostModel,
        termination: TerminationConfig, initial_wave: int,
    ) -> None:
        self.scan = ChunkScan(plan, termination)
        self.cost_model = cost_model
        self.elapsed = cost_model.query_fixed_cost
        self.wave = initial_wave

    @property
    def done(self) -> bool:
        return self.scan.stopped

    def select_wave(self) -> List[int]:
        """Nominate up to ``wave`` upcoming positions for batched scoring.

        A pure lookahead from the cursor: skippable chunks are passed
        over, and the scan stops where a termination rule *would* fire
        right now. Both decisions are monotone in the top-k threshold and
        in ``matches_seen`` — merging can only confirm them, never revert
        them — so selection commits nothing (see :meth:`merge_wave`).
        """
        selected: List[int] = []
        position = self.scan.position
        state = self.scan.state
        while len(selected) < self.wave and state.would_stop(position) is None:
            if not state.should_skip(position):
                selected.append(position)
            position += 1
        return selected

    def merge_wave(self, selected: List[int], outcomes: Sequence, stats: BatchStats) -> None:
        """Replay the scored wave with exact sequential semantics.

        Each scored chunk is merged only if it is what the scan would
        claim next; the scan re-consults the stop and skip rules at every
        intervening position in order — identical to the sequential
        executor's control flow. Positions selection passed over re-skip
        deterministically (thresholds only rise); chunks overtaken by a
        stop or a newly-valid skip are discarded as speculative waste.
        The resulting per-query state is therefore bit-identical to
        having never batched at all.
        """
        # Bound once: this is the engine's tightest loop.
        peek, take, merge = self.scan.peek, self.scan.take, self.scan.merge
        chunk_time = self.cost_model.chunk_time
        for target, outcome in zip(selected, outcomes):
            position = peek()
            if position == target:
                take()
                merge(outcome)
                self.elapsed += chunk_time(outcome)
            elif 0 <= position < target:  # pragma: no cover - selection invariant violated
                raise ExecutionError(
                    f"batch replay reached unscored position {position}"
                )
            else:
                stats.chunks_speculative += 1

    def finalize_tail(self) -> None:
        """Drain the cursor to the stop point when no chunk needs scoring
        (everything remaining is skippable or a rule fires at the front)."""
        position = self.scan.peek()
        if position >= 0:  # pragma: no cover - selection invariant violated
            raise ExecutionError(
                f"batch finalize reached unscored position {position}"
            )

    def result(self) -> ExecutionResult:
        self.elapsed += self.cost_model.rerank_time(self.scan.docs_matched)
        return self.scan.result(
            degree=1,
            latency=self.elapsed,
            cpu_time=self.elapsed,
            worker_busy=(self.elapsed - self.cost_model.query_fixed_cost,),
        )


class BatchExecutor:
    """Executes batches of queries through the multi-chunk kernel.

    Stateless between calls except for ``last_stats``; one instance can
    be shared by concurrent threads (see
    :func:`repro.engine.threads.execute_threaded_batch`) because all
    mutable execution state lives in per-call ``_QueryRun`` objects.
    """

    def __init__(
        self,
        index: InvertedIndex,
        weights: Optional[ScoreWeights] = None,
        cost_model: Optional[CostModel] = None,
        termination: Optional[TerminationConfig] = None,
        initial_wave: int = FIRST_WAVE,
        max_wave: int = MAX_WAVE,
    ) -> None:
        require_int_in_range(initial_wave, "initial_wave", low=1)
        require_int_in_range(max_wave, "max_wave", low=initial_wave)
        self.index = index
        self.weights = weights or ScoreWeights()
        self.cost_model = cost_model or CostModel()
        self.termination = termination or TerminationConfig()
        self.initial_wave = initial_wave
        self.max_wave = max_wave
        self.last_stats = BatchStats()

    def _start(self, query: Query) -> _QueryRun:
        plan = QueryPlan(query, self.index, self.weights)
        return _QueryRun(plan, self.cost_model, self.termination, self.initial_wave)

    def _advance(self, run: _QueryRun, stats: BatchStats) -> None:
        """Run one scheduling step for ``run``: select, score, merge."""
        selected = run.select_wave()
        if not selected:
            run.finalize_tail()
            return
        outcomes = run.scan.plan.score_chunks(selected)
        stats.waves += 1
        run.merge_wave(selected, outcomes, stats)
        if not run.done and len(selected) < run.wave:
            # The lookahead hit a stop rule before filling the wave;
            # merging only strengthened it, so the tail drains now.
            run.finalize_tail()
        run.wave = min(run.wave * 2, self.max_wave)

    def execute(self, queries: Sequence[Query]) -> List[ExecutionResult]:
        """Execute ``queries`` as one batch, returning per-query results
        in input order — each bit-identical to sequential execution."""
        stats = BatchStats(queries=len(queries))
        runs = [self._start(query) for query in queries]
        active = [run for run in runs if not run.done]
        while active:
            for run in active:
                self._advance(run, stats)
            active = [run for run in active if not run.done]
        results = [run.result() for run in runs]
        for run in runs:
            stats.chunks_evaluated += run.scan.chunks_evaluated
            stats.chunks_skipped += run.scan.chunks_skipped
        self.last_stats = stats
        return results

    def execute_one(self, query: Query) -> ExecutionResult:
        """Execute a single query through the batched kernel (the unit of
        work the real-thread batch validation mode claims per thread)."""
        stats = BatchStats(queries=1)
        run = self._start(query)
        while not run.done:
            self._advance(run, stats)
        return run.result()

    def __repr__(self) -> str:
        return (
            f"BatchExecutor(index={self.index!r}, "
            f"initial_wave={self.initial_wave}, max_wave={self.max_wave})"
        )
