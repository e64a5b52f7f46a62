"""Tests for ExecutionResult accounting and the ChunkTrace cache."""

import pytest

from repro.engine.query import Query
from repro.engine.results import ExecutionResult, RankedDocument, make_ranked
from repro.engine.trace import FIRST_WAVE
from repro.errors import ExecutionError


class TestRankedResults:
    def test_make_ranked_assigns_ranks(self):
        ranked = make_ranked([(5, 2.0), (3, 1.0)])
        assert [r.rank for r in ranked] == [1, 2]
        assert ranked[0] == RankedDocument(doc_id=5, score=2.0, rank=1)

    def _result(self, latency, cpu, degree=2):
        return ExecutionResult(
            query=Query.of([1]),
            degree=degree,
            results=make_ranked([(1, 1.0)]),
            latency=latency,
            cpu_time=cpu,
            chunks_evaluated=3,
            postings_scanned=10,
            docs_matched=2,
            terminated_early=False,
            termination_rule="exhausted",
        )

    def test_accessors(self):
        result = self._result(1.0, 1.0)
        assert result.doc_ids == [1]
        assert result.scores == [1.0]
        assert result.n_results == 1


class TestChunkTrace:
    def test_caches_chunk_evaluations(self, small_engine, sample_queries):
        query = next(q for q in sample_queries
                     if small_engine.plan(q).n_candidate_chunks >= 3)
        trace = small_engine.trace(query)
        assert trace.n_evaluated == 0
        first = trace.get(0)
        # A miss scores the whole block it falls in, not one chunk.
        assert trace.n_evaluated == min(FIRST_WAVE, trace.n_positions)
        assert trace.get(0) is first
        assert trace.n_evaluated == min(FIRST_WAVE, trace.n_positions)

    def test_out_of_range_position_is_a_typed_error(
        self, small_engine, sample_queries
    ):
        trace = small_engine.trace(sample_queries[0])
        assert trace.n_positions > 0
        for bad in (-1, trace.n_positions, trace.n_positions + 500):
            with pytest.raises(ExecutionError):
                trace.get(bad)
        assert trace.n_evaluated == 0

    def test_empty_plan_has_no_positions(self, small_engine):
        missing = small_engine.index.lexicon.vocab_size + 7  # never indexed
        trace = small_engine.trace(Query.of([missing]))
        assert trace.n_positions == 0
        with pytest.raises(ExecutionError):
            trace.get(0)
        result = small_engine.execute_trace(trace, 1)
        assert result.results == () and result.chunks_evaluated == 0
        assert trace.n_evaluated == 0

    def test_shared_trace_across_degrees_limits_work(
        self, small_engine, sample_queries
    ):
        query = sample_queries[0]
        trace = small_engine.trace(query)
        small_engine.execute_trace(trace, 1)
        evaluated_after_sequential = trace.n_evaluated
        small_engine.execute_trace(trace, 4)
        # Degree 4 may claim a few extra (waste) chunks but re-uses all
        # sequentially evaluated ones.
        assert trace.n_evaluated >= evaluated_after_sequential
        assert trace.n_evaluated <= trace.n_positions

    def test_cost_matches_cost_model(self, small_engine, sample_queries):
        query = sample_queries[1]
        trace = small_engine.trace(query)
        if trace.n_positions == 0:
            pytest.skip("query matched nothing")
        outcome, cost = trace.get(0)
        assert cost == pytest.approx(
            small_engine.config.cost_model.chunk_time(outcome)
        )


class TestChunkTraceStats:
    """``n_evaluated`` counts chunks *scored*, speculative ones included."""

    @staticmethod
    def _spy_on_kernel(trace, monkeypatch):
        """Record every position the trace hands the scoring kernel."""
        scored = []
        score_chunks = trace.plan.score_chunks

        def recording(positions):
            scored.extend(positions)
            return score_chunks(positions)

        monkeypatch.setattr(trace.plan, "score_chunks", recording)
        return scored

    def test_repeated_get_evaluates_once(
        self, small_engine, sample_queries, monkeypatch
    ):
        query = next(q for q in sample_queries
                     if small_engine.plan(q).n_candidate_chunks > FIRST_WAVE)
        trace = small_engine.trace(query)
        scored = self._spy_on_kernel(trace, monkeypatch)
        assert trace.n_evaluated == 0
        first = trace.get(0)
        assert scored == list(range(FIRST_WAVE))
        assert trace.n_evaluated == FIRST_WAVE
        # The block's other positions are hits too: nothing is scored.
        entries = [trace.get(position) for position in range(FIRST_WAVE)]
        assert entries[0] is first
        for position, entry in enumerate(entries):
            assert trace.get(position) is entry
        assert len(scored) == trace.n_evaluated == FIRST_WAVE
        # The first position past it misses, and scores the next block.
        trace.get(FIRST_WAVE)
        assert scored == list(range(trace.n_evaluated))
        assert FIRST_WAVE < trace.n_evaluated <= trace.n_positions

    def test_shared_trace_hits_across_degrees(
        self, small_engine, sample_queries, monkeypatch
    ):
        trace = small_engine.trace(sample_queries[2])
        scored = self._spy_on_kernel(trace, monkeypatch)
        sequential = small_engine.execute_trace(trace, 1)
        assert 0 < sequential.chunks_evaluated <= trace.n_evaluated
        after_sequential = list(scored)
        parallel = small_engine.execute_trace(trace, 4)
        # The second execution re-reads every block the first one scored
        # from the memo: the kernel sees each position at most once over
        # both runs, and only positions past what the trace already held.
        assert parallel.chunks_evaluated >= sequential.chunks_evaluated
        assert parallel.chunks_evaluated <= trace.n_evaluated <= trace.n_positions
        assert scored[: len(after_sequential)] == after_sequential
        assert scored == sorted(set(scored))
        assert len(scored) == trace.n_evaluated
