"""Batch execution and the multi-chunk kernel.

``execute_batch`` is the sequential driver once per query: for every
termination configuration each result — documents, scores, virtual
latency, work counters, fired rule — must equal
``engine.execute(query, 1)`` as a whole dataclass. These tests pin that
across the rule matrix, ``BatchStats`` against a spy on the kernel, the
kernel against the per-chunk reference scorer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.batch import BatchExecutor, BatchStats
from repro.engine.executor import Engine, EngineConfig
from repro.engine.plan import QueryPlan
from repro.engine.query import MatchMode, Query
from repro.engine.termination import TerminationConfig
from repro.errors import ExecutionError

TERMINATION_MATRIX = {
    "default": TerminationConfig(),
    "exhaustive": TerminationConfig(match_budget=None, use_score_bound=False),
    "bound_only": TerminationConfig(match_budget=None, use_score_bound=True),
    "budget_only": TerminationConfig(match_budget=64, use_score_bound=False),
    "budget_3": TerminationConfig(match_budget=3),
}


def _engine(workbench, termination):
    return Engine(workbench.index, EngineConfig(termination=termination))


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Number of positions of every ``QueryPlan.score_chunks`` call."""
    calls = []
    score_chunks = QueryPlan.score_chunks

    def spy(plan, positions):
        calls.append(len(positions))
        return score_chunks(plan, positions)

    monkeypatch.setattr(QueryPlan, "score_chunks", spy)
    return calls


class TestBatchExecutorEquivalence:
    @pytest.mark.parametrize("name", sorted(TERMINATION_MATRIX))
    def test_bit_identical_to_sequential(
        self, small_workbench, sample_queries, name
    ):
        engine = _engine(small_workbench, TERMINATION_MATRIX[name])
        vocab = small_workbench.index.lexicon.vocab_size
        for mode in MatchMode:
            queries = [
                Query.of(q.term_ids, k=q.k, mode=mode) for q in sample_queries[:30]
            ]
            queries.append(Query.of([vocab - 1], k=5, mode=mode))  # likely absent
            for batch in ([], queries[:1], queries):
                assert engine.execute_batch(batch) == [
                    engine.execute(query, 1) for query in batch
                ]

    def test_last_stats_accounting(
        self, small_workbench, sample_queries, kernel_calls
    ):
        queries = sample_queries[:20]
        for name in ("default", "exhaustive"):
            engine = _engine(small_workbench, TERMINATION_MATRIX[name])
            executor = engine.batch_executor()
            kernel_calls.clear()
            results = executor.execute(queries)
            stats = executor.last_stats
            assert stats.queries == 20
            assert stats.waves == len(kernel_calls) >= 1
            assert stats.chunks_evaluated == sum(r.chunks_evaluated for r in results)
            assert (
                stats.chunks_evaluated + stats.chunks_speculative == sum(kernel_calls)
            )

    def test_results_in_input_order(self, small_engine, sample_queries):
        queries = sample_queries[:12]
        results = small_engine.execute_batch(queries)
        assert [r.query for r in results] == list(queries)

    def test_empty_batch(self, small_engine):
        assert small_engine.execute_batch([]) == []

    def test_empty_query_in_batch(self, small_engine, small_workbench):
        vocab = small_workbench.index.lexicon.vocab_size
        queries = [Query.of([vocab - 1], k=5)]  # likely absent term
        results = small_engine.execute_batch(queries)
        assert len(results) == 1

    def test_default_stats(self, small_workbench):
        executor = BatchExecutor(small_workbench.index)
        assert executor.last_stats == BatchStats()


class TestScoreChunksKernel:
    @pytest.mark.parametrize("mode", [MatchMode.ALL, MatchMode.ANY])
    def test_bit_identical_to_per_chunk(self, small_engine, small_workbench, mode):
        generator = small_workbench.query_generator("batch-kernel")
        queries = [
            Query.of(q.term_ids, k=q.k, mode=mode)
            for q in generator.sample_many(20)
        ]
        plan = max(
            (small_engine.plan(q) for q in queries),
            key=lambda p: p.n_candidate_chunks,
        )
        assert plan.n_candidate_chunks >= 2, "need a multi-chunk plan"
        positions = list(range(plan.n_candidate_chunks))
        batched = plan.score_chunks(positions)
        for position, outcome in zip(positions, batched):
            single = plan.score_chunk(position)
            assert outcome.chunk_id == single.chunk_id
            assert np.array_equal(outcome.doc_ids, single.doc_ids)
            assert list(outcome.scores) == list(single.scores)
            assert outcome.postings_scanned == single.postings_scanned
            assert outcome.n_matched == single.n_matched

    def test_subset_and_stride_selections(self, small_engine, sample_queries):
        plan = max(
            (small_engine.plan(q) for q in sample_queries),
            key=lambda p: p.n_candidate_chunks,
        )
        positions = list(range(0, plan.n_candidate_chunks, 2))
        for outcome, position in zip(plan.score_chunks(positions), positions):
            single = plan.score_chunk(position)
            assert np.array_equal(outcome.doc_ids, single.doc_ids)
            assert list(outcome.scores) == list(single.scores)

    def test_empty_and_singleton(self, small_engine, sample_queries):
        plan = small_engine.plan(sample_queries[0])
        assert plan.score_chunks([]) == []
        if plan.n_candidate_chunks:
            [outcome] = plan.score_chunks([0])
            single = plan.score_chunk(0)
            assert np.array_equal(outcome.doc_ids, single.doc_ids)

    def test_rejects_bad_positions(self, small_engine, sample_queries):
        plan = max(
            (small_engine.plan(q) for q in sample_queries),
            key=lambda p: p.n_candidate_chunks,
        )
        with pytest.raises(ExecutionError):
            plan.score_chunks([1, 0])  # not ascending
        with pytest.raises(ExecutionError):
            plan.score_chunks([0, 0])  # not strictly ascending
        with pytest.raises(ExecutionError):
            plan.score_chunks([0, plan.n_candidate_chunks])  # out of range
        with pytest.raises(ExecutionError):
            plan.score_chunks([-1, 0])


class TestBatchEdgeCases:
    """Degenerate batch shapes stay bit-identical to per-query runs."""

    def test_empty_batch_returns_empty_and_no_stats(self, small_engine):
        executor = small_engine.batch_executor()
        assert executor.execute([]) == []
        assert executor.last_stats == BatchStats(queries=0, waves=0)

    def test_single_query_batch_bit_identical(
        self, small_workbench, sample_queries
    ):
        for name in sorted(TERMINATION_MATRIX):
            engine = _engine(small_workbench, TERMINATION_MATRIX[name])
            query = sample_queries[0]
            assert engine.execute_batch([query]) == [engine.execute(query, 1)]

    @pytest.fixture(scope="class")
    def sparse_engine(self):
        # A corpus that uses a sliver of its vocabulary: most term ids
        # have no postings, so queries over them produce zero candidate
        # chunks.
        from repro.corpus.generator import CorpusConfig, generate_corpus
        from repro.index.builder import IndexConfig, build_index

        corpus = generate_corpus(
            CorpusConfig(n_docs=60, vocab_size=8_000, mean_doc_length=40,
                         seed=5)
        )
        return Engine(build_index(corpus, IndexConfig(chunk_size=16)))

    def _absent_terms(self, engine, n):
        df = engine.index.lexicon.document_frequencies()
        absent = np.nonzero(df == 0)[0]
        assert len(absent) >= n, "corpus unexpectedly uses the whole vocab"
        return [int(t) for t in absent[:n]]

    def test_all_queries_stop_before_any_scoring(self, sparse_engine, kernel_calls):
        # Every query's terms are absent from the index: zero candidate
        # chunks, so each run finishes without a single kernel call —
        # and must still report the exact per-query outcome.
        terms = self._absent_terms(sparse_engine, 4)
        queries = [Query.of([t], k=5) for t in terms]
        executor = sparse_engine.batch_executor()
        results = executor.execute(queries)
        assert results == [sparse_engine.execute(query, 1) for query in queries]
        assert all(r.n_results == 0 and r.chunks_evaluated == 0 for r in results)
        assert kernel_calls == []
        assert executor.last_stats == BatchStats(queries=len(queries))

    def test_mixed_absent_and_present_queries(self, sparse_engine):
        terms = self._absent_terms(sparse_engine, 2)
        present = [
            int(t) for t in np.nonzero(
                sparse_engine.index.lexicon.document_frequencies() > 0
            )[0][:2]
        ]
        queries = [
            Query.of([terms[0]], k=5),
            Query.of(present, k=5, mode=MatchMode.ANY),
            Query.of([terms[1]], k=5),
            Query.of([present[0]], k=5),
        ]
        results = sparse_engine.execute_batch(queries)
        assert results == [sparse_engine.execute(query, 1) for query in queries]
        assert any(r.n_results > 0 for r in results)
