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
from repro.engine.query import Query
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
        queries = list(sample_queries[:30])
        queries.append(Query.of([vocab - 1], k=5))  # likely absent
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


def _assert_cut_is_reference(plan, columns, i, position):
    """Position ``i`` of a ``score_chunks`` result is, bit for bit, what
    the reference scorer gives for ``position`` on its own."""
    single = plan.score_chunk(position)
    lo, hi = columns.cuts[i], columns.cuts[i + 1]
    assert np.array_equal(columns.doc_ids[lo:hi], single.doc_ids)
    assert columns.scores[lo:hi].tolist() == single.scores.tolist()
    assert columns.postings_scanned[i] == single.postings_scanned
    assert hi - lo == single.n_matched


class TestScoreChunksKernel:
    def test_bit_identical_to_per_chunk(self, small_engine, small_workbench):
        generator = small_workbench.query_generator("batch-kernel")
        plan = max(
            (small_engine.plan(q) for q in generator.sample_many(20)),
            key=lambda p: p.n_candidate_chunks,
        )
        assert plan.n_candidate_chunks >= 2, "need a multi-chunk plan"
        positions = list(range(plan.n_candidate_chunks))
        columns = plan.score_chunks(positions)
        assert len(columns.cuts) == len(positions) + 1
        assert columns.cuts[0] == 0 and columns.cuts[-1] == len(columns.doc_ids)
        assert len(columns.scores) == len(columns.doc_ids)
        for i, position in enumerate(positions):
            _assert_cut_is_reference(plan, columns, i, position)

    def test_subset_and_stride_selections(self, small_engine, sample_queries):
        plan = max(
            (small_engine.plan(q) for q in sample_queries),
            key=lambda p: p.n_candidate_chunks,
        )
        positions = list(range(0, plan.n_candidate_chunks, 2))
        columns = plan.score_chunks(positions)
        for i, position in enumerate(positions):
            _assert_cut_is_reference(plan, columns, i, position)

    def test_empty_and_singleton(self, small_engine, sample_queries):
        plan = small_engine.plan(sample_queries[0])
        empty = plan.score_chunks([])
        assert (empty.cuts, empty.postings_scanned) == ([0], [])
        assert empty.doc_ids.shape == empty.scores.shape == (0,)
        if plan.n_candidate_chunks:
            _assert_cut_is_reference(plan, plan.score_chunks([0]), 0, 0)

    def test_range_and_equal_list_give_identical_columns(
        self, small_engine, sample_queries
    ):
        # A unit-step range is sliced, a list gathered: one-term and
        # multi-term plans take different kernel branches, so cover both.
        plans = [small_engine.plan(q) for q in sample_queries]
        plans = [p for p in plans if p.n_candidate_chunks]
        assert {len(p.posting_lists) == 1 for p in plans} == {True, False}
        for plan in plans:
            n = plan.n_candidate_chunks
            for lo, hi in ((0, n), (n // 3, n), (0, (n + 1) // 2), (n - 1, n)):
                sliced = plan.score_chunks(range(lo, hi))
                gathered = plan.score_chunks(list(range(lo, hi)))
                assert np.array_equal(sliced.doc_ids, gathered.doc_ids)
                assert sliced.scores.tolist() == gathered.scores.tolist()
                assert sliced.cuts == gathered.cuts
                assert sliced.postings_scanned == gathered.postings_scanned

    def test_range_outside_the_plan_raises(self, small_engine, sample_queries):
        plan = max(
            (small_engine.plan(q) for q in sample_queries),
            key=lambda p: p.n_candidate_chunks,
        )
        n = plan.n_candidate_chunks
        for bad in (range(-1, 2), range(0, n + 1), range(n, n + 1)):
            with pytest.raises(ExecutionError):
                plan.score_chunks(bad)

    def test_empty_range_returns_the_empty_columns(
        self, small_engine, sample_queries
    ):
        plan = small_engine.plan(sample_queries[0])
        for empty in (range(0), range(3, 3), range(5, 2)):
            columns = plan.score_chunks(empty)
            assert (columns.cuts, columns.postings_scanned) == ([0], [])
            assert columns.doc_ids.shape == columns.scores.shape == (0,)
            assert columns.doc_ids.dtype == np.int64
            assert columns.scores.dtype == np.float64

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
            Query.of(present, k=5),
            Query.of([terms[1]], k=5),
            Query.of([present[0]], k=5),
        ]
        results = sparse_engine.execute_batch(queries)
        assert results == [sparse_engine.execute(query, 1) for query in queries]
        assert results[1].n_results > 0
