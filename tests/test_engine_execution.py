"""Execution-level invariants: sequential, parallel, termination.

These encode DESIGN.md §5: the correctness contract between the two
executors and the termination rules.
"""

import numpy as np
import pytest

from repro.engine.cost import CostModel
from repro.engine.executor import Engine, EngineConfig
from repro.engine.query import Query
from repro.engine.termination import TerminationConfig
from repro.errors import ExecutionError

DEGREES = (2, 3, 4, 8)


@pytest.fixture(scope="module")
def exhaustive_engine(small_workbench):
    """Engine with all early termination disabled (exhaustive scans)."""
    config = EngineConfig(
        termination=TerminationConfig(match_budget=None, use_score_bound=False),
        max_degree=16,
    )
    return Engine(small_workbench.index, config)


@pytest.fixture(scope="module")
def safe_engine(small_workbench):
    """Engine with only the safe score-bound termination."""
    config = EngineConfig(
        termination=TerminationConfig(match_budget=None, use_score_bound=True),
        max_degree=16,
    )
    return Engine(small_workbench.index, config)


@pytest.fixture(scope="module")
def budget_engine(small_workbench):
    """Engine with the production-style match budget."""
    config = EngineConfig(
        termination=TerminationConfig(match_budget=64, use_score_bound=True),
        max_degree=16,
    )
    return Engine(small_workbench.index, config)


class TestSequentialExecution:
    def test_returns_at_most_k(self, budget_engine, sample_queries):
        for query in sample_queries[:20]:
            result = budget_engine.execute(query, 1)
            assert result.n_results <= query.k

    def test_results_sorted_by_score_then_id(self, budget_engine, sample_queries):
        for query in sample_queries[:20]:
            result = budget_engine.execute(query, 1)
            pairs = [(r.score, -r.doc_id) for r in result.results]
            assert pairs == sorted(pairs, reverse=True)

    def test_safe_termination_equals_exhaustive(
        self, safe_engine, exhaustive_engine, sample_queries
    ):
        """The score-bound rule never changes the top-k."""
        for query in sample_queries[:25]:
            safe = safe_engine.execute(query, 1)
            full = exhaustive_engine.execute(query, 1)
            assert safe.doc_ids == full.doc_ids
            assert np.allclose(safe.scores, full.scores)

    def test_safe_termination_saves_work_somewhere(
        self, safe_engine, exhaustive_engine, sample_queries
    ):
        saved = 0
        for query in sample_queries:
            if (
                safe_engine.execute(query, 1).chunks_evaluated
                < exhaustive_engine.execute(query, 1).chunks_evaluated
            ):
                saved += 1
        assert saved > 0, "score-bound termination never fired on 60 queries"

    def test_budget_termination_reduces_work(
        self, budget_engine, exhaustive_engine, sample_queries
    ):
        budget_chunks = sum(
            budget_engine.execute(q, 1).chunks_evaluated for q in sample_queries
        )
        full_chunks = sum(
            exhaustive_engine.execute(q, 1).chunks_evaluated for q in sample_queries
        )
        assert budget_chunks < full_chunks

    def test_cpu_time_equals_latency(self, budget_engine, sample_queries):
        result = budget_engine.execute(sample_queries[0], 1)
        assert result.cpu_time == pytest.approx(result.latency)

    def test_empty_query_result(self, budget_engine, small_workbench):
        missing = small_workbench.corpus.vocab_size + 3  # never indexed
        result = budget_engine.execute(Query.of([missing]), 1)
        assert result.n_results == 0
        assert result.chunks_evaluated == 0


class TestParallelExecution:
    def test_exhaustive_parallel_identical_to_sequential(
        self, exhaustive_engine, sample_queries
    ):
        """With no early termination, every degree returns bit-identical
        results."""
        for query in sample_queries[:15]:
            trace = exhaustive_engine.trace(query)
            sequential = exhaustive_engine.execute_trace(trace, 1)
            for degree in DEGREES:
                parallel = exhaustive_engine.execute_trace(trace, degree)
                assert parallel.doc_ids == sequential.doc_ids
                assert np.allclose(parallel.scores, sequential.scores)

    def test_safe_parallel_identical_to_sequential(self, safe_engine, sample_queries):
        for query in sample_queries[:15]:
            trace = safe_engine.trace(query)
            sequential = safe_engine.execute_trace(trace, 1)
            for degree in DEGREES:
                parallel = safe_engine.execute_trace(trace, degree)
                assert parallel.doc_ids == sequential.doc_ids

    def test_budget_parallel_scores_dominate_sequential(
        self, budget_engine, sample_queries
    ):
        """Approximate termination: parallel evaluates a superset of the
        documents, so its ranked scores are pointwise >= sequential's."""
        for query in sample_queries[:25]:
            trace = budget_engine.trace(query)
            sequential = budget_engine.execute_trace(trace, 1)
            for degree in DEGREES:
                parallel = budget_engine.execute_trace(trace, degree)
                for p_score, s_score in zip(parallel.scores, sequential.scores):
                    assert p_score >= s_score - 1e-12

    def test_parallel_work_at_least_sequential(self, budget_engine, sample_queries):
        for query in sample_queries[:25]:
            trace = budget_engine.trace(query)
            sequential = budget_engine.execute_trace(trace, 1)
            for degree in DEGREES:
                parallel = budget_engine.execute_trace(trace, degree)
                assert parallel.chunks_evaluated >= sequential.chunks_evaluated
                assert parallel.cpu_time >= sequential.cpu_time - 1e-12

    def test_speedup_bounded_by_degree(self, budget_engine, sample_queries):
        for query in sample_queries[:25]:
            trace = budget_engine.trace(query)
            t1 = budget_engine.execute_trace(trace, 1).latency
            for degree in DEGREES:
                tp = budget_engine.execute_trace(trace, degree).latency
                assert t1 / tp <= degree + 1e-9

    def test_deterministic(self, budget_engine, sample_queries):
        query = sample_queries[0]
        a = budget_engine.execute(query, 4)
        b = budget_engine.execute(query, 4)
        assert a.doc_ids == b.doc_ids
        assert a.latency == b.latency
        assert a.cpu_time == b.cpu_time

    def test_worker_busy_reported_per_worker(self, budget_engine, sample_queries):
        result = budget_engine.execute(sample_queries[0], 4)
        assert len(result.worker_busy) == 4

    def test_makespan_at_least_max_worker(self, budget_engine, sample_queries):
        for query in sample_queries[:10]:
            result = budget_engine.execute(query, 4)
            assert result.latency >= max(result.worker_busy) - 1e-12

    def test_invalid_degree_rejected(self, budget_engine, sample_queries):
        with pytest.raises(ExecutionError):
            budget_engine.execute(sample_queries[0], 0)
        with pytest.raises(ExecutionError):
            budget_engine.execute(sample_queries[0], 99)


class TestCostModel:
    def test_fork_join_zero_for_sequential(self):
        cm = CostModel()
        assert cm.fork_time(1) == 0.0
        assert cm.join_time(1) == 0.0
        assert cm.merge_time(1) == 0.0

    def test_fork_scales_with_extra_workers(self):
        cm = CostModel()
        assert cm.fork_time(5) == pytest.approx(4 * cm.fork_cost)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(Exception):
            CostModel(posting_cost=-1.0)

    def test_latency_increases_with_costs(self, small_workbench, sample_queries):
        cheap = Engine(
            small_workbench.index,
            EngineConfig(cost_model=CostModel(posting_cost=1e-9)),
        )
        pricey = Engine(
            small_workbench.index,
            EngineConfig(cost_model=CostModel(posting_cost=1e-6)),
        )
        query = sample_queries[0]
        assert pricey.execute(query, 1).latency > cheap.execute(query, 1).latency
