"""Differential tests: the engine vs the brute-force reference searcher."""

import numpy as np
import pytest

from repro.engine.executor import Engine, EngineConfig
from repro.engine.query import MatchMode, Query
from repro.engine.reference import brute_force_search
from repro.engine.termination import TerminationConfig
from repro.workloads.queries import QueryGenerator, QueryWorkloadConfig


@pytest.fixture(scope="module")
def exhaustive_tiny_engine(tiny_index):
    return Engine(
        tiny_index,
        EngineConfig(
            termination=TerminationConfig(match_budget=None, use_score_bound=False)
        ),
    )


@pytest.fixture(scope="module")
def safe_tiny_engine(tiny_index):
    return Engine(
        tiny_index,
        EngineConfig(
            termination=TerminationConfig(match_budget=None, use_score_bound=True)
        ),
    )


@pytest.fixture(scope="module")
def tiny_queries(tiny_index):
    generator = QueryGenerator(
        QueryWorkloadConfig(vocab_size=tiny_index.lexicon.vocab_size, seed=17)
    )
    return generator.sample_many(40)


class TestEngineMatchesBruteForce:
    def test_exhaustive_engine_equals_reference(
        self, exhaustive_tiny_engine, tiny_index, tiny_queries
    ):
        for query in tiny_queries:
            expected = brute_force_search(tiny_index, query)
            result = exhaustive_tiny_engine.execute(query, 1)
            assert result.doc_ids == [d for d, _ in expected]
            assert np.allclose(result.scores, [s for _, s in expected])

    def test_safe_termination_equals_reference(
        self, safe_tiny_engine, tiny_index, tiny_queries
    ):
        for query in tiny_queries:
            expected = brute_force_search(tiny_index, query)
            result = safe_tiny_engine.execute(query, 1)
            assert result.doc_ids == [d for d, _ in expected]

    def test_parallel_exhaustive_equals_reference(
        self, exhaustive_tiny_engine, tiny_index, tiny_queries
    ):
        for query in tiny_queries[:15]:
            expected = brute_force_search(tiny_index, query)
            result = exhaustive_tiny_engine.execute(query, 4)
            assert result.doc_ids == [d for d, _ in expected]

    def test_batched_executor_equals_reference(
        self, exhaustive_tiny_engine, tiny_index, tiny_queries
    ):
        results = exhaustive_tiny_engine.execute_batch(tiny_queries)
        for query, result in zip(tiny_queries, results):
            expected = brute_force_search(tiny_index, query)
            assert result.doc_ids == [d for d, _ in expected]
            assert np.allclose(result.scores, [s for _, s in expected])

    def test_disjunctive_mode(self, tiny_index, tiny_queries):
        engine = Engine(
            tiny_index,
            EngineConfig(
                termination=TerminationConfig(
                    match_budget=None, use_score_bound=False
                )
            ),
        )
        for base in tiny_queries[:10]:
            query = Query(term_ids=base.term_ids, k=base.k, mode=MatchMode.ANY)
            expected = brute_force_search(tiny_index, query)
            result = engine.execute(query, 1)
            assert result.doc_ids == [d for d, _ in expected]

    def test_budget_results_are_prefix_quality(
        self, tiny_index, tiny_queries
    ):
        """Approximate termination returns docs that are *valid matches*
        with correct scores, even if not the global top-k."""
        engine = Engine(
            tiny_index,
            EngineConfig(termination=TerminationConfig(match_budget=32)),
        )
        for query in tiny_queries[:15]:
            exhaustive = dict(
                brute_force_search(
                    tiny_index, Query(term_ids=query.term_ids, k=10**9,
                                      mode=query.mode)
                )
            )
            result = engine.execute(query, 1)
            for ranked in result.results:
                assert ranked.doc_id in exhaustive
                assert ranked.score == pytest.approx(exhaustive[ranked.doc_id])

    def test_missing_term_conjunctive_empty(self, tiny_index):
        query = Query.of([tiny_index.lexicon.vocab_size + 1, 0])
        assert brute_force_search(tiny_index, query) == []
