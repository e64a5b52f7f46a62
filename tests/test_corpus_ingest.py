"""Tests for ingesting real text documents."""

import numpy as np
import pytest

from repro.corpus.ingest import ingest_documents, parse_query
from repro.engine.executor import Engine
from repro.errors import CorpusError, QueryError
from repro.index.builder import IndexConfig, build_index

DOCS = [
    ("Adaptive parallelism for web search reduces tail latency", 0.95),
    ("Web search engines scan inverted indexes on many cores", 0.80),
    ("Parallel query execution wastes work under early termination", 0.60),
    ("Latency critical services run at low utilization", 0.40),
    ("Tail latency dominates the service level objective", 0.75),
]


@pytest.fixture(scope="module")
def ingested():
    return ingest_documents(DOCS)


class TestIngest:
    def test_doc_count_and_order(self, ingested):
        corpus, _ = ingested
        assert corpus.n_docs == len(DOCS)
        # Doc 0 must be the highest-ranked input (rank 0.95).
        assert np.all(np.diff(corpus.static_ranks) <= 1e-12)

    def test_static_ranks_normalized(self, ingested):
        corpus, _ = ingested
        assert corpus.static_ranks.max() <= 1.0
        assert corpus.static_ranks.min() > 0.0

    def test_vocabulary_roundtrip(self, ingested):
        _, vocabulary = ingested
        term_id = vocabulary.id_for("latency")
        assert term_id is not None
        assert vocabulary.word(term_id) == "latency"
        assert "latency" in vocabulary

    def test_stopwords_removed(self, ingested):
        _, vocabulary = ingested
        assert "the" not in vocabulary
        assert "for" not in vocabulary

    def test_doc_lengths_count_tokens(self, ingested):
        corpus, _ = ingested
        assert corpus.doc_lengths.min() >= 4

    def test_empty_document_rejected(self):
        with pytest.raises(CorpusError):
            ingest_documents([("the and of", 1.0)])  # all stopwords

    def test_no_documents_rejected(self):
        with pytest.raises(CorpusError):
            ingest_documents([])

    def test_bad_pair_rejected(self):
        with pytest.raises(CorpusError):
            ingest_documents(["just a string"])

    def test_equal_ranks_allowed(self):
        corpus, _ = ingest_documents([("alpha beta", 1.0), ("gamma delta", 1.0)])
        assert corpus.n_docs == 2
        assert np.all(corpus.static_ranks > 0)


class TestEndToEndSearch:
    def test_search_own_documents(self, ingested):
        corpus, vocabulary = ingested
        index = build_index(corpus, IndexConfig(chunk_size=4))
        engine = Engine(index)
        query = parse_query("tail latency", vocabulary)
        result = engine.execute(query, degree=1)
        assert result.n_results >= 1
        # Both matching docs contain "tail" and "latency"; top hits must.
        top_doc = corpus.document(result.results[0].doc_id)
        tail_id = vocabulary.id_for("tail")
        latency_id = vocabulary.id_for("latency")
        assert top_doc.term_frequency(tail_id) > 0
        assert top_doc.term_frequency(latency_id) > 0

    def test_parallel_search_same_results(self, ingested):
        corpus, vocabulary = ingested
        index = build_index(corpus, IndexConfig(chunk_size=2))
        engine = Engine(index)
        query = parse_query("web search", vocabulary)
        assert engine.execute(query, 1).doc_ids == engine.execute(query, 3).doc_ids

    def test_unknown_words_dropped(self, ingested):
        _, vocabulary = ingested
        query = parse_query("latency zzzzz", vocabulary)
        assert query.n_terms == 1

    def test_all_unknown_rejected(self, ingested):
        _, vocabulary = ingested
        with pytest.raises(QueryError):
            parse_query("zzzzz qqqqq", vocabulary)
