"""Tests for corpus generation and containers."""

import numpy as np
import pytest

from repro.corpus.documents import Corpus
from repro.corpus.generator import (
    MAX_DOC_LENGTH,
    MIN_DOC_LENGTH,
    CorpusConfig,
    generate_corpus,
)
from repro.corpus.stats import corpus_stats
from repro.errors import CorpusError


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(
        CorpusConfig(n_docs=600, vocab_size=900, mean_doc_length=90, seed=5)
    )


class TestGenerator:
    def test_shapes(self, corpus):
        assert corpus.n_docs == 600
        assert corpus.offsets.shape == (601,)
        assert corpus.terms.shape == corpus.freqs.shape

    def test_reproducible(self):
        config = CorpusConfig(n_docs=50, vocab_size=100, seed=3)
        a = generate_corpus(config)
        b = generate_corpus(config)
        assert np.array_equal(a.terms, b.terms)
        assert np.array_equal(a.freqs, b.freqs)
        assert np.array_equal(a.static_ranks, b.static_ranks)

    def test_doc_lengths_respect_bounds(self, corpus):
        assert corpus.doc_lengths.min() >= MIN_DOC_LENGTH
        assert corpus.doc_lengths.max() <= MAX_DOC_LENGTH

    def test_mean_length_near_target(self):
        c = generate_corpus(CorpusConfig(n_docs=4000, vocab_size=500,
                                         mean_doc_length=150, seed=1))
        assert abs(c.average_doc_length - 150) / 150 < 0.1

    def test_static_ranks_descending(self, corpus):
        assert np.all(np.diff(corpus.static_ranks) <= 1e-12)
        assert corpus.static_ranks.min() > 0

    def test_freqs_sum_to_doc_length(self, corpus):
        for doc_id in (0, 10, 599):
            doc = corpus.document(doc_id)
            assert doc.term_freqs.sum() == doc.length

    def test_terms_sorted_within_doc(self, corpus):
        for doc_id in (0, 42, 300):
            doc = corpus.document(doc_id)
            assert np.all(np.diff(doc.term_ids) > 0)

    def test_batching_does_not_change_output(self):
        config = CorpusConfig(n_docs=100, vocab_size=300, seed=9)
        small_batches = generate_corpus(config, batch_docs=7)
        one_batch = generate_corpus(config, batch_docs=1000)
        # Different batching consumes RNG differently, so only the
        # structure is comparable; both must be valid corpora.
        assert small_batches.n_docs == one_batch.n_docs
        for c in (small_batches, one_batch):
            assert int(c.offsets[-1]) == c.n_postings

    def test_popular_terms_have_long_posting_lists(self, corpus):
        df = corpus.document_frequencies()
        assert df[:20].mean() > df[-200:].mean()

    def test_bad_config_rejected(self):
        with pytest.raises(Exception):
            CorpusConfig(n_docs=0)
        with pytest.raises(Exception):
            CorpusConfig(mean_doc_length=-5)
        with pytest.raises(Exception):
            CorpusConfig(mean_doc_length=MIN_DOC_LENGTH - 1)


class TestCorpusContainer:
    def test_document_view(self, corpus):
        doc = corpus.document(3)
        assert doc.doc_id == 3
        assert doc.term_ids.shape == doc.term_freqs.shape

    def test_term_frequency_lookup(self, corpus):
        doc = corpus.document(5)
        term = int(doc.term_ids[0])
        assert doc.term_frequency(term) == int(doc.term_freqs[0])
        absent = corpus.vocab_size - 1
        if absent not in set(doc.term_ids.tolist()):
            assert doc.term_frequency(absent) == 0

    def test_out_of_range_doc_rejected(self, corpus):
        with pytest.raises(CorpusError):
            corpus.document(corpus.n_docs)

    def test_iteration_matches_len(self, corpus):
        count = sum(1 for _ in corpus)
        assert count == len(corpus) == corpus.n_docs

    def test_invalid_construction_rejected(self):
        with pytest.raises(CorpusError):
            Corpus(
                doc_lengths=np.asarray([3, 4]),
                static_ranks=np.asarray([0.2, 0.9]),  # increasing: invalid
                offsets=np.asarray([0, 1, 2]),
                terms=np.asarray([0, 1]),
                freqs=np.asarray([3, 4]),
                vocab_size=5,
            )

    def test_offsets_mismatch_rejected(self):
        with pytest.raises(CorpusError):
            Corpus(
                doc_lengths=np.asarray([3]),
                static_ranks=np.asarray([0.5]),
                offsets=np.asarray([0, 2]),
                terms=np.asarray([0]),
                freqs=np.asarray([3]),
                vocab_size=5,
            )


class TestCorpusStats:
    def test_stats_consistency(self, corpus):
        stats = corpus_stats(corpus)
        assert stats.n_docs == corpus.n_docs
        assert stats.n_postings == corpus.n_postings
        assert 0 < stats.top10_posting_share < 1
        assert stats.mean_posting_list > 0

    def test_stats_table_renders(self, corpus):
        table = corpus_stats(corpus).to_table()
        assert "documents" in table.render()
