"""Tests for corpus generation and containers."""

import numpy as np
import pytest

from repro.corpus import generator
from repro.corpus.documents import Corpus
from repro.corpus.generator import (
    MAX_DOC_LENGTH,
    MIN_DOC_LENGTH,
    CorpusConfig,
    generate_corpus,
)
from repro.corpus.stats import corpus_stats
from repro.errors import ConfigurationError, CorpusError


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

    def test_batching_does_not_change_output(self, monkeypatch):
        config = CorpusConfig(n_docs=100, vocab_size=300, seed=9)
        monkeypatch.setattr(generator, "BATCH_DOCS", 7)
        small_batches = generate_corpus(config)
        monkeypatch.setattr(generator, "BATCH_DOCS", 1000)
        one_batch = generate_corpus(config)
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


def _lexsort_reduce_batch(tokens, lengths, vocab_size):
    """The generator's batch reduction as one ``lexsort`` over (doc,
    term) pairs, as it was before the packed key: the oracle."""
    doc_of_token = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)
    order = np.lexsort((tokens, doc_of_token))
    sorted_docs = doc_of_token[order]
    sorted_tokens = tokens[order]
    is_run_start = np.empty(sorted_tokens.shape[0], dtype=bool)
    if is_run_start.size:
        is_run_start[0] = True
        is_run_start[1:] = (sorted_tokens[1:] != sorted_tokens[:-1]) | (
            sorted_docs[1:] != sorted_docs[:-1]
        )
    run_starts = np.nonzero(is_run_start)[0]
    run_ends = np.append(run_starts[1:], sorted_tokens.shape[0])
    postings_per_doc = np.zeros(lengths.shape[0], dtype=np.int64)
    np.add.at(postings_per_doc, sorted_docs[run_starts], 1)
    return sorted_tokens[run_starts], run_ends - run_starts, postings_per_doc


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def corpus_arrays(corpus):
    return (
        corpus.doc_lengths,
        corpus.static_ranks,
        corpus.offsets,
        corpus.terms,
        corpus.freqs,
    )


class TestOneIntegerSort:
    """The generator sorts one packed int64 key per batch and gives
    exactly the arrays the two-key ``lexsort`` gave."""

    def generate_both(self, monkeypatch, config):
        packed = generate_corpus(config)
        monkeypatch.setattr(generator, "_reduce_batch", _lexsort_reduce_batch)
        return packed, generate_corpus(config)

    @pytest.mark.parametrize(
        "config",
        [
            CorpusConfig(n_docs=800, vocab_size=1_500, mean_doc_length=120, seed=11),
            CorpusConfig(n_docs=50, vocab_size=1, seed=4),
        ],
        ids=["tiny_corpus", "vocab_size_1"],
    )
    def test_equals_lexsort(self, monkeypatch, config):
        packed, oracle = self.generate_both(monkeypatch, config)
        assert_same_arrays(corpus_arrays(packed), corpus_arrays(oracle))

    def test_equals_lexsort_across_many_batches(self, monkeypatch):
        monkeypatch.setattr(generator, "BATCH_DOCS", 7)
        packed, oracle = self.generate_both(
            monkeypatch, CorpusConfig(n_docs=100, vocab_size=300, seed=9)
        )
        assert_same_arrays(corpus_arrays(packed), corpus_arrays(oracle))

    @pytest.mark.parametrize(
        "tokens, lengths",
        [
            ([2, 7, 2, 4, 4, 4, 4, 4, 0, 9, 9], [3, 5, 3]),  # doc 1 is all term 4
            ([5, 5, 5], [3]),
            ([1, 0], [0, 2, 0]),
            ([], [0, 0]),
            ([], []),
        ],
        ids=["one_term_doc", "one_doc_one_term", "empty_docs", "no_tokens", "no_docs"],
    )
    def test_batch_reduction_equals_lexsort(self, tokens, lengths):
        tokens = np.asarray(tokens, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        assert_same_arrays(
            generator._reduce_batch(tokens, lengths, 10),
            _lexsort_reduce_batch(tokens, lengths, 10),
        )

    def test_vocab_size_must_fit_the_key(self):
        largest = int(np.iinfo(np.int64).max) // generator.BATCH_DOCS
        assert CorpusConfig(vocab_size=largest).vocab_size == largest
        with pytest.raises(ConfigurationError, match="int64 sort key"):
            CorpusConfig(vocab_size=largest + 1)


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
