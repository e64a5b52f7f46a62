"""Tests for the topical corpus model and topic-coherent queries."""

import numpy as np
import pytest

from repro.corpus.generator import CorpusConfig
from repro.corpus.topical import TopicModel, TopicModelConfig, generate_topical_corpus
from repro.engine.query import Query
from repro.text.zipf import ZipfMandelbrot
from repro.workloads.queries import QueryWorkloadConfig
from repro.workloads.topical import TopicalQueryGenerator

CORPUS_CONFIG = CorpusConfig(
    n_docs=1_500, vocab_size=6_000, mean_doc_length=120, seed=31
)
TOPIC_CONFIG = TopicModelConfig(n_topics=12, topic_vocab=400)


@pytest.fixture(scope="module")
def topical():
    return generate_topical_corpus(CORPUS_CONFIG, TOPIC_CONFIG)


class TestTopicModel:
    def test_topic_terms_within_vocab(self, topical):
        _, model = topical
        assert model.topic_terms.min() >= 0
        assert model.topic_terms.max() < CORPUS_CONFIG.vocab_size

    def test_topic_terms_unique_within_topic(self, topical):
        _, model = topical
        for topic in range(model.n_topics):
            terms = model.topic_terms[topic]
            assert np.unique(terms).shape[0] == terms.shape[0]

    def test_sample_topic_terms_come_from_topic(self, topical, rng):
        _, model = topical
        draws = model.sample_topic_terms(3, rng, 200)
        assert set(draws.tolist()) <= set(model.topic_terms[3].tolist())

    def test_document_topics_one_or_two(self, topical, rng):
        _, model = topical
        sizes = {len(model.sample_document_topics(rng)) for _ in range(200)}
        assert sizes <= {1, 2}
        assert 2 in sizes  # TWO_TOPIC_FRACTION 0.3 should appear in 200 draws

    def test_config_validation(self):
        with pytest.raises(Exception):
            TopicModelConfig(n_topics=0)
        with pytest.raises(Exception):
            TopicModel(
                TopicModelConfig(topic_vocab=100),
                vocab_size=50,  # smaller than topic_vocab
                background=ZipfMandelbrot(50),
                rng=np.random.default_rng(0),
            )


class TestTopicalCorpus:
    def test_valid_corpus_structure(self, topical):
        corpus, _ = topical
        assert corpus.n_docs == CORPUS_CONFIG.n_docs
        assert int(corpus.offsets[-1]) == corpus.n_postings
        doc = corpus.document(7)
        assert doc.term_freqs.sum() == doc.length

    def test_reproducible(self):
        a, _ = generate_topical_corpus(CORPUS_CONFIG, TOPIC_CONFIG)
        b, _ = generate_topical_corpus(CORPUS_CONFIG, TOPIC_CONFIG)
        assert np.array_equal(a.terms, b.terms)
        assert np.array_equal(a.freqs, b.freqs)

    def test_cooccurrence_exceeds_independence(self, topical, rng):
        """The point of the model: within-topic term pairs co-occur far
        more often than their popularity product predicts."""
        corpus, model = topical
        df = corpus.document_frequencies()
        n = corpus.n_docs
        ratios = []
        for topic in range(6):
            # Mid-rank topic terms (head terms co-occur trivially).
            t1, t2 = (int(x) for x in model.topic_terms[topic][10:12])
            if df[t1] == 0 or df[t2] == 0:
                continue
            both = 0
            plist1 = set(np.nonzero(_contains(corpus, t1))[0].tolist())
            plist2 = set(np.nonzero(_contains(corpus, t2))[0].tolist())
            both = len(plist1 & plist2)
            expected = df[t1] * df[t2] / n
            if expected > 0:
                ratios.append(both / expected)
        assert ratios, "no measurable pairs"
        assert np.median(ratios) > 2.0, f"co-occurrence lift {ratios}"


def _contains(corpus, term_id):
    """Boolean vector: does each doc contain term_id."""
    out = np.zeros(corpus.n_docs, dtype=bool)
    for doc_id in range(corpus.n_docs):
        start, end = corpus.offsets[doc_id], corpus.offsets[doc_id + 1]
        slice_terms = corpus.terms[start:end]
        idx = np.searchsorted(slice_terms, term_id)
        out[doc_id] = idx < slice_terms.shape[0] and slice_terms[idx] == term_id
    return out


class TestTopicalQueries:
    def test_queries_valid(self, topical):
        _, model = topical
        generator = TopicalQueryGenerator(
            model, QueryWorkloadConfig(vocab_size=CORPUS_CONFIG.vocab_size, seed=2)
        )
        for query in generator.sample_many(100):
            assert isinstance(query, Query)
            assert 1 <= query.n_terms <= 6
            assert all(0 <= t < CORPUS_CONFIG.vocab_size for t in query.term_ids)

    def test_topic_coherence_drives_matching(self, topical):
        """Topic-coherent conjunctive queries find matches much more
        often than queries with the *same term marginals* but broken
        coherence (each term drawn from an independently chosen topic).
        """
        from repro.engine.executor import Engine
        from repro.index.builder import IndexConfig, build_index

        corpus, model = topical
        index = build_index(corpus, IndexConfig(chunk_size=128))
        engine = Engine(index)
        rng = np.random.default_rng(5)

        def sample_terms(coherent: bool) -> Query:
            topic = int(rng.integers(model.n_topics))
            terms = set()
            while len(terms) < 2:
                t = topic if coherent else int(rng.integers(model.n_topics))
                terms.add(int(model.sample_topic_terms(t, rng, 1)[0]))
            return Query.of(sorted(terms), k=10)

        def mean_matches(coherent: bool) -> float:
            return float(np.mean([
                engine.execute(sample_terms(coherent), 1).docs_matched
                for _ in range(80)
            ]))

        assert mean_matches(True) > 1.5 * mean_matches(False)
