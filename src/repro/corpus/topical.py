"""Topical corpus generation: correlated term co-occurrence.

The default synthetic corpus draws every token independently from one
Zipf distribution, which makes term *co-occurrence* purely a product of
popularities. Real web text is topical: terms cluster, so conjunctive
queries whose terms share a topic match far more often than independence
predicts. This module provides a latent-topic generative model:

* ``n_topics`` topics, each owning a ``topic_vocab`` -sized slice of the
  vocabulary (sampled by global popularity, so topics share head terms
  and split the torso/tail) with its own within-topic Zipf ranking;
* every document mixes one or two topics plus a global background:
  tokens come from the document's topics with probability
  ``topical_fraction`` and from the background Zipf otherwise;
* :class:`TopicalQueryGenerator` (in :mod:`repro.workloads.topical`)
  draws a query's terms from a single topic, modeling users asking about
  *something* rather than about independent random words.

Experiment E16 uses this model to check that the paper's conclusions
survive realistic co-occurrence structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.corpus.documents import Corpus
from repro.corpus.generator import (
    ZIPF_EXPONENT,
    ZIPF_SHIFT,
    CorpusConfig,
    _sample_doc_lengths,
    _sample_static_ranks,
)
from repro.text.zipf import ZipfMandelbrot
from repro.util.rng import make_rng
from repro.util.validation import require_in_range, require_int_in_range

#: Share of documents that mix two topics instead of one.
TWO_TOPIC_FRACTION = 0.3
#: Exponent of the within-topic Zipf ranking.
TOPIC_ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class TopicModelConfig:
    """Latent-topic structure layered on a :class:`CorpusConfig`."""

    n_topics: int = 40
    topic_vocab: int = 2_000
    topical_fraction: float = 0.7

    def __post_init__(self) -> None:
        require_int_in_range(self.n_topics, "n_topics", low=1)
        require_int_in_range(self.topic_vocab, "topic_vocab", low=2)
        require_in_range(
            self.topical_fraction, "topical_fraction", low=0.0, high=1.0
        )


class TopicModel:
    """Materialized topics: term slices and within-topic distributions."""

    def __init__(
        self,
        config: TopicModelConfig,
        vocab_size: int,
        background: ZipfMandelbrot,
        rng: np.random.Generator,
    ) -> None:
        require_int_in_range(vocab_size, "vocab_size", low=config.topic_vocab)
        self.config = config
        self.vocab_size = vocab_size
        self.background = background
        # Each topic samples its vocabulary *by global popularity* (so
        # topics overlap on head terms) and ranks it randomly within the
        # topic, giving every topic distinctive mid-frequency terms.
        self.topic_terms = np.empty(
            (config.n_topics, config.topic_vocab), dtype=np.int64
        )
        for topic in range(config.n_topics):
            draws = background.sample(rng, config.topic_vocab * 3)
            unique = np.unique(draws)
            if unique.shape[0] < config.topic_vocab:
                # Top up with uniform draws over the vocabulary.
                extra = rng.choice(
                    vocab_size, size=config.topic_vocab * 2, replace=False
                )
                unique = np.unique(np.concatenate([unique, extra]))
            selected = rng.permutation(unique)[: config.topic_vocab]
            self.topic_terms[topic] = selected
        self.topic_distribution = ZipfMandelbrot(
            config.topic_vocab, TOPIC_ZIPF_EXPONENT, 1.0
        )

    @property
    def n_topics(self) -> int:
        return self.config.n_topics

    def sample_topic_terms(
        self, topic: int, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        """Draw ``n`` term ids from one topic's distribution."""
        require_int_in_range(topic, "topic", low=0, high=self.n_topics - 1)
        ranks = self.topic_distribution.sample(rng, n)
        return self.topic_terms[topic][ranks]

    def sample_document_topics(self, rng: np.random.Generator) -> Tuple[int, ...]:
        """One or two topics for a document."""
        first = int(rng.integers(self.n_topics))
        if self.n_topics > 1 and rng.random() < TWO_TOPIC_FRACTION:
            second = int(rng.integers(self.n_topics))
            if second != first:
                return (first, second)
        return (first,)


def generate_topical_corpus(
    corpus_config: Optional[CorpusConfig] = None,
    topic_config: Optional[TopicModelConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Corpus, TopicModel]:
    """Generate a corpus with latent-topic co-occurrence structure.

    Returns the corpus together with its :class:`TopicModel`, which a
    :class:`~repro.workloads.topical.TopicalQueryGenerator` needs to
    produce matching (topic-coherent) queries.
    """
    corpus_config = corpus_config or CorpusConfig()
    topic_config = topic_config or TopicModelConfig()
    rng = rng or make_rng(corpus_config.seed)

    background = ZipfMandelbrot(corpus_config.vocab_size, ZIPF_EXPONENT, ZIPF_SHIFT)
    model = TopicModel(topic_config, corpus_config.vocab_size, background, rng)

    doc_lengths = _sample_doc_lengths(corpus_config, rng)
    static_ranks = _sample_static_ranks(corpus_config, rng)

    offsets = np.zeros(corpus_config.n_docs + 1, dtype=np.int64)
    term_chunks: List[np.ndarray] = []
    freq_chunks: List[np.ndarray] = []
    count = 0
    topical_fraction = topic_config.topical_fraction
    for doc_id in range(corpus_config.n_docs):
        length = int(doc_lengths[doc_id])
        topics = model.sample_document_topics(rng)
        from_topics = int(np.round(topical_fraction * length))
        tokens = []
        if from_topics:
            per_topic = np.array_split(np.arange(from_topics), len(topics))
            for topic, share in zip(topics, per_topic):
                if share.size:
                    tokens.append(
                        model.sample_topic_terms(topic, rng, int(share.size))
                    )
        if length - from_topics:
            tokens.append(background.sample(rng, length - from_topics))
        all_tokens = np.concatenate(tokens)
        unique_terms, frequencies = np.unique(all_tokens, return_counts=True)
        term_chunks.append(unique_terms)
        freq_chunks.append(frequencies)
        count += unique_terms.shape[0]
        offsets[doc_id + 1] = count

    corpus = Corpus(
        doc_lengths=doc_lengths,
        static_ranks=static_ranks,
        offsets=offsets,
        terms=np.concatenate(term_chunks),
        freqs=np.concatenate(freq_chunks),
        vocab_size=corpus_config.vocab_size,
    )
    return corpus, model
