"""Synthetic web-corpus generator.

Substitutes for the proprietary Bing index shard used in the paper. The
generator preserves the structural properties that drive the paper's
dynamics:

* **Zipfian term popularity** — posting-list lengths are heavy-tailed,
  so query cost varies by orders of magnitude with the terms chosen;
* **Skewed document lengths** — lognormal, like real web pages;
* **Static-rank document ordering** — document quality is sampled from a
  skewed Beta distribution and documents are laid out in descending
  quality order, which is what enables early termination during ranked
  retrieval.

Each batch's tokens become postings through one in-place sort of an
int64 key per token (:func:`_reduce_batch`). The larger cost is the Zipf
draw itself, ``ZipfMandelbrot.sample``'s ``searchsorted`` of one uniform
per token: about 0.6 s of 0.8 s for a 30k-document, 20k-term corpus on a
2-vCPU x86 box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.corpus.documents import Corpus
from repro.text.zipf import ZipfMandelbrot
from repro.util.rng import make_rng
from repro.util.validation import (
    require,
    require_int_in_range,
    require_positive,
)

#: Zipf–Mandelbrot exponent and shift of term popularity.
ZIPF_EXPONENT = 1.05
ZIPF_SHIFT = 2.7
#: Beta-distribution parameters for static-rank quality: (1, 5) gives a
#: right-skewed distribution with a thin high-quality head, as in web
#: collections.
QUALITY_ALPHA = 1.0
QUALITY_BETA = 5.0
#: Lognormal shape parameter of document length, and the clipping
#: bounds applied to the drawn lengths.
DOC_LENGTH_SIGMA = 0.6
MIN_DOC_LENGTH = 8
MAX_DOC_LENGTH = 4_000
#: Documents generated per batch, which bounds peak memory. Batching
#: consumes the RNG, so a different size draws a different corpus.
BATCH_DOCS = 16_384


@dataclass(frozen=True)
class CorpusConfig:
    """Parameters for :func:`generate_corpus`.

    Attributes
    ----------
    n_docs:
        Number of documents in the shard.
    vocab_size:
        Vocabulary size; term ids are popularity ranks.
    mean_doc_length:
        Target mean document length in tokens (lognormal).
    seed:
        RNG seed (derivable from an experiment root seed).
    """

    n_docs: int = 50_000
    vocab_size: int = 30_000
    mean_doc_length: float = 180.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_int_in_range(self.n_docs, "n_docs", low=1)
        require_int_in_range(self.vocab_size, "vocab_size", low=1)
        require_positive(self.mean_doc_length, "mean_doc_length")
        require(
            self.mean_doc_length >= MIN_DOC_LENGTH,
            f"mean_doc_length must be >= {MIN_DOC_LENGTH}",
        )
        require(
            BATCH_DOCS * self.vocab_size <= int(np.iinfo(np.int64).max),
            f"vocab_size {self.vocab_size} x {BATCH_DOCS} documents per batch "
            f"does not fit the int64 sort key",
        )


def _sample_doc_lengths(config: CorpusConfig, rng: np.random.Generator) -> np.ndarray:
    """Lognormal document lengths with the configured mean, clipped."""
    # E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2)  =>  solve for mu.
    mu = np.log(config.mean_doc_length) - DOC_LENGTH_SIGMA * DOC_LENGTH_SIGMA / 2.0
    lengths = rng.lognormal(mean=mu, sigma=DOC_LENGTH_SIGMA, size=config.n_docs)
    lengths = np.clip(np.rint(lengths), MIN_DOC_LENGTH, MAX_DOC_LENGTH)
    return lengths.astype(np.int64)


def _sample_static_ranks(config: CorpusConfig, rng: np.random.Generator) -> np.ndarray:
    """Descending quality scores in (0, 1]; doc id = quality rank."""
    quality = rng.beta(QUALITY_ALPHA, QUALITY_BETA, size=config.n_docs)
    quality = np.sort(quality)[::-1]
    # Avoid exact zeros so score bounds stay strictly positive.
    return np.maximum(quality, 1e-9)


def _reduce_batch(
    tokens: np.ndarray, lengths: np.ndarray, vocab_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(terms, freqs, postings_per_doc)`` of one batch: its token
    stream, ``lengths[d]`` tokens per document in document order, reduced
    to unique (doc, term) postings sorted by doc, then term.

    Each token becomes one int64 key, ``doc * vocab_size + term``, sorted
    in place. Equal keys are equal integers, so every sort algorithm
    gives the same array. Run starts of the sorted keys are the unique
    postings, run lengths their in-document term frequencies.
    """
    n_docs = lengths.shape[0]
    key = np.repeat(np.arange(n_docs, dtype=np.int64) * vocab_size, lengths)
    key += tokens
    key.sort()
    is_run_start = np.empty(key.shape[0], dtype=bool)
    is_run_start[:1] = True
    np.not_equal(key[1:], key[:-1], out=is_run_start[1:])
    run_starts = np.flatnonzero(is_run_start)
    freqs = np.diff(run_starts, append=key.shape[0])
    postings = key[run_starts]
    terms = postings % vocab_size
    postings //= vocab_size
    return terms, freqs, np.bincount(postings, minlength=n_docs)


def generate_corpus(
    config: Optional[CorpusConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> Corpus:
    """Generate a synthetic corpus per ``config``.

    Documents are produced in batches of ``BATCH_DOCS``. Each batch
    samples its token stream from the Zipf model and reduces it to sorted
    unique (doc, term, frequency) triples with one in-place sort of an
    int64 key per token and a run-length encoding pass
    (:func:`_reduce_batch`).
    """
    config = config or CorpusConfig()
    rng = rng or make_rng(config.seed)

    zipf = ZipfMandelbrot(config.vocab_size, ZIPF_EXPONENT, ZIPF_SHIFT)
    doc_lengths = _sample_doc_lengths(config, rng)
    static_ranks = _sample_static_ranks(config, rng)

    postings_per_doc = np.empty(config.n_docs, dtype=np.int64)
    term_chunks: List[np.ndarray] = []
    freq_chunks: List[np.ndarray] = []

    for batch_start in range(0, config.n_docs, BATCH_DOCS):
        batch_end = min(batch_start + BATCH_DOCS, config.n_docs)
        batch_lengths = doc_lengths[batch_start:batch_end]
        tokens = zipf.sample(rng, int(batch_lengths.sum()))
        terms, freqs, per_doc = _reduce_batch(tokens, batch_lengths, config.vocab_size)
        postings_per_doc[batch_start:batch_end] = per_doc
        term_chunks.append(terms)
        freq_chunks.append(freqs)

    offsets = np.zeros(config.n_docs + 1, dtype=np.int64)
    np.cumsum(postings_per_doc, out=offsets[1:])
    terms = (
        np.concatenate(term_chunks) if term_chunks else np.empty(0, dtype=np.int64)
    )
    freqs = (
        np.concatenate(freq_chunks) if freq_chunks else np.empty(0, dtype=np.int64)
    )
    return Corpus(
        doc_lengths=doc_lengths,
        static_ranks=static_ranks,
        offsets=offsets,
        terms=terms,
        freqs=freqs,
        vocab_size=config.vocab_size,
    )
