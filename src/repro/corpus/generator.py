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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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


def generate_corpus(
    config: Optional[CorpusConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> Corpus:
    """Generate a synthetic corpus per ``config``.

    Documents are produced in batches of ``BATCH_DOCS``. Each batch
    samples its token stream from the Zipf model and reduces it to sorted
    unique (doc, term, frequency) triples with one vectorized
    sort + run-length encoding pass.
    """
    config = config or CorpusConfig()
    rng = rng or make_rng(config.seed)

    zipf = ZipfMandelbrot(config.vocab_size, ZIPF_EXPONENT, ZIPF_SHIFT)
    doc_lengths = _sample_doc_lengths(config, rng)
    static_ranks = _sample_static_ranks(config, rng)

    postings_per_doc = np.zeros(config.n_docs, dtype=np.int64)
    term_chunks: List[np.ndarray] = []
    freq_chunks: List[np.ndarray] = []

    for batch_start in range(0, config.n_docs, BATCH_DOCS):
        batch_end = min(batch_start + BATCH_DOCS, config.n_docs)
        batch_lengths = doc_lengths[batch_start:batch_end]
        tokens = zipf.sample(rng, int(batch_lengths.sum()))
        doc_of_token = np.repeat(
            np.arange(batch_end - batch_start, dtype=np.int64), batch_lengths
        )
        # Sort (doc, term) pairs, then run-length encode the runs of equal
        # pairs: run starts mark the unique postings, run lengths are the
        # in-document term frequencies.
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
        term_chunks.append(sorted_tokens[run_starts])
        freq_chunks.append(run_ends - run_starts)
        np.add.at(postings_per_doc[batch_start:batch_end], sorted_docs[run_starts], 1)

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
