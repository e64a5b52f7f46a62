"""Index construction: invert a corpus into posting lists with impacts.

The builder performs a single columnar inversion: the corpus's CSR
(document → terms) layout is re-sorted into (term → documents) order by
one in-place sort of a packed int64 key per posting, BM25 impacts are
computed in one vectorized pass over the flat postings, and the columns
go straight to the :class:`~repro.index.lexicon.Lexicon`; per-chunk
metadata is derived inside each
:class:`~repro.index.postings.PostingList` on first touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.corpus.documents import Corpus
from repro.errors import IndexError_
from repro.index.chunks import ChunkMap
from repro.index.inverted import InvertedIndex
from repro.index.lexicon import Lexicon
from repro.ranking.bm25 import BM25Params, bm25_idf, bm25_tf_component
from repro.util.validation import require_int_in_range


@dataclass(frozen=True)
class IndexConfig:
    """Index build parameters.

    ``chunk_size`` sets the parallel work granularity (documents per
    chunk). The paper's design point is a chunk small enough that dynamic
    load balancing works but large enough that per-chunk overhead is
    amortized; 128 documents is the default here.
    """

    chunk_size: int = 128
    bm25: BM25Params = field(default_factory=BM25Params)

    def __post_init__(self) -> None:
        require_int_in_range(self.chunk_size, "chunk_size", low=1)


def _invert(corpus: Corpus) -> Tuple[np.ndarray, ...]:
    """``(term_ids, term_offsets, doc_ids, freqs)``: the corpus's
    (doc -> term) CSR flattened into parallel arrays and re-sorted by
    (term, doc). Within a term, doc ids end up ascending, i.e. in
    descending static-rank order.

    Each posting becomes one int64 key, ``(term * n_docs + doc) <<
    freq_bits | freq``, sorted in place. Every (term, doc) pair is
    unique, so the frequency bits never decide the order, and the keys
    unpack into the three columns."""
    n_docs = corpus.n_docs
    freqs = corpus.freqs
    if freqs.shape[0] and int(freqs.min()) < 0:
        raise IndexError_("term frequencies must be non-negative")
    freq_bits = int(freqs.max()).bit_length() if freqs.shape[0] else 0
    if (corpus.vocab_size * n_docs) << freq_bits > int(np.iinfo(np.int64).max):
        raise IndexError_(
            f"vocab_size {corpus.vocab_size} x n_docs {n_docs} << {freq_bits} "
            f"frequency bits does not fit in int64"
        )
    key = corpus.terms * n_docs
    key += np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(corpus.offsets))
    key <<= freq_bits
    key |= freqs
    key.sort()
    freqs = key & ((1 << freq_bits) - 1)
    key >>= freq_bits
    doc_ids = key % n_docs
    key //= n_docs
    is_term_start = np.empty(key.shape[0], dtype=bool)
    is_term_start[:1] = True
    np.not_equal(key[1:], key[:-1], out=is_term_start[1:])
    term_starts = np.flatnonzero(is_term_start)
    term_offsets = np.append(term_starts, key.shape[0])
    return key[term_starts], term_offsets, doc_ids, freqs


def build_index(corpus: Corpus, config: Optional[IndexConfig] = None) -> InvertedIndex:
    """Build an :class:`InvertedIndex` over ``corpus``."""
    config = config or IndexConfig()
    chunk_map = ChunkMap(corpus.n_docs, config.chunk_size)
    term_ids, term_offsets, doc_ids, freqs = _invert(corpus)

    # idf is per term, the tf component per posting; the product is
    # elementwise, so one pass over the flat columns gives every impact.
    counts = np.diff(term_offsets)
    impacts = bm25_tf_component(
        freqs, corpus.doc_lengths[doc_ids], corpus.average_doc_length, config.bm25
    )
    impacts *= np.repeat(bm25_idf(counts.astype(np.float64), corpus.n_docs), counts)

    return InvertedIndex(
        lexicon=Lexicon(
            vocab_size=corpus.vocab_size,
            term_ids=term_ids,
            term_offsets=term_offsets,
            doc_ids=doc_ids,
            freqs=freqs,
            impacts=impacts,
            chunk_map=chunk_map,
        ),
        chunk_map=chunk_map,
        doc_lengths=corpus.doc_lengths,
        static_ranks=corpus.static_ranks,
        bm25_params=config.bm25,
    )
