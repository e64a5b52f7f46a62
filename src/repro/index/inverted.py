"""The inverted index: lexicon + chunk map + document metadata.

An :class:`InvertedIndex` is the in-memory shard an index-serving node
(ISN) scans to answer queries. It bundles:

* the :class:`~repro.index.lexicon.Lexicon` of posting lists (with
  precomputed BM25 impacts and per-chunk score bounds),
* the :class:`~repro.index.chunks.ChunkMap` partition used for parallel
  execution and early-termination checks,
* per-document metadata (lengths, static ranks) and global statistics.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_
from repro.index.chunks import ChunkMap
from repro.index.lexicon import Lexicon
from repro.ranking.bm25 import BM25Params


class InvertedIndex:
    """Immutable in-memory index shard."""

    def __init__(
        self,
        lexicon: Lexicon,
        chunk_map: ChunkMap,
        doc_lengths: np.ndarray,
        static_ranks: np.ndarray,
        bm25_params: BM25Params,
    ) -> None:
        if doc_lengths.shape[0] != static_ranks.shape[0]:
            raise IndexError_("doc_lengths and static_ranks must be parallel")
        if chunk_map.n_docs != doc_lengths.shape[0]:
            raise IndexError_("chunk_map covers a different number of documents")
        self.lexicon = lexicon
        self.chunk_map = chunk_map
        self.doc_lengths = np.ascontiguousarray(doc_lengths, dtype=np.int64)
        self.static_ranks = np.ascontiguousarray(static_ranks, dtype=np.float64)
        self.bm25_params = bm25_params
        self.avg_doc_length = float(self.doc_lengths.mean())

    @property
    def n_docs(self) -> int:
        return int(self.doc_lengths.shape[0])

    @property
    def n_chunks(self) -> int:
        return self.chunk_map.n_chunks

    @property
    def n_terms(self) -> int:
        return len(self.lexicon)

    @property
    def n_postings(self) -> int:
        # Read off the offsets column: nothing is materialized.
        return int(self.lexicon.columns()["term_offsets"][-1])

    def memory_footprint_bytes(self) -> int:
        """Approximate resident size of the index arrays."""
        total = self.doc_lengths.nbytes + self.static_ranks.nbytes
        for term_id in self.lexicon:
            plist = self.lexicon.postings(term_id)
            total += (
                plist.doc_ids.nbytes
                + plist.freqs.nbytes
                + plist.impacts.nbytes
                + plist.chunk_ids.nbytes
                + plist.chunk_offsets.nbytes
                + plist.chunk_max_impact.nbytes
            )
        return total

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(n_docs={self.n_docs}, n_terms={self.n_terms}, "
            f"n_chunks={self.n_chunks})"
        )
