"""Posting lists with precomputed impact scores and per-chunk metadata.

Each posting list stores, for one term, the documents containing it in
ascending doc-id order (equivalently, descending static rank — see
:mod:`repro.corpus.documents`), the in-document term frequency, and the
precomputed BM25 *impact* (idf × tf-saturation) of the term in that
document. Precomputing impacts at build time turns query-time scoring
into pure array gathers and adds, which is both fast in numpy and a
faithful stand-in for the flat scan loops of a production ISN.

For chunk-granular execution the posting list also records, per document
chunk it intersects: the slice of its arrays belonging to that chunk and
the maximum impact within the chunk. The per-chunk maxima give the tight
score upper bounds used by early termination (MaxScore-style, but
localized per chunk as in rank-ordered indexes).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.chunks import ChunkMap


class PostingList:
    """Immutable posting list for a single term."""

    __slots__ = (
        "term_id",
        "doc_ids",
        "freqs",
        "impacts",
        "chunk_ids",
        "chunk_offsets",
        "chunk_max_impact",
        "max_impact",
    )

    def __init__(
        self,
        term_id: int,
        doc_ids: np.ndarray,
        freqs: np.ndarray,
        impacts: np.ndarray,
        chunk_map: ChunkMap,
    ) -> None:
        if doc_ids.shape[0] != freqs.shape[0] or doc_ids.shape[0] != impacts.shape[0]:
            raise IndexError_("doc_ids, freqs, impacts must be parallel arrays")
        if doc_ids.shape[0] and np.any(np.diff(doc_ids) <= 0):
            raise IndexError_(f"posting list for term {term_id} not strictly ascending")

        self.term_id = int(term_id)
        self.doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
        self.freqs = np.ascontiguousarray(freqs, dtype=np.int64)
        self.impacts = np.ascontiguousarray(impacts, dtype=np.float64)
        self.max_impact = float(self.impacts.max()) if self.impacts.size else 0.0

        # Per-chunk metadata: which chunks this term appears in, the slice
        # of the posting arrays for each, and the max impact inside it.
        if self.doc_ids.size:
            cuts = np.searchsorted(self.doc_ids, chunk_map.bounds, side="left")
            sizes = np.diff(cuts)
            nonempty = np.nonzero(sizes > 0)[0]
            self.chunk_ids = nonempty.astype(np.int64)
            starts = cuts[nonempty]
            ends = cuts[nonempty + 1]
            self.chunk_offsets = np.stack([starts, ends], axis=1).astype(np.int64)
            # The non-empty chunk slices tile the posting arrays end to
            # end, so a single reduceat computes every chunk maximum.
            self.chunk_max_impact = np.maximum.reduceat(self.impacts, starts).astype(
                np.float64
            )
        else:
            self.chunk_ids = np.empty(0, dtype=np.int64)
            self.chunk_offsets = np.empty((0, 2), dtype=np.int64)
            self.chunk_max_impact = np.empty(0, dtype=np.float64)

    @property
    def doc_frequency(self) -> int:
        """Number of documents containing the term."""
        return int(self.doc_ids.shape[0])

    def __len__(self) -> int:
        return self.doc_frequency

    def chunk_slice(self, chunk_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return (doc_ids, impacts) of this term inside ``chunk_id``.

        Returns empty arrays when the term does not occur in the chunk.
        """
        idx = np.searchsorted(self.chunk_ids, chunk_id)
        if idx < self.chunk_ids.shape[0] and self.chunk_ids[idx] == chunk_id:
            start, end = self.chunk_offsets[idx]
            return self.doc_ids[start:end], self.impacts[start:end]
        empty_ids = np.empty(0, dtype=np.int64)
        empty_impacts = np.empty(0, dtype=np.float64)
        return empty_ids, empty_impacts

    def impact_of(self, doc_id: int) -> float:
        """Impact of the term in ``doc_id`` (0.0 if absent)."""
        idx = np.searchsorted(self.doc_ids, doc_id)
        if idx < self.doc_ids.shape[0] and self.doc_ids[idx] == doc_id:
            return float(self.impacts[idx])
        return 0.0

    def __repr__(self) -> str:
        return (
            f"PostingList(term_id={self.term_id}, df={self.doc_frequency}, "
            f"max_impact={self.max_impact:.4f})"
        )
