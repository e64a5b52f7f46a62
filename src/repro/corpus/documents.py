"""Corpus container: documents stored columnar, ordered by static rank.

The corpus follows the index-serving-node convention from the paper's
setting: *document id equals static-rank position*. Doc 0 is the highest
static-rank (highest prior quality) document; posting lists built from
this corpus are therefore automatically ordered by decreasing static
rank, which is what makes early termination effective — once the top-k
heap is full of good documents, the remaining (lower-rank) docs can be
bounded away.

Storage is CSR-style: per-document unique (term, frequency) pairs in flat
numpy arrays, with an offsets array delimiting each document's slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import CorpusError


@dataclass(frozen=True)
class Document:
    """A lightweight view of one document in a :class:`Corpus`."""

    doc_id: int
    length: int
    static_rank: float
    term_ids: np.ndarray  # unique term ids present in the doc
    term_freqs: np.ndarray  # parallel array of in-document frequencies

    def term_frequency(self, term_id: int) -> int:
        """Frequency of ``term_id`` in this document (0 if absent)."""
        idx = np.searchsorted(self.term_ids, term_id)
        if idx < self.term_ids.shape[0] and self.term_ids[idx] == term_id:
            return int(self.term_freqs[idx])
        return 0


class Corpus:
    """Columnar document collection ordered by static rank.

    Parameters
    ----------
    doc_lengths:
        Total token count per document.
    static_ranks:
        Prior quality score per document; must be non-increasing in
        document id (doc id is the static-rank position).
    offsets:
        CSR offsets into ``terms`` / ``freqs``; ``offsets[d]:offsets[d+1]``
        is document ``d``'s slice. Term ids within a slice are sorted.
    terms, freqs:
        Flat unique-term ids and frequencies for all documents.
    vocab_size:
        Size of the vocabulary the term ids are drawn from.
    """

    def __init__(
        self,
        doc_lengths: np.ndarray,
        static_ranks: np.ndarray,
        offsets: np.ndarray,
        terms: np.ndarray,
        freqs: np.ndarray,
        vocab_size: int,
    ) -> None:
        n_docs = int(doc_lengths.shape[0])
        if n_docs == 0:
            raise CorpusError("corpus must contain at least one document")
        if static_ranks.shape[0] != n_docs:
            raise CorpusError("static_ranks length must match doc_lengths")
        if offsets.shape[0] != n_docs + 1:
            raise CorpusError("offsets must have n_docs + 1 entries")
        if terms.shape[0] != freqs.shape[0]:
            raise CorpusError("terms and freqs must be parallel arrays")
        if int(offsets[-1]) != terms.shape[0]:
            raise CorpusError("offsets[-1] must equal len(terms)")
        if np.any(np.diff(static_ranks) > 1e-12):
            raise CorpusError("static_ranks must be non-increasing in doc id")
        if vocab_size < 1:
            raise CorpusError("vocab_size must be >= 1")
        if terms.shape[0] and (terms.min() < 0 or terms.max() >= vocab_size):
            raise CorpusError("term ids must lie in [0, vocab_size)")

        self.doc_lengths = np.ascontiguousarray(doc_lengths, dtype=np.int64)
        self.static_ranks = np.ascontiguousarray(static_ranks, dtype=np.float64)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.terms = np.ascontiguousarray(terms, dtype=np.int64)
        self.freqs = np.ascontiguousarray(freqs, dtype=np.int64)
        self.vocab_size = int(vocab_size)

    @property
    def n_docs(self) -> int:
        return int(self.doc_lengths.shape[0])

    @property
    def n_postings(self) -> int:
        """Total number of (doc, unique-term) pairs."""
        return int(self.terms.shape[0])

    @property
    def total_tokens(self) -> int:
        return int(self.doc_lengths.sum())

    @property
    def average_doc_length(self) -> float:
        return float(self.doc_lengths.mean())

    def __len__(self) -> int:
        return self.n_docs

    def document(self, doc_id: int) -> Document:
        """Materialize a :class:`Document` view for ``doc_id``."""
        if not 0 <= doc_id < self.n_docs:
            raise CorpusError(f"doc_id {doc_id} outside [0, {self.n_docs})")
        start, end = int(self.offsets[doc_id]), int(self.offsets[doc_id + 1])
        return Document(
            doc_id=doc_id,
            length=int(self.doc_lengths[doc_id]),
            static_rank=float(self.static_ranks[doc_id]),
            term_ids=self.terms[start:end],
            term_freqs=self.freqs[start:end],
        )

    def __iter__(self) -> Iterator[Document]:
        for doc_id in range(self.n_docs):
            yield self.document(doc_id)

    def document_frequencies(self) -> np.ndarray:
        """Number of documents containing each term (length ``vocab_size``)."""
        df = np.zeros(self.vocab_size, dtype=np.int64)
        np.add.at(df, self.terms, 1)
        return df

    def __repr__(self) -> str:
        return (
            f"Corpus(n_docs={self.n_docs}, vocab_size={self.vocab_size}, "
            f"n_postings={self.n_postings})"
        )
