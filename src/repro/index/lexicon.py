"""Lexicon: term dictionary mapping term ids to posting lists and stats.

The lexicon *is* the columnar posting store — one flat array per field
plus per-term offsets, the layout :func:`repro.index.builder.build_index`
produces and :mod:`repro.index.io` persists verbatim. A term's
:class:`PostingList` view is materialized the first time the term is
touched. Laziness is what makes building or opening a shard O(1) in
Python objects and lets a memory-mapped shard larger than RAM serve
queries while only the touched terms' pages are resident.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import IndexError_
from repro.index.chunks import ChunkMap
from repro.index.postings import PostingList


class Lexicon:
    """Term dictionary of an inverted index, over a columnar posting store.

    Backed by flat arrays: ``term_ids`` (the terms present, ascending),
    ``term_offsets`` (``len(term_ids) + 1`` slice boundaries), and the
    concatenated ``doc_ids`` / ``freqs`` / ``impacts`` columns. A term's
    :class:`PostingList` — including its derived per-chunk metadata — is
    built from zero-copy column slices the first time the term is
    requested and cached thereafter, so construction cost is O(1) and
    queries touch only the terms (and, for memory-mapped columns, the
    pages) they actually use. Statistics that the columnar layout answers
    directly (document frequencies) never materialize anything.

    Unsynchronized by design; ``tests/test_source_rules.py`` keeps it so.
    """

    def __init__(
        self,
        vocab_size: int,
        term_ids: np.ndarray,
        term_offsets: np.ndarray,
        doc_ids: np.ndarray,
        freqs: np.ndarray,
        impacts: np.ndarray,
        chunk_map: ChunkMap,
    ) -> None:
        if vocab_size < 1:
            raise IndexError_("vocab_size must be >= 1")
        if term_offsets.shape[0] != term_ids.shape[0] + 1:
            raise IndexError_(
                f"term_offsets must have {term_ids.shape[0] + 1} entries, "
                f"got {term_offsets.shape[0]}"
            )
        self.vocab_size = vocab_size
        self._postings: Dict[int, PostingList] = {}
        self._slots: Dict[int, int] = {
            int(t): i for i, t in enumerate(term_ids.tolist())
        }
        if len(self._slots) != term_ids.shape[0]:
            raise IndexError_("duplicate term ids in the posting store")
        for term_id in self._slots:
            if not 0 <= term_id < vocab_size:
                raise IndexError_(
                    f"term id {term_id} outside [0, {vocab_size})"
                )
        self._term_ids = term_ids
        self._offsets = term_offsets
        self._doc_ids = doc_ids
        self._freqs = freqs
        self._impacts = impacts
        self._chunk_map = chunk_map

    def _materialize(self, term_id: int) -> PostingList:
        slot = self._slots[term_id]
        start = int(self._offsets[slot])
        end = int(self._offsets[slot + 1])
        plist = PostingList(
            term_id=term_id,
            doc_ids=self._doc_ids[start:end],
            freqs=self._freqs[start:end],
            impacts=self._impacts[start:end],
            chunk_map=self._chunk_map,
        )
        self._postings[term_id] = plist
        return plist

    def __contains__(self, term_id: int) -> bool:
        return term_id in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._slots))

    def postings(self, term_id: int) -> PostingList:
        """Posting list for ``term_id``; raises for absent terms."""
        plist = self._postings.get(term_id)
        if plist is not None:
            return plist
        if term_id not in self._slots:
            raise IndexError_(f"term {term_id} has no posting list")
        return self._materialize(term_id)

    def postings_or_none(self, term_id: int) -> Optional[PostingList]:
        plist = self._postings.get(term_id)
        if plist is not None:
            return plist
        if term_id not in self._slots:
            return None
        return self._materialize(term_id)

    def doc_frequency(self, term_id: int) -> int:
        slot = self._slots.get(term_id)
        if slot is None:
            return 0
        return int(self._offsets[slot + 1] - self._offsets[slot])

    def document_frequencies(self) -> np.ndarray:
        """Dense df vector over the vocabulary."""
        df = np.zeros(self.vocab_size, dtype=np.int64)
        if self._term_ids.shape[0]:
            df[self._term_ids] = np.diff(self._offsets)
        return df

    def posting_lists(self, term_ids: List[int]) -> List[PostingList]:
        """Posting lists for the given terms, skipping absent terms."""
        found = []
        for term_id in term_ids:
            plist = self.postings_or_none(term_id)
            if plist is not None:
                found.append(plist)
        return found

    def columns(self) -> Dict[str, np.ndarray]:
        """The backing columnar arrays (the persisted layout, verbatim)."""
        return {
            "term_ids": self._term_ids,
            "term_offsets": self._offsets,
            "posting_doc_ids": self._doc_ids,
            "posting_freqs": self._freqs,
            "posting_impacts": self._impacts,
        }

    def __repr__(self) -> str:
        return (
            f"Lexicon(vocab_size={self.vocab_size}, terms={len(self)}, "
            f"materialized={len(self._postings)})"
        )
