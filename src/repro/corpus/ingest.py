"""Build a corpus from real text documents.

The synthetic generator covers the paper's experiments; this module is
the adoption path — hand it your own documents and get back the same
:class:`~repro.corpus.documents.Corpus` the rest of the stack consumes:

>>> from repro.corpus.ingest import ingest_documents
>>> corpus, vocabulary = ingest_documents([
...     ("adaptive parallelism for web search", 0.9),
...     ("parallel query execution on multicore index servers", 0.7),
... ])
>>> corpus.n_docs
2

Documents are sorted by the supplied static rank (descending) before id
assignment, preserving the index invariant that doc id order == static
rank order. The vocabulary is built on the fly in *first-seen* order
and returned alongside, so queries can be parsed with the same mapping
(see :func:`parse_query`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.corpus.documents import Corpus
from repro.engine.query import MatchMode, Query
from repro.errors import CorpusError, QueryError
from repro.text.tokenizer import Tokenizer


class IngestVocabulary:
    """Mutable word <-> id mapping built during ingestion."""

    def __init__(self) -> None:
        self._word_to_id: Dict[str, int] = {}
        self._id_to_word: List[str] = []

    def __len__(self) -> int:
        return len(self._id_to_word)

    def id_for(self, word: str, create: bool = False) -> Optional[int]:
        term_id = self._word_to_id.get(word)
        if term_id is None and create:
            term_id = len(self._id_to_word)
            self._word_to_id[word] = term_id
            self._id_to_word.append(word)
        return term_id

    def word(self, term_id: int) -> str:
        if not 0 <= term_id < len(self._id_to_word):
            raise CorpusError(f"term id {term_id} outside vocabulary")
        return self._id_to_word[term_id]

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id


def ingest_documents(
    documents: Iterable[Tuple[str, float]],
) -> Tuple[Corpus, IngestVocabulary]:
    """Build a (corpus, vocabulary) pair from (text, static_rank) pairs.

    Static ranks may be any comparable floats; they are shifted into
    (0, 1] and documents are re-ordered descending, as the index
    requires. Empty documents (no tokens after analysis) are rejected.
    """
    tokenizer = Tokenizer()
    vocabulary = IngestVocabulary()

    token_lists: List[List[int]] = []
    ranks: List[float] = []
    for position, item in enumerate(documents):
        try:
            text, rank = item
        except (TypeError, ValueError):
            raise CorpusError(
                f"document {position} must be a (text, static_rank) pair"
            ) from None
        tokens = tokenizer.tokenize(str(text))
        if not tokens:
            raise CorpusError(f"document {position} has no tokens after analysis")
        token_lists.append(
            [vocabulary.id_for(token, create=True) for token in tokens]
        )
        ranks.append(float(rank))
    if not token_lists:
        raise CorpusError("no documents supplied")

    rank_arr = np.asarray(ranks, dtype=np.float64)
    # Shift into (0, 1] preserving order: the engine's bound logic wants
    # strictly positive priors.
    low, high = float(rank_arr.min()), float(rank_arr.max())
    span = high - low
    normalized = (rank_arr - low) / span if span > 0 else np.ones_like(rank_arr)
    normalized = 0.01 + 0.99 * normalized

    # Descending static rank; stable so equal-rank docs keep input order.
    order = np.argsort(-normalized, kind="stable")

    doc_lengths = np.asarray(
        [len(token_lists[i]) for i in order], dtype=np.int64
    )
    static_ranks = normalized[order]

    offsets = np.zeros(len(order) + 1, dtype=np.int64)
    terms_chunks: List[np.ndarray] = []
    freqs_chunks: List[np.ndarray] = []
    count = 0
    for new_id, original in enumerate(order):
        unique_terms, frequencies = np.unique(
            np.asarray(token_lists[original], dtype=np.int64), return_counts=True
        )
        terms_chunks.append(unique_terms)
        freqs_chunks.append(frequencies.astype(np.int64))
        count += unique_terms.shape[0]
        offsets[new_id + 1] = count

    return (
        Corpus(
            doc_lengths=doc_lengths,
            static_ranks=static_ranks,
            offsets=offsets,
            terms=np.concatenate(terms_chunks),
            freqs=np.concatenate(freqs_chunks),
            vocab_size=len(vocabulary),
        ),
        vocabulary,
    )


def parse_query(
    text: str,
    vocabulary: IngestVocabulary,
    k: int = 10,
    mode: MatchMode = MatchMode.ALL,
) -> Query:
    """Parse a query string against an ingested vocabulary.

    Unknown words are dropped (they cannot match anything); a query with
    no known words raises :class:`QueryError`.
    """
    tokenizer = Tokenizer()
    term_ids = [
        term_id
        for token in tokenizer.tokenize(text)
        if (term_id := vocabulary.id_for(token)) is not None
    ]
    if not term_ids:
        raise QueryError(f"no indexed terms in query {text!r}")
    return Query.of(term_ids, k=k, mode=mode)
