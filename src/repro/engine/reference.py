"""Brute-force reference search: the engine's differential-testing oracle.

Scores *every* document against the query straight from the index's
posting data (no chunking, no bounds, no termination, no planning) and
sorts. Quadratically slower than the engine, used only by tests and
debugging: any divergence between :func:`brute_force_search` and the
engine under exhaustive settings is an engine bug by definition.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.engine.query import Query
from repro.index.inverted import InvertedIndex
from repro.ranking.composite import RELEVANCE_WEIGHT, STATIC_WEIGHT


def brute_force_search(index: InvertedIndex, query: Query) -> List[Tuple[int, float]]:
    """Exhaustively rank documents for ``query``.

    Returns the top-``query.k`` (doc_id, score) pairs under the same
    composite score and tie rule as the engine (score desc, doc id asc).
    """
    n_docs = index.n_docs
    relevance = np.zeros(n_docs, dtype=np.float64)
    match_count = np.zeros(n_docs, dtype=np.int64)

    for term_id in query.term_ids:
        plist = index.lexicon.postings_or_none(term_id)
        if plist is None:
            return []  # a document must contain every term
        relevance[plist.doc_ids] += plist.impacts
        match_count[plist.doc_ids] += 1

    doc_ids = np.nonzero(match_count == query.n_terms)[0]
    if doc_ids.size == 0:
        return []

    scores = (
        RELEVANCE_WEIGHT * relevance[doc_ids]
        + STATIC_WEIGHT * index.static_ranks[doc_ids]
    )
    # Sort by (score desc, doc id asc); doc_ids is ascending, and a
    # stable sort on descending score preserves ascending ids for ties.
    order = np.argsort(-scores, kind="stable")[: query.k]
    return [(int(doc_ids[i]), float(scores[i])) for i in order]
