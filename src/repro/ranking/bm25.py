"""Okapi BM25 relevance model.

The reproduction's index precomputes, for every posting, the term's BM25
*impact* in that document: ``idf(t) * tf_saturation(f_td, |d|)``. A
query's relevance score is then the sum of impacts over its terms, and
score upper bounds (for early termination) are maxima of impacts —
exactly the decomposition production engines use for MaxScore/WAND-style
pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require_in_range, require_positive


@dataclass(frozen=True)
class BM25Params:
    """BM25 hyperparameters.

    ``k1`` controls term-frequency saturation, ``b`` the strength of
    document-length normalization. Defaults are the standard 1.2 / 0.75.
    """

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        require_positive(self.k1, "k1")
        require_in_range(self.b, "b", low=0.0, high=1.0)


def bm25_idf(doc_frequency: np.ndarray, n_docs: int) -> np.ndarray:
    """Robertson–Sparck-Jones idf, floored at 0 via the +1 smoothing.

    ``idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))``
    """
    df = np.asarray(doc_frequency, dtype=np.float64)
    return np.log1p((n_docs - df + 0.5) / (df + 0.5))


def bm25_tf_component(
    term_freq: np.ndarray, doc_length: np.ndarray, avg_doc_length: float, params: BM25Params
) -> np.ndarray:
    """Saturated term-frequency component of BM25.

    ``tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))``, with
    ``term_freq`` and ``doc_length`` parallel (one entry per posting).
    """
    tf = np.asarray(term_freq, dtype=np.float64)
    # The formula's operations in its order, each in place where it can
    # be, so a call over a whole index holds three posting-sized arrays,
    # not five. Addition and multiplication commute exactly in IEEE 754,
    # so the bits are those of the expression above.
    norm = np.multiply(params.b, doc_length, dtype=np.float64)
    norm /= avg_doc_length
    norm += 1.0 - params.b
    norm *= params.k1
    norm += tf
    tf_component = tf * (params.k1 + 1.0)
    tf_component /= norm
    return tf_component


def bm25_score_document(
    term_freqs: np.ndarray,
    doc_freqs: np.ndarray,
    doc_length: int,
    n_docs: int,
    avg_doc_length: float,
    params: BM25Params,
) -> float:
    """Reference scorer: BM25 score of one document for a bag of terms.

    Used by tests to cross-check the precomputed impact arrays in the
    index; not on the query hot path.
    """
    idf = bm25_idf(np.asarray(doc_freqs, dtype=np.float64), n_docs)
    tf = bm25_tf_component(
        np.asarray(term_freqs, dtype=np.float64),
        np.full(len(term_freqs), doc_length, dtype=np.float64),
        avg_doc_length,
        params,
    )
    return float(np.dot(idf, tf))
