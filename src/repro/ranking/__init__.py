"""Ranking substrate: BM25 and the relevance / static-rank blend weights."""

from repro.ranking.bm25 import BM25Params, bm25_idf, bm25_tf_component
from repro.ranking.composite import RELEVANCE_WEIGHT, STATIC_WEIGHT

__all__ = [
    "BM25Params",
    "bm25_idf",
    "bm25_tf_component",
    "RELEVANCE_WEIGHT",
    "STATIC_WEIGHT",
]
