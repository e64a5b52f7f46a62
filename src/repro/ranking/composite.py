"""Composite document scoring: BM25 relevance blended with static rank.

Production web rankers combine query-dependent relevance with a
query-independent document prior (PageRank-style "static rank"). Because
the index lays documents out in descending static rank, the prior term of
the composite score is *non-increasing in doc id* — that monotone
structure is what gives early termination its power: after processing a
prefix of the document space, the best achievable composite score of any
unseen document is bounded by (remaining max relevance impact) +
(static-rank prior at the current position).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.util.validation import require_in_range, require_positive


@dataclass(frozen=True)
class ScoreWeights:
    """Blend weights for the composite score.

    ``score(q, d) = relevance_weight * BM25(q, d)
                  + static_weight * static_rank(d)``

    The default static weight is sized so the prior meaningfully reorders
    documents with similar relevance without drowning out relevance.
    """

    relevance_weight: float = 1.0
    static_weight: float = 3.0

    def __post_init__(self) -> None:
        require_positive(self.relevance_weight, "relevance_weight")
        require_in_range(self.static_weight, "static_weight", low=0.0)
