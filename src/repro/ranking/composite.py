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

#: ``score(q, d) = RELEVANCE_WEIGHT * BM25(q, d) + STATIC_WEIGHT *
#: static_rank(d)``. The static weight is sized so the prior meaningfully
#: reorders documents with similar relevance without drowning out
#: relevance.
RELEVANCE_WEIGHT = 1.0
STATIC_WEIGHT = 3.0
