"""Query representation.

A query is a bag of term ids and a result size ``k``. The engine matches
conjunctively: a document matches only if it contains every query term —
the primary matching semantics of web search, and the source of the wide
service-time spread the paper exploits (queries over rare term
combinations scan deep into the index before finding enough matches;
common combinations terminate quickly).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence, Tuple

from repro.errors import QueryError


@dataclass(frozen=True)
class Query:
    """An immutable search query.

    Attributes
    ----------
    term_ids:
        The query's terms (vocabulary ids). Duplicates are removed and
        order is normalized at construction.
    k:
        Number of results to return (top-k).
    query_id:
        Optional external identifier (trace position, arrival index...).
    """

    term_ids: Tuple[int, ...]
    k: int = 10
    query_id: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.term_ids:
            raise QueryError("query must contain at least one term")
        for term in self.term_ids:
            # int() would silently truncate 1.7, parse '5' and turn True
            # into term 1; numpy integers are Integral and pass.
            if isinstance(term, bool) or not isinstance(term, Integral):
                raise QueryError(f"term ids must be integers, got {term!r}")
        normalized = tuple(sorted(set(int(t) for t in self.term_ids)))
        if any(t < 0 for t in normalized):
            raise QueryError("term ids must be non-negative")
        object.__setattr__(self, "term_ids", normalized)
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise QueryError(f"k must be a positive integer, got {self.k!r}")

    @property
    def n_terms(self) -> int:
        return len(self.term_ids)

    @staticmethod
    def of(terms: Sequence[int], k: int = 10, query_id: Optional[int] = None) -> "Query":
        """Convenience constructor from any term-id sequence."""
        return Query(term_ids=tuple(terms), k=k, query_id=query_id)

    def __repr__(self) -> str:
        terms = ",".join(str(t) for t in self.term_ids)
        return f"Query([{terms}], k={self.k})"
