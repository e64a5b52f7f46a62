"""Synthetic query workload.

Substitutes for the production query trace used in the paper. Two
properties of real web-query streams matter for the paper's dynamics and
are reproduced here:

* **Term-count distribution** — most queries have 1–3 terms, with a
  geometric-ish tail up to ``max_terms`` (web-search averages ≈ 2.4
  terms/query);
* **Query-term popularity** — query terms are drawn from a Zipfian
  distribution over the vocabulary, *more* head-skewed than corpus text
  (people search for common words). Together with conjunctive matching,
  this yields the heavy-tailed service-time distribution the paper
  reports: common-term queries fill the match budget within a few chunks,
  while queries containing rare terms (or rare term *combinations*) scan
  deep into the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.engine.query import Query
from repro.text.zipf import ZipfMandelbrot
from repro.util.rng import make_rng
from repro.util.validation import (
    require_in_range,
    require_int_in_range,
    require_positive,
)

#: Zipf–Mandelbrot shift of query-term popularity.
TERM_ZIPF_SHIFT = 1.0
#: Results every generated query asks for.
TOP_K = 10


@dataclass(frozen=True)
class QueryWorkloadConfig:
    """Parameters of the synthetic query stream."""

    vocab_size: int = 30_000
    term_zipf_exponent: float = 1.2
    term_count_p: float = 0.45  # geometric success prob; mean terms ≈ 1/p
    max_terms: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        require_int_in_range(self.vocab_size, "vocab_size", low=1)
        require_positive(self.term_zipf_exponent, "term_zipf_exponent")
        require_in_range(
            self.term_count_p, "term_count_p", low=0.0, high=1.0,
            low_inclusive=False, high_inclusive=True,
        )
        require_int_in_range(self.max_terms, "max_terms", low=1)


class QueryGenerator:
    """Draws an endless stream of queries from a workload config."""

    def __init__(
        self,
        config: Optional[QueryWorkloadConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config or QueryWorkloadConfig()
        self._rng = rng or make_rng(self.config.seed)
        self._zipf = ZipfMandelbrot(
            self.config.vocab_size,
            self.config.term_zipf_exponent,
            TERM_ZIPF_SHIFT,
        )
        self._next_id = 0

    def sample_term_count(self) -> int:
        """Number of terms for one query: truncated geometric, min 1."""
        count = int(self._rng.geometric(self.config.term_count_p))
        return min(count, self.config.max_terms)

    def sample(self) -> Query:
        """Draw the next query."""
        n_terms = self.sample_term_count()
        # Oversample then dedupe: conjunctive queries with duplicate terms
        # would silently shrink, skewing the term-count distribution.
        terms: List[int] = []
        seen = set()
        while len(terms) < n_terms:
            draw = int(self._zipf.sample(self._rng))
            if draw not in seen:
                seen.add(draw)
                terms.append(draw)
        query = Query.of(terms, k=TOP_K, query_id=self._next_id)
        self._next_id += 1
        return query

    def sample_many(self, n: int) -> List[Query]:
        """Draw ``n`` queries."""
        require_int_in_range(n, "n", low=0)
        return [self.sample() for _ in range(n)]

    def __iter__(self) -> Iterator[Query]:
        while True:
            yield self.sample()
