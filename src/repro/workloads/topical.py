"""Topic-coherent query generation for topical corpora.

Users query about *a topic*, not about independent random words. Given
a :class:`~repro.corpus.topical.TopicModel`, this generator picks a
topic per query and draws the query's terms from that topic's
distribution (falling back to the background for a small off-topic
fraction), so conjunctive matches are governed by topical
co-occurrence rather than popularity products.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.corpus.topical import TopicModel
from repro.engine.query import Query
from repro.util.rng import make_rng
from repro.util.validation import require_int_in_range
from repro.workloads.queries import TOP_K, QueryWorkloadConfig

#: Share of a query's term draws that come from the background
#: distribution instead of its topic.
OFF_TOPIC_FRACTION = 0.15
#: Fraction of queries that straddle two topics. These are the "hard"
#: queries of a topical stream: their terms rarely co-occur, so they
#: scan deep — the tail of the service-time distribution, without which
#: a topical workload degenerates into uniformly cheap queries.
CROSS_TOPIC_FRACTION = 0.3


class TopicalQueryGenerator:
    """Endless stream of topic-coherent queries."""

    def __init__(
        self,
        model: TopicModel,
        config: Optional[QueryWorkloadConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = model
        self.config = config or QueryWorkloadConfig(
            vocab_size=model.vocab_size
        )
        self._rng = rng or make_rng(self.config.seed)
        self._next_id = 0

    def sample_term_count(self) -> int:
        count = int(self._rng.geometric(self.config.term_count_p))
        return min(count, self.config.max_terms)

    def sample(self) -> Query:
        n_terms = self.sample_term_count()
        first_topic = int(self._rng.integers(self.model.n_topics))
        topics = [first_topic]
        if (
            n_terms > 1
            and self.model.n_topics > 1
            and self._rng.random() < CROSS_TOPIC_FRACTION
        ):
            second = int(self._rng.integers(self.model.n_topics))
            if second != first_topic:
                topics.append(second)
        terms: List[int] = []
        seen = set()
        attempts = 0
        while len(terms) < n_terms and attempts < 50 * n_terms:
            attempts += 1
            if self._rng.random() < OFF_TOPIC_FRACTION:
                draw = int(self.model.background.sample(self._rng))
            else:
                topic = topics[len(terms) % len(topics)]
                draw = int(self.model.sample_topic_terms(topic, self._rng, 1)[0])
            if draw not in seen:
                seen.add(draw)
                terms.append(draw)
        query = Query.of(
            terms,
            k=TOP_K,
            mode=self.config.mode,
            query_id=self._next_id,
        )
        self._next_id += 1
        return query

    def sample_many(self, n: int) -> List[Query]:
        require_int_in_range(n, "n", low=0)
        return [self.sample() for _ in range(n)]

    def __iter__(self) -> Iterator[Query]:
        while True:
            yield self.sample()
