"""Bounded top-k result heap with deterministic tie-breaking.

Ordering: higher score wins; on exact score ties the *lower document id*
wins. Because the index is laid out in descending static-rank order,
preferring the lower doc id means preferring the higher static-rank
document, matching production behaviour — and it makes execution results
deterministic regardless of chunk merge order, which the parallel/
sequential equivalence tests rely on.

Internally a min-heap of ``(score, -doc_id)`` keys keeps the *worst*
retained result at the root, so the admission threshold is O(1).
"""

from __future__ import annotations

import heapq
from operator import neg
from typing import List, Tuple

import numpy as np

from repro.errors import ExecutionError


class TopK:
    """Maintains the k best (score, doc_id) pairs seen so far."""

    __slots__ = ("k", "_heap")

    def __init__(self, k: int) -> None:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ExecutionError(f"k must be a positive integer, got {k!r}")
        self.k = k
        # Min-heap of (score, -doc_id): the root is the weakest entry
        # under "higher score, then lower doc id, is better".
        self._heap: List[Tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        """Score a new document must *strictly beat* to enter (ties lose
        unless the new doc id is lower; see :meth:`offer`). ``-inf`` until
        the heap is full."""
        if len(self._heap) < self.k:
            return float("-inf")
        return self._heap[0][0]

    def offer(self, score: float, doc_id: int) -> bool:
        """Offer one candidate; returns True if it was admitted."""
        key = (float(score), -int(doc_id))
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, key)
            return True
        if key > self._heap[0]:
            heapq.heapreplace(self._heap, key)
            return True
        return False

    def offer_many(self, scores: np.ndarray, doc_ids: np.ndarray) -> int:
        """Offer a batch of candidates; returns how many were admitted.

        Equivalent to :meth:`offer` on each pair in order, for float64
        ``scores``. Both arrays become lists once. The heap is filled up
        to ``k``; then each remaining score is compared with the root's
        score, and only a candidate that reaches it builds a key and
        meets the root's tie-break. The root is re-read only after a
        replacement.
        """
        n = scores.shape[0]
        if n != doc_ids.shape[0]:
            raise ExecutionError("scores and doc_ids must be parallel arrays")
        if n == 0:
            return 0
        heap = self._heap
        scores = scores.tolist()
        doc_ids = doc_ids.tolist()
        admitted = 0
        room = self.k - len(heap)
        if room > 0:
            heap.extend(zip(scores[:room], map(neg, doc_ids[:room])))
            heapq.heapify(heap)
            if n < room:
                return n
            admitted = room
            scores = scores[room:]
            doc_ids = doc_ids[room:]
        root = heap[0]
        floor = root[0]
        for score, doc_id in zip(scores, doc_ids):
            if score >= floor:
                key = (score, -doc_id)
                if key > root:
                    heapq.heapreplace(heap, key)
                    root = heap[0]
                    floor = root[0]
                    admitted += 1
        return admitted

    def results(self) -> List[Tuple[int, float]]:
        """Ranked results, best first, as (doc_id, score) pairs."""
        ordered = sorted(self._heap, reverse=True)
        return [(-neg_doc, score) for score, neg_doc in ordered]

    def doc_ids(self) -> List[int]:
        return [doc_id for doc_id, _ in self.results()]

    def scores(self) -> List[float]:
        return [score for _, score in self.results()]

    def snapshot(self) -> List[Tuple[float, int]]:
        """The retained entries, for :meth:`restore`."""
        return list(self._heap)

    def restore(self, entries: List[Tuple[float, int]]) -> None:
        """Retain exactly ``entries`` (a :meth:`snapshot`) again, undoing
        every offer made since it was taken."""
        self._heap = list(entries)

    def copy(self) -> "TopK":
        clone = TopK(self.k)
        clone._heap = list(self._heap)
        return clone

    def __repr__(self) -> str:
        return f"TopK(k={self.k}, size={len(self)}, threshold={self.threshold:.4f})"
