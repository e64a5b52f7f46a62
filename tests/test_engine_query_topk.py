"""Tests for Query parsing/normalization and the TopK heap."""

import numpy as np
import pytest

from repro.engine.query import Query
from repro.engine.topk import TopK
from repro.errors import ExecutionError, QueryError


class TestQuery:
    def test_terms_deduped_and_sorted(self):
        q = Query.of([5, 2, 5, 9])
        assert q.term_ids == (2, 5, 9)
        assert q.n_terms == 3

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            Query.of([])

    def test_negative_term_rejected(self):
        with pytest.raises(QueryError):
            Query.of([-1])

    @pytest.mark.parametrize("term", [1.7, 2.0, True, "5", None])
    def test_non_integer_term_rejected(self, term):
        with pytest.raises(QueryError):
            Query.of([3, term])

    def test_numpy_integer_terms_accepted(self):
        q = Query.of(np.array([7, 3], dtype=np.int64))
        assert q.term_ids == (3, 7)
        assert all(type(t) is int for t in q.term_ids)

    def test_bad_k_rejected(self):
        with pytest.raises(QueryError):
            Query.of([1], k=0)
        with pytest.raises(QueryError):
            Query.of([1], k=True)

    def test_immutability(self):
        q = Query.of([1])
        with pytest.raises(Exception):
            q.k = 5


class TestTopK:
    def test_keeps_k_best(self):
        topk = TopK(3)
        for doc_id, score in enumerate([1.0, 5.0, 3.0, 4.0, 2.0]):
            topk.offer(score, doc_id)
        assert topk.doc_ids() == [1, 3, 2]
        assert topk.scores() == [5.0, 4.0, 3.0]

    def test_threshold_before_full_is_minus_inf(self):
        topk = TopK(2)
        topk.offer(1.0, 0)
        assert topk.threshold == float("-inf")
        topk.offer(2.0, 1)
        assert topk.threshold == 1.0

    def test_tie_prefers_lower_doc_id(self):
        topk = TopK(1)
        topk.offer(1.0, 5)
        admitted = topk.offer(1.0, 9)  # same score, higher id: loses
        assert not admitted
        admitted = topk.offer(1.0, 2)  # same score, lower id: wins
        assert admitted
        assert topk.doc_ids() == [2]

    def test_results_sorted_desc_then_id_asc(self):
        topk = TopK(4)
        topk.offer(1.0, 10)
        topk.offer(1.0, 3)
        topk.offer(2.0, 7)
        assert topk.results() == [(7, 2.0), (3, 1.0), (10, 1.0)]

    def test_offer_many_matches_sequential_offers(self, rng):
        scores = rng.random(200)
        doc_ids = np.arange(200)
        batched = TopK(10)
        batched.offer_many(scores, doc_ids)
        single = TopK(10)
        for s, d in zip(scores, doc_ids):
            single.offer(float(s), int(d))
        assert batched.results() == single.results()

    def test_offer_many_empty(self):
        topk = TopK(3)
        assert topk.offer_many(np.empty(0), np.empty(0, dtype=np.int64)) == 0

    def test_offer_many_mismatched_rejected(self):
        with pytest.raises(ExecutionError):
            TopK(3).offer_many(np.zeros(2), np.zeros(3, dtype=np.int64))

    def test_copy_is_independent(self):
        topk = TopK(2)
        topk.offer(1.0, 0)
        clone = topk.copy()
        clone.offer(2.0, 1)
        assert len(topk) == 1 and len(clone) == 2

    def test_invalid_k_rejected(self):
        with pytest.raises(ExecutionError):
            TopK(0)
