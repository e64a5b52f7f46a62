"""Tests for the BM25 and composite ranking components."""

import numpy as np
import pytest

from repro.ranking.bm25 import (
    BM25Params,
    bm25_idf,
    bm25_score_document,
    bm25_tf_component,
)
from repro.ranking.composite import ScoreWeights


class TestBM25:
    def test_idf_decreases_with_df(self):
        idf = bm25_idf(np.asarray([1, 10, 100, 1000]), n_docs=1000)
        assert np.all(np.diff(idf) < 0)

    def test_idf_positive(self):
        idf = bm25_idf(np.asarray([999]), n_docs=1000)
        assert idf[0] > 0

    def test_tf_saturates(self):
        params = BM25Params()
        tf = bm25_tf_component(
            np.asarray([1, 2, 4, 16, 256]), np.full(5, 100.0), 100.0, params
        )
        assert np.all(np.diff(tf) > 0)  # increasing...
        assert tf[-1] < params.k1 + 1.0  # ...but bounded by k1+1

    def test_length_normalization(self):
        params = BM25Params()
        short_doc = bm25_tf_component(
            np.asarray([2.0]), np.asarray([50.0]), 100.0, params
        )
        long_doc = bm25_tf_component(
            np.asarray([2.0]), np.asarray([400.0]), 100.0, params
        )
        assert short_doc[0] > long_doc[0]

    def test_b_zero_disables_length_norm(self):
        params = BM25Params(b=0.0)
        short_doc = bm25_tf_component(
            np.asarray([2.0]), np.asarray([50.0]), 100.0, params
        )
        long_doc = bm25_tf_component(
            np.asarray([2.0]), np.asarray([400.0]), 100.0, params
        )
        assert short_doc[0] == pytest.approx(long_doc[0])

    def test_reference_scorer_additive(self):
        params = BM25Params()
        single = bm25_score_document([3], [40], 120, 1000, 100.0, params)
        double = bm25_score_document([3, 3], [40, 40], 120, 1000, 100.0, params)
        assert double == pytest.approx(2 * single)

    def test_invalid_params_rejected(self):
        with pytest.raises(Exception):
            BM25Params(k1=0.0)
        with pytest.raises(Exception):
            BM25Params(b=1.5)


class TestComposite:
    def test_zero_static_weight_allowed(self):
        weights = ScoreWeights(relevance_weight=1.0, static_weight=0.0)
        assert weights.static_weight == 0.0
        with pytest.raises(Exception):
            ScoreWeights(relevance_weight=1.0, static_weight=-0.5)
