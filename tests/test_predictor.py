"""Tests for the query latency predictor."""

import numpy as np
import pytest

from repro.errors import PolicyError
from repro.policies.predictor import QueryLatencyPredictor


@pytest.fixture(scope="module")
def fitted(small_system):
    """Predictor trained inside the small system plus its holdout data."""
    table = small_system.cost_table
    t1 = table.sequential_latencies()
    n_train = max(2, table.n_queries // 2)
    return (
        small_system.predictor,
        table.queries[n_train:],
        t1[n_train:],
        small_system.workbench.engine,
    )


class TestPredictor:
    def test_unfitted_predict_rejected(self, small_system):
        fresh = QueryLatencyPredictor()
        with pytest.raises(PolicyError):
            fresh.predict_many(small_system.workbench.engine,
                               small_system.cost_table.queries[:1])

    def test_fit_validates_inputs(self, small_system):
        engine = small_system.workbench.engine
        queries = small_system.cost_table.queries[:3]
        with pytest.raises(PolicyError):
            QueryLatencyPredictor().fit(engine, queries, [1.0])  # length mismatch
        with pytest.raises(PolicyError):
            QueryLatencyPredictor().fit(engine, queries, [1.0, -1.0, 2.0])

    def test_predictions_positive(self, fitted):
        predictor, queries, _, engine = fitted
        predictions = predictor.predict_many(engine, queries)
        assert np.all(predictions > 0)

    def test_holdout_r2_reasonable(self, fitted):
        predictor, queries, actual, engine = fitted
        predictions = predictor.predict_many(engine, queries)
        r2 = QueryLatencyPredictor.r_squared(predictions, actual)
        assert r2 > 0.3, f"predictor uninformative: R^2={r2:.3f}"

    def test_r_squared_perfect_is_one(self):
        values = np.asarray([1.0, 2.0, 4.0])
        assert QueryLatencyPredictor.r_squared(values, values) == pytest.approx(1.0)

    def test_longer_scans_predicted_longer(self, fitted):
        """Queries in the top t1 decile should get higher predictions than
        those in the bottom decile, on average."""
        predictor, queries, actual, engine = fitted
        predictions = predictor.predict_many(engine, queries)
        lo, hi = np.percentile(actual, [10, 90])
        assert predictions[actual >= hi].mean() > predictions[actual <= lo].mean()
