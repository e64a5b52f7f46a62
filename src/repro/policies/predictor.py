"""Query service-time prediction from pre-execution features.

A small ridge regression on log-latency, using only features available
*before* executing the query (term count, posting-list statistics, and
the plan's candidate-chunk count — all metadata lookups). This powers
the predictive-parallelism extension: parallelize only queries predicted
to be long, approximating the oracle without clairvoyance.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.engine.executor import Engine
from repro.engine.query import Query
from repro.errors import PolicyError


def _features(engine: Engine, query: Query) -> np.ndarray:
    """Pre-execution feature vector for one query."""
    lexicon = engine.index.lexicon
    dfs = [lexicon.doc_frequency(t) for t in query.term_ids]
    min_df = min(dfs) if dfs else 0
    sum_df = sum(dfs)
    plan = engine.plan(query)
    return np.asarray(
        [
            1.0,
            float(query.n_terms),
            np.log1p(min_df),
            np.log1p(sum_df),
            np.log1p(plan.n_candidate_chunks),
        ],
        dtype=np.float64,
    )

#: Ridge penalty on the five coefficients.
_RIDGE = 1e-3


class QueryLatencyPredictor:
    """Ridge regression on log sequential latency."""

    def __init__(self) -> None:
        self._coef: Optional[np.ndarray] = None

    def fit(
        self,
        engine: Engine,
        queries: Sequence[Query],
        sequential_latencies: Sequence[float],
    ) -> "QueryLatencyPredictor":
        """Fit on a training sample of (query, measured t1) pairs."""
        y = np.asarray(sequential_latencies, dtype=np.float64)
        if len(queries) != y.shape[0] or y.size == 0:
            raise PolicyError("queries and latencies must be equal-length, non-empty")
        if np.any(y <= 0):
            raise PolicyError("latencies must be positive")
        design = np.stack([_features(engine, q) for q in queries])
        target = np.log(y)
        gram = design.T @ design + _RIDGE * np.eye(design.shape[1])
        self._coef = np.linalg.solve(gram, design.T @ target)
        return self

    def predict_many(self, engine: Engine, queries: Sequence[Query]) -> np.ndarray:
        if self._coef is None:
            raise PolicyError("predictor is not fitted")
        design = np.stack([_features(engine, q) for q in queries])
        return np.exp(design @ self._coef)

    @staticmethod
    def r_squared(predicted: np.ndarray, actual: np.ndarray) -> float:
        """Goodness of fit in log space."""
        lp, la = np.log(predicted), np.log(actual)
        ss_res = float(((lp - la) ** 2).sum())
        ss_tot = float(((la - la.mean()) ** 2).sum())
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
