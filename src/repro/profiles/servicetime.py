"""Sequential service-time distribution.

Wraps an empirical sample of sequential query latencies with the
statistics the experiments report (moments, percentiles) plus a
lognormal fit — the parametric path is used by the simulator-only
experiments (e.g. the queueing-theory validation) where no engine is in
the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ProfileError


@dataclass(frozen=True)
class LognormalFit:
    """MLE lognormal parameters of a positive sample."""

    mu: float
    sigma: float

    @property
    def mean(self) -> float:
        return float(np.exp(self.mu + self.sigma**2 / 2.0))

    @property
    def median(self) -> float:
        return float(np.exp(self.mu))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(mean=self.mu, sigma=self.sigma, size=n)


class ServiceTimeDistribution:
    """Empirical distribution of sequential service times (seconds)."""

    def __init__(self, samples: Sequence[float]) -> None:
        arr = np.asarray(samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ProfileError("samples must be a non-empty 1-D sequence")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ProfileError("service times must be positive and finite")
        self.samples = np.sort(arr)

    @property
    def n(self) -> int:
        return int(self.samples.shape[0])

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std(self) -> float:
        return float(self.samples.std(ddof=1)) if self.n > 1 else 0.0

    @property
    def squared_cv(self) -> float:
        """Squared coefficient of variation (key queueing-delay driver)."""
        return (self.std / self.mean) ** 2 if self.mean > 0 else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.samples, q))

    def tail_ratio(self) -> float:
        """Skew indicator: p99 / p50 (≈10–50 for web search)."""
        return self.percentile(99.0) / self.percentile(50.0)

    def fit_lognormal(self) -> LognormalFit:
        logs = np.log(self.samples)
        sigma = float(logs.std(ddof=1)) if self.n > 1 else 0.0
        return LognormalFit(mu=float(logs.mean()), sigma=sigma)

    def summary(self) -> dict:
        return {
            "n": self.n,
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.percentile(50) * 1e3,
            "p90_ms": self.percentile(90) * 1e3,
            "p95_ms": self.percentile(95) * 1e3,
            "p99_ms": self.percentile(99) * 1e3,
            "max_ms": float(self.samples[-1]) * 1e3,
            "squared_cv": self.squared_cv,
            "tail_ratio_p99_p50": self.tail_ratio(),
        }

    def __repr__(self) -> str:
        return (
            f"ServiceTimeDistribution(n={self.n}, mean={self.mean * 1e3:.3f}ms, "
            f"p99={self.percentile(99) * 1e3:.3f}ms)"
        )
