"""Zipf–Mandelbrot term-popularity model.

Web-corpus term frequencies famously follow a Zipf–Mandelbrot law:
``P(rank = r) ∝ 1 / (r + q)^s``. Posting-list lengths in the inverted
index inherit this skew, which is the structural property that makes web
query service times heavy-tailed — the property the paper's adaptive
parallelism exploits. This module provides an exact finite-support
sampler with O(log V) draws via inverse-CDF lookup.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import require_in_range, require_int_in_range, require_positive


class ZipfMandelbrot:
    """Finite Zipf–Mandelbrot distribution over ranks ``0..size-1``.

    Parameters
    ----------
    size:
        Support size (vocabulary size). Must be >= 1.
    exponent:
        The Zipf exponent ``s`` (> 0). Web text typically has s ≈ 1.0–1.2.
    shift:
        The Mandelbrot shift ``q`` (>= 0); flattens the head of the
        distribution, matching real vocabularies better than pure Zipf.
    """

    def __init__(self, size: int, exponent: float = 1.05, shift: float = 2.7) -> None:
        require_int_in_range(size, "size", low=1)
        require_positive(float(exponent), "exponent")
        require_in_range(float(shift), "shift", low=0.0)
        self.size = size
        self.exponent = float(exponent)
        self.shift = float(shift)
        ranks = np.arange(1, size + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks + self.shift, self.exponent)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        # Guard against floating-point drift in the final bucket.
        self._cdf[-1] = 1.0

    def pmf(self, rank: int) -> float:
        """Probability of drawing ``rank`` (0-based)."""
        if not 0 <= rank < self.size:
            raise ConfigurationError(f"rank {rank} outside [0, {self.size})")
        return float(self._pmf[rank])

    def pmf_array(self) -> np.ndarray:
        """Full probability vector (copy)."""
        return self._pmf.copy()

    def sample(
        self, rng: np.random.Generator, n: Optional[int] = None
    ) -> np.ndarray:
        """Draw ``n`` ranks (or a scalar when ``n`` is None)."""
        if n is None:
            u = rng.random()
            return int(np.searchsorted(self._cdf, u, side="left"))
        require_int_in_range(n, "n", low=0)
        u = rng.random(n)
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def __repr__(self) -> str:
        return (
            f"ZipfMandelbrot(size={self.size}, exponent={self.exponent}, "
            f"shift={self.shift})"
        )
