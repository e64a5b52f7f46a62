"""Speedup and efficiency profiles.

:class:`SpeedupProfile` summarizes a :class:`QueryCostTable` into the two
curves the adaptive policy reasons about:

* ``speedup(p)`` — how much faster a query finishes with ``p`` workers
  (optionally per query-length class: long queries parallelize far
  better than short ones);
* ``work_inflation(p)`` — how much *total CPU* a degree-``p`` execution
  consumes relative to sequential. This is the throughput tax of
  parallelism: an ISN whose queries all run at degree ``p`` saturates at
  ``1 / work_inflation(p)`` times the sequential saturation rate.

:class:`ParametricSpeedup` is a closed-form Amdahl-plus-waste model
fitted to the measured curve; the analytic threshold derivation and the
pure-simulation experiments use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProfileError
from repro.profiles.measurement import QueryCostTable
from repro.util.validation import require

#: Query-length classes, at equal-population quantiles of t(1).
CLASS_NAMES = ("short", "medium", "long")


class SpeedupProfile:
    """Measured speedup/efficiency summary of a query population."""

    def __init__(self, table: QueryCostTable) -> None:
        n_classes = len(CLASS_NAMES)
        if table.n_queries < n_classes:
            raise ProfileError(
                f"need at least {n_classes} queries to build {n_classes} classes"
            )
        self.table = table
        self.degrees = table.degrees
        self.n_classes = n_classes

        t1 = table.sequential_latencies()
        # Class boundaries at equal-population quantiles of t(1).
        edges = np.percentile(t1, np.linspace(0, 100, n_classes + 1)[1:-1])
        self.class_edges = np.asarray(edges, dtype=np.float64)
        self.class_of_query = np.digitize(t1, self.class_edges)

        # mean_speedup[c][p] over queries of class c; aggregate work
        # inflation uses CPU-time sums (capacity is about total work).
        self._mean_speedup: List[Dict[int, float]] = []
        for cls in range(n_classes):
            mask = self.class_of_query == cls
            per_degree = {}
            for p in self.degrees:
                per_degree[p] = float(table.speedups(p)[mask].mean())
            self._mean_speedup.append(per_degree)
        self._overall_speedup = {
            p: float(table.speedups(p).mean()) for p in self.degrees
        }
        self._work_inflation = {
            p: table.mean_work_inflation(p) for p in self.degrees
        }

    def class_name(self, cls: int) -> str:
        return CLASS_NAMES[cls]

    def speedup(self, degree: int, cls: Optional[int] = None) -> float:
        """Mean speedup at ``degree``, overall or for one class."""
        self.table.degree_column(degree)  # validates the degree
        if cls is None:
            return self._overall_speedup[degree]
        if not 0 <= cls < self.n_classes:
            raise ProfileError(f"class {cls} outside [0, {self.n_classes})")
        return self._mean_speedup[cls][degree]

    def work_inflation(self, degree: int) -> float:
        """Aggregate CPU inflation V(p) = total_cpu(p) / total_cpu(1)."""
        self.table.degree_column(degree)
        return self._work_inflation[degree]

    def rows(self) -> List[Tuple]:
        """Tabular view: one row per (class, degree)."""
        out: List[Tuple] = []
        for cls in range(self.n_classes):
            for p in self.degrees:
                out.append((self.class_name(cls), p, self.speedup(p, cls)))
        return out

    def __repr__(self) -> str:
        parts = ", ".join(
            f"S({p})={self._overall_speedup[p]:.2f}" for p in self.degrees
        )
        return f"SpeedupProfile({parts})"


@dataclass(frozen=True)
class ParametricSpeedup:
    """Amdahl-plus-waste speedup model.

    ``S(p) = 1 / (serial + (1 - serial) / p + waste * (p - 1))``

    ``serial`` is the non-parallelizable fraction of a query; ``waste``
    captures per-worker overhead and speculative extra work. The implied
    work inflation is ``V(p) = p / S(p)``.
    """

    serial: float = 0.05
    waste: float = 0.01

    def __post_init__(self) -> None:
        require(0.0 <= self.serial <= 1.0, "serial must be within [0, 1]")
        require(self.waste >= 0.0, "waste must be >= 0")

    def speedup(self, degree: int) -> float:
        if degree < 1:
            raise ProfileError(f"degree must be >= 1, got {degree}")
        denom = self.serial + (1.0 - self.serial) / degree + self.waste * (degree - 1)
        return 1.0 / denom

    @staticmethod
    def fit(degrees: Sequence[int], speedups: Sequence[float]) -> "ParametricSpeedup":
        """Least-squares fit of (serial, waste) to measured ``1/S`` values.

        ``1/S(p) = serial + (1 - serial)/p + waste*(p-1)`` is linear in
        (serial, waste) after moving the ``1/p`` term: with
        ``y = 1/S - 1/p`` and basis ``[(1 - 1/p), (p - 1)]``.
        """
        ps = np.asarray(list(degrees), dtype=np.float64)
        ss = np.asarray(list(speedups), dtype=np.float64)
        if ps.shape != ss.shape or ps.size == 0:
            raise ProfileError("degrees and speedups must be equal-length, non-empty")
        if np.any(ss <= 0):
            raise ProfileError("speedups must be positive")
        y = 1.0 / ss - 1.0 / ps
        basis = np.stack([1.0 - 1.0 / ps, ps - 1.0], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, y, rcond=None)
        serial = float(np.clip(coeffs[0], 0.0, 1.0))
        waste = float(max(coeffs[1], 0.0))
        return ParametricSpeedup(serial=serial, waste=waste)

    @staticmethod
    def fit_profile(profile: SpeedupProfile) -> "ParametricSpeedup":
        """Fit to a measured profile's overall speedup curve."""
        return ParametricSpeedup.fit(
            profile.degrees, [profile.speedup(p) for p in profile.degrees]
        )
