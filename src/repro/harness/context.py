"""Shared experiment context: one profiled system per scale and seed.

Building the reference shard and measuring the cost table takes tens of
seconds; every experiment shares one cached
:class:`~repro.core.controller.AdaptiveSearchSystem` per (scale, seed). The
``REPRO_SCALE`` environment variable (``small`` / ``reference``)
selects the scale globally, so CI can run the full harness quickly while
full runs use the paper-comparable configuration.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.controller import AdaptiveSearchSystem, SystemConfig
from repro.errors import ConfigurationError
from repro.obs.spans import Tracer
from repro.workloads.workbench import WorkbenchConfig, cached_workbench


class Scale(enum.Enum):
    """Experiment scale presets."""

    SMALL = "small"
    REFERENCE = "reference"

    @staticmethod
    def from_env() -> "Scale":
        raw = os.environ.get("REPRO_SCALE")
        if raw is None:
            return Scale.REFERENCE
        try:
            return Scale(raw.lower())
        except ValueError:
            raise ConfigurationError(
                f"REPRO_SCALE must be 'small' or 'reference', got {raw!r}"
            ) from None


@dataclass(frozen=True)
class _ScaleParams:
    """Per-scale knobs for experiment sizing."""

    n_profile_queries: int
    sim_duration: float
    sim_warmup: float
    utilization_grid: tuple
    capacity_duration: float

    @staticmethod
    def for_scale(scale: Scale) -> "_ScaleParams":
        if scale is Scale.SMALL:
            return _ScaleParams(
                n_profile_queries=300,
                sim_duration=4.0,
                sim_warmup=1.0,
                utilization_grid=(0.1, 0.3, 0.5, 0.7),
                capacity_duration=3.0,
            )
        return _ScaleParams(
            n_profile_queries=1_200,
            sim_duration=15.0,
            sim_warmup=3.0,
            utilization_grid=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
            capacity_duration=10.0,
        )


class ExperimentContext:
    """Lazily built experiment state, cached per (scale, seed)."""

    _SYSTEMS: Dict[Tuple[Scale, int], AdaptiveSearchSystem] = {}

    def __init__(
        self,
        scale: Optional[Scale] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.scale = scale if scale is not None else Scale.from_env()
        self.seed = seed
        self.params = _ScaleParams.for_scale(self.scale)
        #: Observability sink installed on the (shared) system while this
        #: context is the one driving it; None = untraced (the default).
        self.tracer = tracer

    def workbench_config(self) -> WorkbenchConfig:
        if self.scale is Scale.SMALL:
            return WorkbenchConfig.small(self.seed)
        return WorkbenchConfig.reference(self.seed)

    @property
    def system(self) -> AdaptiveSearchSystem:
        """The profiled system for this scale and seed (built once per
        process)."""
        key = (self.scale, self.seed)
        cached = self._SYSTEMS.get(key)
        if cached is None:
            workbench = cached_workbench(self.workbench_config())
            cached = AdaptiveSearchSystem.from_workbench(
                workbench,
                SystemConfig(n_queries=self.params.n_profile_queries, seed=self.seed),
            )
            self._SYSTEMS[key] = cached
        # The system instance is shared across contexts (cached per
        # scale and seed); the most recent context's tracer wins, and
        # the common untraced case keeps it cleared.
        cached.tracer = self.tracer
        return cached

    # Convenience pass-throughs used by most experiments -------------

    @property
    def sim_duration(self) -> float:
        return self.params.sim_duration

    @property
    def sim_warmup(self) -> float:
        return self.params.sim_warmup

    @property
    def utilization_grid(self) -> tuple:
        return self.params.utilization_grid

    def __repr__(self) -> str:
        return f"ExperimentContext(scale={self.scale.value}, seed={self.seed})"
