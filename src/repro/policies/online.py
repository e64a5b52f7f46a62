"""Online degree-threshold control: close the loop the paper leaves open.

The paper's adaptive policy maps instantaneous load to a degree through
a threshold table derived **offline** from a stationary profile. Under
regime shifts (diurnal swings, flash crowds, attacks) the offline table
is mis-calibrated exactly when it matters: thresholds tuned for the
average regime over-parallelize during overload and under-parallelize
when the machine is idle.

This module keeps the paper's constant-time dispatch decision but makes
the *calibration* a runtime quantity:

* :class:`OnlineAdaptivePolicy` wraps a
  :class:`~repro.policies.adaptive.ThresholdTable` with two runtime
  knobs — a **threshold scale** (``scale < 1`` inflates the perceived
  load, narrowing degrees earlier; ``scale > 1`` relaxes it) and a
  **max-degree cap** (a degradation-mode clamp). Dispatch stays a table
  lookup.
* :class:`OnlineDegreeController` is the feedback loop: every control
  window it reads windowed tail latency and shed rate from the run's
  :class:`~repro.sim.metrics.MetricsCollector` and nudges the knobs —
  with a *deadband* (hysteresis) around the tail-latency setpoint and a
  *bounded multiplicative step*, so the loop is stable under noisy
  feedback instead of chattering.

The controller mutates only its policy and the server's admission cap,
ticks strictly periodically and draws no randomness, keeping runs
bit-identical for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Any, List, Optional

import numpy as np

from repro.core.clock import SchedulerProtocol
from repro.errors import ConfigurationError
from repro.obs.registry import every
from repro.obs.spans import NULL_TRACER, Tracer
from repro.policies.adaptive import ThresholdTable
from repro.policies.base import ParallelismPolicy, QueryInfo, SystemState
from repro.util.validation import (
    require,
    require_in_range,
    require_int_in_range,
    require_positive,
)


class OnlineAdaptivePolicy(ParallelismPolicy):
    """Threshold-table policy with runtime-adjustable calibration.

    With ``scale == 1`` and an unconstrained cap this is exactly the
    offline :class:`~repro.policies.adaptive.AdaptivePolicy` decision
    (pinned by tests). The controller moves ``scale`` within configured
    bounds; the anomaly guard may additionally cap the degree during
    degradation.
    """

    def __init__(self, table: ThresholdTable) -> None:
        self.table = table
        self.name = "online-adaptive"
        self._scale = 1.0
        self._max_degree_cap = table.max_degree

    @property
    def scale(self) -> float:
        """Current threshold scale (1.0 = the offline calibration)."""
        return self._scale

    @property
    def max_degree_cap(self) -> int:
        """Current degradation cap on granted degrees."""
        return self._max_degree_cap

    def apply_control(
        self,
        scale: Optional[float] = None,
        max_degree_cap: Optional[int] = None,
    ) -> None:
        """Install new control outputs (validated; partial updates ok)."""
        if scale is not None:
            if not isinstance(scale, Real) or not math.isfinite(scale) or scale <= 0:
                raise ConfigurationError(
                    f"scale must be a finite number > 0, got {scale!r}"
                )
            self._scale = float(scale)
        if max_degree_cap is not None:
            require_int_in_range(
                max_degree_cap, "max_degree_cap", low=1,
                high=self.table.max_degree,
            )
            self._max_degree_cap = max_degree_cap

    def choose_degree(self, state: SystemState, info: QueryInfo) -> int:
        # Scaling the load measure is equivalent to scaling every table
        # limit but keeps the lookup exact on integer loads: perceived
        # load is n/scale, so scale < 1 reaches the narrow-degree rows
        # of the table at lower true load.
        n_effective = max(1, int(math.ceil(state.n_in_system / self._scale)))
        degree = self.table.degree_for(n_effective)
        return self._validate(min(degree, self._max_degree_cap))

    def __repr__(self) -> str:
        return (
            f"OnlineAdaptivePolicy(scale={self._scale:.3f}, "
            f"cap={self._max_degree_cap}, {self.table.describe()})"
        )


@dataclass(frozen=True)
class OnlineControllerConfig:
    """Feedback-loop parameters for :class:`OnlineDegreeController`.

    ``target_p99_s`` is the tail-latency setpoint (normally the SLO);
    the controller leaves the policy alone while windowed P99 stays
    inside ``target · (1 ± deadband)`` — the hysteresis band that
    prevents limit cycles — and otherwise moves the threshold scale by
    at most a factor of ``(1 ± step)`` per window, clamped to
    ``[min_scale, max_scale]``.
    """

    target_p99_s: float
    window_s: float
    step: float = 0.25
    deadband: float = 0.15
    min_scale: float = 0.25
    max_scale: float = 2.0
    #: Shed-rate level treated as overload regardless of observed P99
    #: (under deep overload completions are censored survivors: the
    #: queries that would have dragged P99 up were shed, so the latency
    #: signal alone under-reports distress).
    shed_rate_high: float = 0.05
    #: Minimum windowed completions before the latency signal is
    #: trusted; windows with fewer observations leave the knobs alone.
    min_samples: int = 8

    def __post_init__(self) -> None:
        require_positive(self.target_p99_s, "target_p99_s")
        require_positive(self.window_s, "window_s")
        require_in_range(
            self.step, "step", low=0.0, high=1.0,
            low_inclusive=False, high_inclusive=False,
        )
        require_in_range(
            self.deadband, "deadband", low=0.0, high=1.0, high_inclusive=False
        )
        require_positive(self.min_scale, "min_scale")
        require(
            self.max_scale >= self.min_scale,
            f"max_scale ({self.max_scale}) must be >= min_scale "
            f"({self.min_scale})",
        )
        require_in_range(
            self.shed_rate_high, "shed_rate_high", low=0.0, high=1.0,
            low_inclusive=False,
        )
        require_int_in_range(self.min_samples, "min_samples", low=1)


@dataclass(frozen=True)
class ControlDecision:
    """One control-tick record (kept for tests and offline analysis)."""

    time_s: float
    p99_s: float  # windowed observed P99 (nan when too few samples)
    shed_rate: float  # windowed shed fraction of demand
    n_completed: int
    n_shed: int
    scale: float  # scale in force *after* this tick
    action: str  # "tighten" | "relax" | "hold"


class OnlineDegreeController:
    """Windowed tail-latency/shed-rate feedback onto an online policy.

    Attach one to a run via
    :func:`repro.sim.experiment.run_load_point`'s ``controllers``
    argument. Each tick it reads the completions and sheds recorded by
    the run's :class:`~repro.sim.metrics.MetricsCollector` since the
    previous tick — the same accounting the obs metric timelines sample
    — computes windowed P99 and shed rate, and applies a bounded,
    hysteresis-guarded multiplicative update to the policy's threshold
    scale. Decisions are recorded in :attr:`decisions` and emitted as
    ``control.adjust`` lifecycle events on the tracer.
    """

    def __init__(
        self,
        policy: OnlineAdaptivePolicy,
        config: OnlineControllerConfig,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not isinstance(policy, OnlineAdaptivePolicy):
            raise ConfigurationError(
                "OnlineDegreeController requires an OnlineAdaptivePolicy, "
                f"got {type(policy).__name__}"
            )
        self.policy = policy
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.decisions: List[ControlDecision] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(
        self, simulator: SchedulerProtocol, server: Any, collector: Any,
        horizon_s: float,
    ) -> None:
        """Tick once a window on the driving event loop (any
        SchedulerProtocol: the virtual-time simulator or a wall-clock
        runtime adapter; the controller never learns which)."""
        del server  # the degree controller acts through the policy only
        read_window = collector.window_reader()
        window_s = self.config.window_s
        every(simulator, window_s, window_s, horizon_s,
              lambda now_s: self._tick(now_s, read_window()))

    # ------------------------------------------------------------------
    # Control law
    # ------------------------------------------------------------------

    def _tick(self, now_s: float, window: Any) -> None:
        config = self.config
        latencies = window.latencies
        n_completed = int(latencies.size)
        n_shed = window.n_shed
        demand = n_completed + n_shed
        shed_rate = n_shed / demand if demand else 0.0
        if n_completed >= config.min_samples:
            p99_s = float(np.percentile(latencies, 99))
        else:
            p99_s = float("nan")
        high_bar_s = config.target_p99_s * (1.0 + config.deadband)
        low_bar_s = config.target_p99_s * (1.0 - config.deadband)
        overloaded = shed_rate > config.shed_rate_high or (
            not math.isnan(p99_s) and p99_s > high_bar_s
        )
        calm = (
            shed_rate == 0.0
            and not math.isnan(p99_s)
            and p99_s < low_bar_s
        )
        scale = self.policy.scale
        if overloaded:
            action = "tighten"
            scale = max(config.min_scale, scale * (1.0 - config.step))
        elif calm:
            action = "relax"
            scale = min(config.max_scale, scale * (1.0 + config.step))
        else:
            action = "hold"
        if action != "hold":
            self.policy.apply_control(scale=scale)
        self.decisions.append(
            ControlDecision(
                time_s=now_s,
                p99_s=p99_s,
                shed_rate=shed_rate,
                n_completed=n_completed,
                n_shed=n_shed,
                scale=self.policy.scale,
                action=action,
            )
        )
        if self.tracer.enabled and action != "hold":
            self.tracer.on_lifecycle_event(
                "control.adjust",
                now_s,
                {
                    "action": action,
                    "scale": self.policy.scale,
                    "p99_s": p99_s,
                    "shed_rate": shed_rate,
                },
            )


__all__ = [
    "OnlineAdaptivePolicy",
    "OnlineControllerConfig",
    "OnlineDegreeController",
    "ControlDecision",
]
