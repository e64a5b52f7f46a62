"""Online anomaly detection, SLA validation, and guarded degradation.

The online degree controller (:mod:`repro.policies.online`) keeps the
node near its tail-latency setpoint under *gradual* regime drift. This
module handles the shifts adaptation alone cannot absorb — flash
crowds, slow-query floods, query-of-death repetition — with three
cooperating pieces, patterned on the G/G/c/K + SLA-validation exemplars
from the capacity-planning literature:

* :class:`EwmaCusumDetector` — a one-sided CUSUM over standardized
  deviations from an EWMA baseline. The EWMA tracks the signal's slow
  component (diurnal drift is *normal*); the CUSUM accumulates only
  sustained positive surprise, so a step change (burst onset) alarms in
  a few windows while noise does not.
* :class:`SlaValidator` — windowed SLO attainment against an
  ``(epsilon, window)`` SLA: the window violates the SLA when more than
  ``epsilon`` of its demand (completions + sheds) missed the bar.
* :class:`AnomalyGuard` — the actuator. It samples arrival rate and
  windowed P99 each window, feeds the detectors, and walks an explicit
  degradation ladder::

      NORMAL -> DEGRADED            (cap the max degree)
             -> SHEDDING            (tighten admission, shed by class)

  Escalation climbs one rung per window, and only when a detector
  alarm and an SLA violation land in the *same* window — an anomalous
  surge the policy absorbs, or plain cost-visible overload the degree
  controller is already handling, leaves the ladder alone.
  De-escalation requires ``recovery_windows`` consecutive clean
  windows (hysteresis, so the guard does not flap at a regime edge).
  Every transition is recorded
  as an ``anomaly.*`` lifecycle event on the tracer, giving traces a
  first-class record of *when* and *why* the node degraded.

Like the controller, the guard only mutates explicit knobs (policy
degree cap, server admission cap, server shed classes) and never draws
randomness, so guarded runs stay bit-identical for a given seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.clock import SchedulerProtocol
from repro.obs.registry import every
from repro.obs.spans import NULL_TRACER, Tracer
from repro.policies.online import OnlineAdaptivePolicy
from repro.sim.metrics import MetricsCollector, Window
from repro.util.validation import (
    require,
    require_in_range,
    require_int_in_range,
    require_positive,
)

#: Observations a detector trains on before it scores any.
CUSUM_WARMUP = 8


class EwmaCusumDetector:
    """One-sided CUSUM on EWMA-standardized deviations.

    ``update(x)`` folds one observation in and returns True while the
    statistic exceeds the decision threshold. The baseline mean is an
    EWMA with smoothing ``alpha``; the variance of deviations is an EWMA
    with smoothing ``alpha / 4`` (a noisy scale estimate fattens the
    standardized tails, so the scale adapts slower than the level).
    Deviations are standardized before entering the CUSUM recursion
    ``S <- max(0, S + z - k)``, so ``k`` (slack) and ``h`` (threshold)
    are in sigma units, independent of the signal's scale. The defaults
    (``k = 1``, ``h = 5``) are tuned for *regime* detection: window
    statistics shift by many sigma at a burst onset, while diurnal
    drift and sampling noise stay inside the slack.

    The statistic is additionally clamped to ``2h`` (a CUSUM ceiling):
    without it, a large shift parks ``S`` arbitrarily high and the alarm
    cannot clear for ``S/k`` windows after the signal normalizes. With
    the ceiling, recovery takes at most ``h/k`` windows once deviations
    return to baseline. The first ``CUSUM_WARMUP`` observations only
    train the baseline (no scoring): a freshly started detector has no variance
    estimate, and scoring against a cold one turns ordinary noise into
    huge standardized surprises.
    """

    def __init__(self, alpha: float, k: float = 1.0, h: float = 5.0) -> None:
        require_in_range(
            alpha, "alpha", low=0.0, high=1.0,
            low_inclusive=False, high_inclusive=False,
        )
        require_positive(k, "k", strict=False)
        require_positive(h, "h")
        self.alpha = float(alpha)
        self.k = float(k)
        self.h = float(h)
        self._n_observed = 0
        self._mean: Optional[float] = None
        self._var = 0.0
        self._cusum = 0.0

    @property
    def mean(self) -> float:
        """Current EWMA baseline (nan before the first observation)."""
        return self._mean if self._mean is not None else float("nan")

    @property
    def statistic(self) -> float:
        """Current one-sided CUSUM value (sigma units)."""
        return self._cusum

    def update(self, value: float) -> bool:
        """Fold one observation in; True while the detector is alarming."""
        if not math.isfinite(value):
            return self._cusum > self.h
        if self._mean is None:
            # First observation seeds the baseline; no surprise yet.
            self._mean = float(value)
            self._n_observed = 1
            return False
        deviation = float(value) - self._mean
        var_alpha = 0.25 * self.alpha
        if self._n_observed < CUSUM_WARMUP:
            # Still learning the baseline: train mean/variance, no
            # scoring.
            self._n_observed += 1
            self._mean += self.alpha * deviation
            self._var = (
                (1.0 - var_alpha) * self._var
                + var_alpha * deviation * deviation
            )
            return False
        sigma = math.sqrt(self._var) if self._var > 0 else 0.0
        if sigma <= 0:
            # Constant training signal: floor the scale at a sliver of
            # the baseline level, so any genuine shift still registers
            # as a large standardized surprise.
            sigma = 1e-6 * abs(self._mean)
        if sigma > 0:
            z = deviation / sigma
        else:
            z = 0.0 if deviation == 0 else math.inf
        z = min(z, 1e6)
        self._cusum = min(max(0.0, self._cusum + z - self.k), 2.0 * self.h)
        # Baseline adapts *after* scoring, and only while not alarming —
        # otherwise a sustained attack would be absorbed into "normal".
        alarming = self._cusum > self.h
        if not alarming:
            self._mean += self.alpha * deviation
            self._var = (
                (1.0 - var_alpha) * self._var
                + var_alpha * deviation * deviation
            )
        return alarming

    def reset(self) -> None:
        """Clear the alarm accumulator (baseline estimates are kept)."""
        self._cusum = 0.0


class SlaValidator:
    """Windowed SLA check: at most ``epsilon`` of demand may miss the bar.

    ``check`` returns True when the window *meets* the SLA. Windows with
    no demand vacuously pass.
    """

    def __init__(self, slo_s: float, epsilon: float) -> None:
        require_positive(slo_s, "slo_s")
        require_in_range(
            epsilon, "epsilon", low=0.0, high=1.0, high_inclusive=False
        )
        self.slo_s = float(slo_s)
        self.epsilon = float(epsilon)

    def check(self, latencies_s: "np.ndarray", n_shed: int) -> bool:
        """Validate one window; shed queries count as SLO misses."""
        demand = int(latencies_s.size) + int(n_shed)
        if demand == 0:
            return True
        misses = int(np.count_nonzero(latencies_s > self.slo_s)) + int(n_shed)
        return misses / demand <= self.epsilon


class DegradationLevel(enum.IntEnum):
    """The guard's explicit degradation ladder (ordered by severity)."""

    NORMAL = 0
    DEGRADED = 1  # max-degree capped
    SHEDDING = 2  # + admission tightened, attack classes shed

#: Smoothing, CUSUM slack and CUSUM threshold (sigma units) of the
#: guard's two detectors.
EWMA_ALPHA = 0.3
CUSUM_K = 1.0
CUSUM_H = 5.0


@dataclass(frozen=True)
class AnomalyGuardConfig:
    """Detector and degradation parameters for :class:`AnomalyGuard`.

    ``slo_s`` is the SLA bar; ``sla_epsilon`` the tolerated miss
    fraction per window. ``degraded_degree_cap`` is the max-degree
    clamp installed at :data:`DegradationLevel.DEGRADED`;
    ``shedding_queue_cap`` the admission cap installed at
    :data:`DegradationLevel.SHEDDING`; ``shed_classes`` the arrival
    classes dropped at the front door while shedding (ground-truth
    labels from :mod:`repro.sim.traffic` — a deployed system would
    substitute a query-fingerprint classifier).
    """

    slo_s: float
    window_s: float
    sla_epsilon: float = 0.05
    degraded_degree_cap: int = 4
    shedding_queue_cap: int = 8
    shed_classes: Tuple[str, ...] = ()
    recovery_windows: int = 2

    def __post_init__(self) -> None:
        require_positive(self.slo_s, "slo_s")
        require_positive(self.window_s, "window_s")
        require_in_range(
            self.sla_epsilon, "sla_epsilon", low=0.0, high=1.0,
            high_inclusive=False,
        )
        require_int_in_range(self.degraded_degree_cap, "degraded_degree_cap", low=1)
        require_int_in_range(self.shedding_queue_cap, "shedding_queue_cap", low=1)
        require_int_in_range(self.recovery_windows, "recovery_windows", low=1)
        for name in self.shed_classes:
            require(
                isinstance(name, str) and bool(name),
                f"shed_classes entries must be non-empty strings, got {name!r}",
            )


class AnomalyGuard:
    """Online anomaly detector + SLA validator driving degradation modes.

    Attach via :func:`repro.sim.experiment.run_load_point`'s
    ``controllers`` argument (the guard and the degree controller
    compose; the guard owns the degree *cap* and the admission knobs,
    the controller owns the threshold *scale*).
    """

    def __init__(
        self,
        config: AnomalyGuardConfig,
        policy: Optional[OnlineAdaptivePolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.rate_detector = EwmaCusumDetector(EWMA_ALPHA, CUSUM_K, CUSUM_H)
        self.p99_detector = EwmaCusumDetector(EWMA_ALPHA, CUSUM_K, CUSUM_H)
        self.validator = SlaValidator(config.slo_s, config.sla_epsilon)
        self.level = DegradationLevel.NORMAL
        #: (time_s, level) history of every transition, for tests/reports.
        self.transitions: List[Tuple[float, DegradationLevel]] = []
        self._clean_windows = 0
        self._server: Any = None
        self._baseline_queue_cap: Optional[int] = None
        self._baseline_degree_cap: Optional[int] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(
        self, simulator: SchedulerProtocol, server: Any,
        collector: MetricsCollector, horizon_s: float,
    ) -> None:
        """Tick once a window on the driving event loop."""
        self._server = server
        self._baseline_queue_cap = server.max_queue_length
        if self.policy is not None:
            self._baseline_degree_cap = self.policy.max_degree_cap
        read_window = collector.window_reader()
        window_s = self.config.window_s
        every(simulator, window_s, window_s, horizon_s,
              lambda now_s: self._tick(now_s, read_window()))

    # ------------------------------------------------------------------
    # Detection + actuation
    # ------------------------------------------------------------------

    def _set_level(self, level: DegradationLevel, now_s: float, cause: str) -> None:
        if level == self.level:
            return
        previous = self.level
        self.level = level
        self.transitions.append((now_s, level))
        # Actuate the ladder. Levels are cumulative going up and fully
        # reverted coming back down through each rung.
        if self.policy is not None and self._baseline_degree_cap is not None:
            cap = (
                self.config.degraded_degree_cap
                if level >= DegradationLevel.DEGRADED
                else self._baseline_degree_cap
            )
            self.policy.apply_control(
                max_degree_cap=min(cap, self._baseline_degree_cap)
            )
        if level >= DegradationLevel.SHEDDING:
            baseline = self._baseline_queue_cap
            self._server.max_queue_length = (
                min(self.config.shedding_queue_cap, baseline)
                if baseline is not None
                else self.config.shedding_queue_cap
            )
            self._server.shed_classes = frozenset(self.config.shed_classes)
        else:
            self._server.max_queue_length = self._baseline_queue_cap
            self._server.shed_classes = None
        if self.tracer.enabled:
            name = (
                "anomaly.degrade" if level > previous else "anomaly.recover"
            )
            self.tracer.on_lifecycle_event(
                name,
                now_s,
                {
                    "from": previous.name.lower(),
                    "to": level.name.lower(),
                    "cause": cause,
                },
            )

    def _tick(self, now_s: float, window: Window) -> None:
        rate_qps = window.n_arrivals / self.config.window_s
        latencies_s, n_shed = window.latencies, window.n_shed
        rate_alarm = self.rate_detector.update(rate_qps)
        p99_s = (
            float(np.percentile(latencies_s, 99))
            if latencies_s.size
            else float("nan")
        )
        p99_alarm = self.p99_detector.update(p99_s)
        sla_ok = self.validator.check(latencies_s, n_shed)
        anomalous = rate_alarm or p99_alarm
        if self.tracer.enabled and anomalous and self.level == DegradationLevel.NORMAL:
            self.tracer.on_lifecycle_event(
                "anomaly.alarm",
                now_s,
                {
                    "rate_alarm": rate_alarm,
                    "p99_alarm": p99_alarm,
                    "rate_qps": rate_qps,
                    "p99_s": p99_s,
                },
            )
        if anomalous and not sla_ok:
            # Escalation needs BOTH signals in the same window: the
            # traffic looks anomalous (detectors) AND the node is
            # actually failing its SLA (validator). A legitimate surge
            # the adaptive policy absorbs trips the detectors but keeps
            # the SLA, so the guard stays out of the way; plain overload
            # without an anomaly is the degree controller's job. One
            # rung per window: DEGRADED first, SHEDDING if the combined
            # condition persists.
            self._clean_windows = 0
            if self.level < DegradationLevel.SHEDDING:
                self._set_level(
                    DegradationLevel(int(self.level) + 1), now_s, "anomaly+sla"
                )
        elif anomalous or not sla_ok:
            # One signal alone: hold the ladder, but no recovery credit.
            self._clean_windows = 0
        else:
            self._clean_windows += 1
            if (
                self.level > DegradationLevel.NORMAL
                and self._clean_windows >= self.config.recovery_windows
            ):
                next_level = DegradationLevel(int(self.level) - 1)
                self._set_level(next_level, now_s, "recovered")
                self._clean_windows = 0
                self.rate_detector.reset()
                self.p99_detector.reset()


__all__ = [
    "EwmaCusumDetector",
    "SlaValidator",
    "DegradationLevel",
    "AnomalyGuardConfig",
    "AnomalyGuard",
]
