"""SLA-constrained capacity: the peak sustainable throughput of a policy.

The paper's throughput comparison asks: at what arrival rate does each
configuration stop meeting the tail-latency SLO? :func:`capacity_at_slo`
answers it by bisecting on the arrival rate with the discrete-event
simulator as the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.controller import AdaptiveSearchSystem
from repro.util.validation import require_positive

#: The bisection's bracket, as fractions of sequential saturation.
_LOW_UTILIZATION = 0.02
_HIGH_UTILIZATION = 1.2
#: The bisection's stopping width, as a fraction of sequential saturation.
_TOLERANCE = 0.02
#: Every probe replays the same arrival stream.
_SEED = 7


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of a capacity search for one policy."""

    policy: str
    slo: float
    capacity_qps: float
    capacity_utilization: float  # as a fraction of sequential saturation
    evaluated_points: Tuple[Tuple[float, float], ...]  # (rate, p99)


def capacity_at_slo(
    system: AdaptiveSearchSystem,
    policy_name: str,
    slo: float,
    duration: float = 15.0,
    warmup: float = 3.0,
) -> CapacityResult:
    """Bisect on the arrival rate for the highest P99-compliant load.

    The returned capacity is the highest *probed* compliant rate
    (conservative).
    """
    require_positive(slo, "slo")

    evaluated: List[Tuple[float, float]] = []

    def compliant(utilization: float) -> bool:
        # A NaN P99 (no query completed in the window) is a violation.
        rate = system.rate_for_utilization(utilization)
        summary = system.run_point(
            policy_name, rate, duration=duration, warmup=warmup, seed=_SEED
        )
        evaluated.append((rate, summary.p99_latency))
        return summary.p99_latency <= slo

    low, high = _LOW_UTILIZATION, _HIGH_UTILIZATION
    if not compliant(low):
        # SLO unattainable even at trivial load.
        return CapacityResult(
            policy=policy_name,
            slo=slo,
            capacity_qps=0.0,
            capacity_utilization=0.0,
            evaluated_points=tuple(evaluated),
        )
    if compliant(high):
        return CapacityResult(
            policy=policy_name,
            slo=slo,
            capacity_qps=system.rate_for_utilization(high),
            capacity_utilization=high,
            evaluated_points=tuple(evaluated),
        )
    best = low
    while high - low > _TOLERANCE:
        mid = (low + high) / 2.0
        if compliant(mid):
            best = mid
            low = mid
        else:
            high = mid
    return CapacityResult(
        policy=policy_name,
        slo=slo,
        capacity_qps=system.rate_for_utilization(best),
        capacity_utilization=best,
        evaluated_points=tuple(evaluated),
    )
