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
from repro.util.validation import require_in_range, require_positive

#: The bisection's bracket, as fractions of sequential saturation.
_LOW_UTILIZATION = 0.02
_HIGH_UTILIZATION = 1.2
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
    tolerance: float = 0.02,
    duration: float = 15.0,
    warmup: float = 3.0,
) -> CapacityResult:
    """Bisect on the arrival rate for the highest P99-compliant load.

    ``tolerance`` is the bisection stopping width, as a fraction of the
    sequential saturation rate. The returned capacity is the highest
    *probed* compliant rate (conservative).
    """
    require_positive(slo, "slo")
    require_in_range(tolerance, "tolerance", low=1e-4, high=0.5)

    evaluated: List[Tuple[float, float]] = []

    def p99_at(utilization: float) -> float:
        rate = system.rate_for_utilization(utilization)
        summary = system.run_point(
            policy_name, rate, duration=duration, warmup=warmup, seed=_SEED
        )
        evaluated.append((rate, summary.p99_latency))
        return summary.p99_latency

    low, high = _LOW_UTILIZATION, _HIGH_UTILIZATION
    if p99_at(low) > slo:
        # SLO unattainable even at trivial load.
        return CapacityResult(
            policy=policy_name,
            slo=slo,
            capacity_qps=0.0,
            capacity_utilization=0.0,
            evaluated_points=tuple(evaluated),
        )
    if p99_at(high) <= slo:
        return CapacityResult(
            policy=policy_name,
            slo=slo,
            capacity_qps=system.rate_for_utilization(high),
            capacity_utilization=high,
            evaluated_points=tuple(evaluated),
        )
    best = low
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if p99_at(mid) <= slo:
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
