"""Policy comparison across a load sweep: envelopes and crossovers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.sim.experiment import LoadPointSummary


def find_crossover(
    rates: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> Optional[float]:
    """First rate at which curve ``a`` stops beating curve ``b``.

    Returns the linearly interpolated rate where ``a - b`` changes sign
    from negative (a better, for latency metrics lower is better) to
    positive, or None if no crossover occurs.
    """
    r = np.asarray(rates, dtype=np.float64)
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    if r.shape != diff.shape or r.size < 2:
        raise AnalysisError("rates, a, b must be equal-length with >= 2 points")
    for i in range(1, diff.size):
        if diff[i - 1] < 0 <= diff[i]:
            # Linear interpolation of the zero crossing.
            span = diff[i] - diff[i - 1]
            fraction = -diff[i - 1] / span if span != 0 else 0.0
            return float(r[i - 1] + fraction * (r[i] - r[i - 1]))
    return None


@dataclass
class PolicyComparison:
    """Aligned load-sweep results for several policies.

    ``summaries[policy_name]`` is a list of :class:`LoadPointSummary`
    at the shared ``rates`` grid.
    """

    rates: List[float]
    summaries: Dict[str, List[LoadPointSummary]]

    def __post_init__(self) -> None:
        for name, rows in self.summaries.items():
            if len(rows) != len(self.rates):
                raise AnalysisError(
                    f"policy {name!r} has {len(rows)} points, expected "
                    f"{len(self.rates)}"
                )

    def metric(self, policy: str, attribute: str) -> np.ndarray:
        try:
            rows = self.summaries[policy]
        except KeyError:
            raise AnalysisError(f"unknown policy {policy!r}") from None
        return np.asarray([getattr(r, attribute) for r in rows], dtype=np.float64)

    def p99(self, policy: str) -> np.ndarray:
        return self.metric(policy, "p99_latency")

    def envelope_p99(self, policies: Optional[Sequence[str]] = None) -> np.ndarray:
        """Pointwise best (minimum) P99 over the given policies."""
        names = list(policies) if policies is not None else list(self.summaries)
        stacked = np.stack([self.p99(name) for name in names])
        return stacked.min(axis=0)

    def regret_vs_envelope(
        self, policy: str, envelope_policies: Sequence[str]
    ) -> np.ndarray:
        """Relative P99 excess of ``policy`` over the fixed-policy envelope.

        The paper's headline claim is that adaptive tracks this envelope;
        small regret across all loads is the quantitative version.
        """
        own = self.p99(policy)
        envelope = self.envelope_p99(envelope_policies)
        return own / envelope - 1.0

    def crossover(self, policy_a: str, policy_b: str) -> Optional[float]:
        """Rate at which ``policy_a``'s P99 stops beating ``policy_b``'s."""
        return find_crossover(self.rates, self.p99(policy_a), self.p99(policy_b))

    def capacity_at_slo(self, policy: str, slo: float) -> Optional[float]:
        """Highest swept rate whose P99 meets ``slo`` (None if none does).

        Scans from the high end so a dip back under the SLO past
        saturation (noise) is not rewarded.
        """
        p99 = self.p99(policy)
        for i in range(len(self.rates) - 1, -1, -1):
            if p99[i] <= slo and all(p99[j] <= slo for j in range(i + 1)):
                return float(self.rates[i])
        return None
