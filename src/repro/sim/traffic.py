"""Nonstationary / adversarial traffic: regimes, bursts, and attacks.

The paper derives degree thresholds offline from a *stationary* load
profile. Real services see diurnal cycles, flash crowds, and attack
traffic — regimes under which an offline threshold is exactly wrong at
the moment it matters most. This module provides the traffic side of
that story (the control side lives in :mod:`repro.policies.online` and
:mod:`repro.sim.anomaly`):

* :class:`DiurnalProfile` — a smooth day/night background rate,
  ``rate(t) = base · (1 + a·sin(2πt/T + φ))``;
* :class:`Burst` — an anomalous flow superimposed on the background for
  a bounded window, at a constant rate, of one of three kinds: ``flash_crowd`` (extra normal queries), a
  ``slow_query_flood`` (extra *expensive* queries, the classic
  resource-exhaustion attack), and ``query_of_death`` (one pathological
  query repeated verbatim);
* :class:`RegimeTraffic` — the superposed arrival process. Each
  component (background plus every burst) is an independent Poisson
  process with its own :class:`~repro.util.rng.RngFactory` named
  stream, so adding or removing a burst never perturbs the background
  arrival sequence, and every arrival is labeled with the class of the
  component that produced it;
* :class:`ClassAwareQuerySampler` — maps arrival classes to query
  indices (attack classes draw from the expensive tail of the measured
  cost table; ``query_of_death`` repeats the single worst query).

Regime-boundary convention (shared with
:class:`~repro.sim.arrivals.MMPP2Arrivals` and pinned by regression
tests): a burst window is the half-open interval ``[start_s, end_s)``
— an arrival candidate landing *exactly* at a rate-change instant
belongs to the **new** regime, never the old one.

All components are seeded: construction takes an explicit
:class:`~repro.util.rng.RngFactory` and derives one named stream per
component, so traced runs replay bit-identically to untraced ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.arrivals import ArrivalProcess
from repro.util.rng import RngFactory
from repro.util.validation import require_in_range, require_positive

#: Arrival-class label of the diurnal background flow.
BACKGROUND = "background"
#: A surge of ordinary queries (legitimate flash crowd).
FLASH_CROWD = "flash_crowd"
#: A flood of deliberately expensive queries (resource-exhaustion attack).
SLOW_QUERY_FLOOD = "slow_query_flood"
#: One pathological query repeated verbatim (query-of-death attack).
QUERY_OF_DEATH = "query_of_death"

BURST_KINDS = (FLASH_CROWD, SLOW_QUERY_FLOOD, QUERY_OF_DEATH)

#: Share of the table, by attack score, a slow-query flood draws from.
HEAVY_FRACTION = 0.1


@dataclass(frozen=True)
class DiurnalProfile:
    """Sinusoidal day/night background rate (mean ``base_rate`` qps).

    ``rate(t) = base_rate · (1 + amplitude · sin(2π t / period_s))``.
    ``amplitude`` in [0, 1) keeps the rate strictly positive.
    """

    base_rate: float
    amplitude: float = 0.0
    period_s: float = 86_400.0

    def __post_init__(self) -> None:
        require_positive(self.base_rate, "base_rate")
        require_in_range(
            self.amplitude, "amplitude", low=0.0, high=1.0, high_inclusive=False
        )
        require_positive(self.period_s, "period_s")

    @property
    def max_rate(self) -> float:
        """Tight upper bound on the instantaneous rate."""
        return self.base_rate * (1.0 + self.amplitude)

    def rate_at(self, time_s: float) -> float:
        """Instantaneous background rate at virtual time ``time_s``."""
        angle = 2.0 * math.pi * time_s / self.period_s
        return self.base_rate * (1.0 + self.amplitude * math.sin(angle))


@dataclass(frozen=True)
class Burst:
    """One anomalous flow superimposed on the background.

    ``peak_rate`` is the extra arrival rate (qps) inside the window. The
    window is half-open ``[start_s, end_s)``: the burst
    contributes at exactly ``start_s`` and contributes nothing at
    exactly ``end_s`` (the regime-boundary convention).
    """

    kind: str
    start_s: float
    duration_s: float
    peak_rate: float

    def __post_init__(self) -> None:
        if self.kind not in BURST_KINDS:
            raise ConfigurationError(
                f"burst kind must be one of {BURST_KINDS}, got {self.kind!r}"
            )
        require_positive(self.start_s, "start_s", strict=False)
        if not self.duration_s > 0:
            raise ConfigurationError(
                f"burst window must have positive length, got duration_s="
                f"{self.duration_s} (zero-length regimes are degenerate: no "
                "arrival can ever land inside one)"
            )
        require_positive(self.peak_rate, "peak_rate")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def rate_at(self, time_s: float) -> float:
        """Extra rate this burst contributes at ``time_s``.

        Zero outside ``[start_s, end_s)``; note the half-open window —
        at exactly ``end_s`` the burst is already over.
        """
        if time_s < self.start_s or time_s >= self.end_s:
            return 0.0
        return self.peak_rate

    def overlaps(self, other: "Burst") -> bool:
        """Whether the two half-open windows intersect."""
        return self.start_s < other.end_s and other.start_s < self.end_s


@dataclass(frozen=True)
class TrafficConfig:
    """A full nonstationary traffic scenario: background + bursts.

    Burst windows must be pairwise disjoint — overlapping anomalies
    make per-burst recovery-time accounting ambiguous, so they are
    rejected at construction with the offending pair named.
    """

    background: DiurnalProfile
    bursts: Tuple[Burst, ...] = ()

    def __post_init__(self) -> None:
        ordered = sorted(self.bursts, key=lambda b: b.start_s)
        for first, second in zip(ordered, ordered[1:]):
            if first.overlaps(second):
                raise ConfigurationError(
                    f"burst windows overlap: {first.kind} "
                    f"[{first.start_s}, {first.end_s}) intersects "
                    f"{second.kind} [{second.start_s}, {second.end_s}); "
                    "burst windows must be pairwise disjoint"
                )

    def rate_at(self, time_s: float) -> float:
        """Total instantaneous arrival rate (background + active bursts)."""
        rate = self.background.rate_at(time_s)
        for burst in self.bursts:
            rate += burst.rate_at(time_s)
        return rate

    def classes(self) -> Tuple[str, ...]:
        """Every arrival-class label this scenario can produce."""
        seen = [BACKGROUND]
        for burst in self.bursts:
            if burst.kind not in seen:
                seen.append(burst.kind)
        return tuple(seen)


class _Component:
    """One independent Poisson flow of the superposition.

    Generates its own arrival sequence by Lewis–Shedler thinning against
    ``max_rate`` on its own named RNG stream. A burst component stops
    proposing candidates once they pass ``until_s`` (its window end), so
    exhausted bursts cost nothing.
    """

    __slots__ = ("label", "rate_at", "max_rate", "rng", "next_s", "until_s")

    def __init__(
        self,
        label: str,
        rate_at: Callable[[float], float],
        max_rate: float,
        rng: np.random.Generator,
        until_s: float,
        start_s: float = 0.0,
    ) -> None:
        self.label = label
        self.rate_at = rate_at
        self.max_rate = float(max_rate)
        self.rng = rng
        self.until_s = float(until_s)
        self.next_s = float(start_s)
        self._advance()

    def _advance(self) -> None:
        """Move ``next_s`` to this component's next accepted arrival."""
        while True:
            self.next_s += float(self.rng.exponential(1.0 / self.max_rate))
            if self.next_s >= self.until_s:
                self.next_s = float("inf")
                return
            rate = self.rate_at(self.next_s)
            if self.rng.random() < rate / self.max_rate:
                return

    def pop(self) -> float:
        """Consume the pending arrival and schedule the next one."""
        current_s = self.next_s
        self._advance()
        return current_s


class RegimeTraffic(ArrivalProcess):
    """Superposed nonstationary arrival process with labeled classes.

    Implements :class:`~repro.sim.arrivals.ArrivalProcess`, so it plugs
    into :func:`~repro.sim.experiment.run_load_point` unchanged. After
    each :meth:`next_interarrival` call, :attr:`last_class` names the
    component (``background`` or a burst kind) that produced the
    arrival about to happen — the load driver uses it to pick the query
    the arrival carries.

    ``horizon_s`` bounds candidate generation for the *background*
    stream; bursts are bounded by their own windows. Streams are derived
    from ``streams`` as ``("traffic", "background")`` and
    ``("traffic", "burst", i)`` — names the e20 golden pins.
    """

    def __init__(
        self,
        config: TrafficConfig,
        streams: RngFactory,
        horizon_s: float,
    ) -> None:
        require_positive(horizon_s, "horizon_s")
        self.config = config
        self.horizon_s = float(horizon_s)
        self._components: List[_Component] = [
            _Component(
                BACKGROUND,
                config.background.rate_at,
                config.background.max_rate,
                streams.stream("traffic", "background"),
                until_s=self.horizon_s,
            )
        ]
        for index, burst in enumerate(config.bursts):
            self._components.append(
                _Component(
                    burst.kind,
                    burst.rate_at,
                    burst.peak_rate,
                    streams.stream("traffic", "burst", index),
                    until_s=min(burst.end_s, self.horizon_s),
                    start_s=burst.start_s,
                )
            )
        self._now_s = 0.0
        #: Class label of the arrival produced by the last
        #: :meth:`next_interarrival` call (None before the first).
        self.last_class: Optional[str] = None

    def next_interarrival(self) -> float:
        """Time to the earliest pending component arrival (inf when done).

        Simultaneous candidates (a measure-zero event for continuous
        draws, but reachable in tests) break ties toward the earliest
        component in construction order — background first — so the
        outcome is deterministic.
        """
        best = min(self._components, key=lambda c: c.next_s)
        if math.isinf(best.next_s):
            self.last_class = None
            return float("inf")
        arrival_s = best.pop()
        gap_s = arrival_s - self._now_s
        self._now_s = arrival_s
        self.last_class = best.label
        return gap_s


class ClassAwareQuerySampler:
    """Maps arrival classes to query indices of the measured cost table.

    * ``background`` / ``flash_crowd`` — uniform over the whole table
      (a flash crowd is *legitimate* traffic, just more of it);
    * ``slow_query_flood`` — uniform over the top ``HEAVY_FRACTION`` of
      queries by attack score;
    * ``query_of_death`` — always the single highest-scoring query.

    The attack score defaults to sequential latency (the adversary sends
    the most expensive queries). When ``predicted_latencies`` is also
    given, the score becomes the *underprediction residual*
    ``t1 - predicted``: the adversary targets queries whose true cost
    most exceeds what the node's cost model believes, so predictive
    admission control (deadline checks priced with predicted cost)
    admits them and then eats the full latency.

    Draws come from the factory's ``("traffic", "queries")`` stream, so
    the attack mix replays bit-identically for a given seed.
    """

    def __init__(
        self,
        sequential_latencies: Sequence[float],
        streams: RngFactory,
        predicted_latencies: Optional[Sequence[float]] = None,
    ) -> None:
        t1 = np.asarray(sequential_latencies, dtype=np.float64)
        if t1.ndim != 1 or t1.size == 0:
            raise ConfigurationError(
                "sequential_latencies must be a non-empty 1-D sequence"
            )
        self._n_queries = int(t1.size)
        if predicted_latencies is not None:
            pred = np.asarray(predicted_latencies, dtype=np.float64)
            if pred.shape != t1.shape:
                raise ConfigurationError(
                    "predicted_latencies must match sequential_latencies: "
                    f"shapes {pred.shape} vs {t1.shape}"
                )
            score = t1 - pred
        else:
            score = t1
        order = np.argsort(score, kind="stable")
        n_heavy = max(1, int(round(self._n_queries * HEAVY_FRACTION)))
        self._heavy_indices = order[-n_heavy:]
        self._death_index = int(order[-1])
        self._rng = streams.stream("traffic", "queries")

    @property
    def death_index(self) -> int:
        """The query-of-death: the highest-scoring attack query."""
        return self._death_index

    @property
    def attack_indices(self) -> "np.ndarray":
        """All query indices attack classes can draw from (heavy set)."""
        return self._heavy_indices.copy()

    def sample(self, arrival_class: Optional[str]) -> int:
        """Query index for one arrival of ``arrival_class``."""
        if arrival_class == QUERY_OF_DEATH:
            return self._death_index
        if arrival_class == SLOW_QUERY_FLOOD:
            return int(self._heavy_indices[
                self._rng.integers(self._heavy_indices.size)
            ])
        return int(self._rng.integers(self._n_queries))
