"""The live serving node: the clock-agnostic server model on any clock.

:class:`~repro.sim.server.IndexServerModel` is the scheduling kernel:
it makes every admission, deadline, degree-grant, and escalation
decision itself and touches time only through
:class:`~repro.core.clock.SchedulerProtocol`. :class:`ServingNode`
rehosts that exact model outside the simulator: hand it a scheduler —
the asyncio adapter from :mod:`repro.runtime.serve` for live traffic,
a :class:`~repro.runtime.clock.FakeClock` in deterministic tests — and
it serves queries with *the same decision sequence* the simulator
would produce on the same inputs, which is what the parity test tier
pins.

Completion delivery is callback-shaped (``submit`` takes an optional
``on_done``) so the node itself stays synchronous and clock-agnostic;
the asyncio front door's callback serialises the reply itself (no
future, no task — :mod:`repro.runtime.serve`). When an engine
search function is attached, each completed query additionally carries
real ranked results from the hosted
:class:`~repro.engine.executor.Engine` — executed synchronously at
completion time, which at serving scale is sub-millisecond and
documented as outside the timing model (phase durations come from the
measured cost table, exactly as in the simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.core.clock import SchedulerProtocol
from repro.obs.spans import Tracer
from repro.policies.base import ParallelismPolicy
from repro.sim.experiment import LoadPointConfig, LoadPointSummary, summarize_load_point
from repro.sim.metrics import MetricsCollector, QueryRecord
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel
from repro.util.validation import require, require_int_in_range, require_positive

__all__ = ["ServingConfig", "QueryOutcome", "ServingNode"]

#: Ranked results attached to a completed query in engine mode:
#: ``(doc_id, score)`` pairs, best first.
RankedResults = Tuple[Tuple[int, float], ...]

#: Signature of the per-query completion callback.
OutcomeCallback = Callable[["QueryOutcome"], None]

#: Signature of the optional engine search hook:
#: ``(query_index, degree) -> RankedResults``.
EngineSearch = Callable[[int, int], RankedResults]


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of one live serving node.

    Field semantics match :class:`~repro.sim.experiment.LoadPointConfig`
    (same kernel knobs, same measurement window convention) so a live
    node and a simulated load point can be configured identically.
    """

    n_cores: int = 8
    #: Measurement window for the metrics collector, in model seconds:
    #: stats before ``warmup_s`` / after ``horizon_s`` are discarded.
    horizon_s: float = 60.0
    warmup_s: float = 0.0
    #: Per-query SLO budget (shed at dispatch when unmeetable).
    deadline_s: Optional[float] = None
    #: Admission cap on the dispatch queue.
    max_queue_length: Optional[int] = None
    #: Cap grants at the query's plan size.
    clamp_to_plan: bool = False
    server_id: Optional[str] = "live"

    def __post_init__(self) -> None:
        require_int_in_range(self.n_cores, "n_cores", low=1)
        require_positive(self.horizon_s, "horizon_s")
        require(
            0 <= self.warmup_s < self.horizon_s,
            "need 0 <= warmup_s < horizon_s",
        )
        if self.deadline_s is not None:
            require_positive(self.deadline_s, "deadline_s")
        if self.max_queue_length is not None:
            require_int_in_range(self.max_queue_length, "max_queue_length", low=1)

    @classmethod
    def from_load_point(cls, config: LoadPointConfig) -> "ServingConfig":
        """The live node configured exactly like a simulated load point."""
        return cls(
            n_cores=config.n_cores,
            horizon_s=config.duration,
            warmup_s=config.warmup,
            deadline_s=config.deadline,
            max_queue_length=config.max_queue_length,
            clamp_to_plan=config.clamp_to_plan,
        )


@dataclass(frozen=True)
class QueryOutcome:
    """What happened to one submitted query."""

    query_index: int
    status: str  # "completed" | "shed"
    arrival_s: float
    finished_s: float
    degree: int = 0
    shed_reason: Optional[str] = None
    results: Optional[RankedResults] = None

    @property
    def latency_s(self) -> float:
        return self.finished_s - self.arrival_s


class ServingNode:
    """One live index-serving node on an injected scheduler."""

    def __init__(
        self,
        scheduler: SchedulerProtocol,
        oracle: ServiceOracle,
        policy: ParallelismPolicy,
        config: ServingConfig,
        engine_search: Optional[EngineSearch] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.scheduler = scheduler
        self.oracle = oracle
        self.policy = policy
        self.config = config
        self.metrics = MetricsCollector(
            config.warmup_s, config.horizon_s, config.n_cores
        )
        self._engine_search = engine_search
        self.server = IndexServerModel(
            scheduler,
            oracle,
            policy,
            config.n_cores,
            self.metrics,
            on_query_complete=self._on_complete,
            clamp_to_plan=config.clamp_to_plan,
            deadline=config.deadline_s,
            max_queue_length=config.max_queue_length,
            on_query_shed=self._on_shed,
            tracer=tracer,
            server_id=config.server_id,
        )
        self.n_answered = 0

    # ----------------------------------------------------------------
    # Submission
    # ----------------------------------------------------------------

    def submit(
        self,
        query_index: int,
        query_class: Optional[str] = None,
        on_done: Optional[OutcomeCallback] = None,
    ) -> None:
        """Submit a query now; ``on_done`` fires exactly once with its
        outcome (synchronously if the query is shed at admission)."""
        self.server.submit(query_index, query_class, on_done)

    def attach_controllers(self, controllers: Sequence[object]) -> None:
        """Attach online control loops (same ``attach`` contract as the
        simulator runners: scheduler + server + collector + horizon)."""
        for controller in controllers:
            controller.attach(self.scheduler, self.server, self.metrics,
                              horizon_s=self.config.horizon_s)

    # ----------------------------------------------------------------
    # Completion routing (server hooks)
    # ----------------------------------------------------------------

    def _on_complete(self, record: QueryRecord, tag: Any) -> None:
        self.n_answered += 1
        if tag is None:
            return
        results: Optional[RankedResults] = None
        if self._engine_search is not None:
            results = self._engine_search(record.query_index, record.degree)
        tag(
            QueryOutcome(
                query_index=record.query_index,
                status="completed",
                arrival_s=record.arrival,
                finished_s=record.completion,
                degree=record.degree,
                results=results,
            )
        )

    def _on_shed(
        self, query_index: int, tag: Any, reason: str, arrival: float, now: float
    ) -> None:
        if tag is None:
            return
        tag(
            QueryOutcome(
                query_index=query_index,
                status="shed",
                arrival_s=arrival,
                finished_s=now,
                shed_reason=reason,
            )
        )

    # ----------------------------------------------------------------
    # Reporting
    # ----------------------------------------------------------------

    def summary(self, rate: float) -> LoadPointSummary:
        """Summarize the measurement window in the shared load-point
        schema. ``rate`` is the offered arrival rate (model QPS) the
        node was driven at — the node observes arrivals, not the
        generator's intent, so the caller supplies it."""
        return summarize_load_point(self.server, rate)
