"""One simulated load point: drive arrivals into the server, summarize.

:func:`run_load_point` returns the :class:`LoadPointSummary` of a single
(policy, arrival-process) combination; load sweeps call it per rate. It
is :func:`~repro.sim.script.run_scripted_point` on the lazy
:func:`~repro.sim.script.arrival_stream`, plus the observer's bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.obs.registry import RunObserver
from repro.obs.spans import Tracer
from repro.policies.base import ParallelismPolicy
from repro.sim.arrivals import ArrivalProcess
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel
from repro.util.validation import require, require_int_in_range, require_positive


@dataclass(frozen=True)
class LoadPointConfig:
    """Parameters of one simulated load point."""

    rate: float  # mean arrival rate (QPS); ignored if `arrivals` is given
    duration: float = 30.0  # simulated horizon (seconds)
    warmup: float = 5.0  # stats discarded before this time
    n_cores: int = 12
    seed: int = 0
    #: Cap grants at the query's plan size (see IndexServerModel).
    clamp_to_plan: bool = False
    #: Per-query SLO budget; queries whose queue wait exhausts it are
    #: shed at dispatch. None = run every query to completion.
    deadline: Optional[float] = None
    #: Admission cap on the dispatch queue; arrivals beyond it are
    #: rejected. None = unbounded queue.
    max_queue_length: Optional[int] = None
    #: SLO bar for goodput / attainment *measurement only* (no
    #: shedding). Defaults to ``deadline`` when that is set; setting
    #: ``slo`` alone measures how a run without shedding would have
    #: scored against the same bar.
    slo: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive(self.rate, "rate")
        require_positive(self.duration, "duration")
        require(0 <= self.warmup < self.duration, "need 0 <= warmup < duration")
        require_int_in_range(self.n_cores, "n_cores", low=1)
        if self.deadline is not None:
            require_positive(self.deadline, "deadline")
        if self.max_queue_length is not None:
            require_int_in_range(self.max_queue_length, "max_queue_length", low=1)
        if self.slo is not None:
            require_positive(self.slo, "slo")


@dataclass(frozen=True)
class LoadPointSummary:
    """Measured statistics of one load point."""

    policy: str
    rate: float
    n_cores: int
    offered_utilization: float  # rate * E[t1] / cores (sequential work)
    observed: int
    throughput: float
    utilization: float
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_queue_delay: float
    mean_degree: float
    degree_histogram: Dict[int, float] = field(default_factory=dict)
    # Robustness statistics (meaningful only when a deadline and/or
    # admission cap is configured; zeros / NaN otherwise).
    n_shed: int = 0
    shed_rate: float = 0.0
    goodput: float = float("nan")  # in-SLO completions/sec
    slo_attainment: float = float("nan")  # fraction of demand in SLO
    deadline: Optional[float] = None

#: The bounded drain stops this many horizons in: jobs still running
#: then are dropped from the statistics (deeply saturated sweeps only).
DRAIN_HORIZONS = 10.0


def wire_load_point(
    oracle: ServiceOracle,
    policy: ParallelismPolicy,
    config: LoadPointConfig,
    attached: Sequence[object] = (),
    tracer: Optional[Tracer] = None,
) -> Tuple[Simulator, IndexServerModel]:
    """``config`` → simulator + collector + server model, with every
    object in ``attached`` (observer, controllers — anything with
    ``attach(simulator, server, collector, horizon_s)``) scheduled onto
    the simulator in the order given. The one wiring the online and
    the scripted runner share."""
    simulator = Simulator()
    metrics = MetricsCollector(config.warmup, config.duration, config.n_cores)
    server = IndexServerModel(
        simulator, oracle, policy, config.n_cores, metrics,
        clamp_to_plan=config.clamp_to_plan,
        deadline=config.deadline,
        max_queue_length=config.max_queue_length,
        tracer=tracer,
    )
    for item in attached:
        item.attach(simulator, server, metrics, horizon_s=config.duration)
    return simulator, server


def run_to_horizon(
    simulator: Simulator, duration: float, busy: Callable[[], object]
) -> None:
    """Run to the horizon (events at exactly ``duration`` fire, see
    :meth:`Simulator.run`), then drain while ``busy()`` so the slow tail
    is never censored — bounded, so an overloaded point cannot spin
    forever. Every load-point runner, on the simulator or on a
    :class:`~repro.runtime.clock.FakeClock`, ends through this loop."""
    simulator.run(until_s=duration)
    drain_limit = duration * DRAIN_HORIZONS
    while busy() and simulator.now < drain_limit and simulator.pending_events:
        simulator.step()


def run_load_point(
    oracle: ServiceOracle,
    policy: ParallelismPolicy,
    config: LoadPointConfig,
    arrivals: Optional[ArrivalProcess] = None,
    observer: Optional[RunObserver] = None,
    controllers: Sequence[object] = (),
    query_sampler: Optional[object] = None,
) -> LoadPointSummary:
    """Simulate one load point and summarize it.

    ``observer`` (opt-in) attaches the observability layer: per-query
    span traces via the observer's tracer, plus a metric timeline
    sampled on a virtual-time ticker. Observation is read-only — a
    traced run produces a summary bit-identical to an untraced one.

    ``controllers`` (opt-in) are online control loops — objects with an
    ``attach(simulator, server, collector, horizon_s)`` method, e.g.
    :class:`~repro.policies.online.OnlineDegreeController` or
    :class:`~repro.sim.anomaly.AnomalyGuard` — scheduled onto the run's
    simulator before arrivals start. Unlike observers they *may* mutate
    policy/server knobs at runtime; with the default empty tuple the
    run is bit-identical to the pre-control code path.

    ``query_sampler`` (opt-in) maps each arrival's traffic class (the
    arrival process's ``last_class`` attribute, e.g. from
    :class:`~repro.sim.traffic.RegimeTraffic`) to a query index via its
    ``sample(arrival_class)`` method, replacing the uniform draw from
    the run's ``sample`` stream. Class labels also flow into
    ``server.submit(query_class=...)`` for class-based shedding.
    """
    # repro.sim.script imports this module, so the import waits for the call.
    from repro.sim.script import arrival_stream, run_scripted_point

    attached, tracer = list(controllers), None
    if observer is not None:
        observer.on_run_start(
            policy=policy.name, rate=config.rate, duration=config.duration,
            warmup=config.warmup, n_cores=config.n_cores, seed=config.seed,
        )
        # Attach order is event order at equal times: observer first.
        attached.insert(0, observer)
        tracer = observer.tracer
    script = arrival_stream(oracle.n_queries, config, arrivals, query_sampler)
    summary, _ = run_scripted_point(oracle, policy, config, script, attached, tracer)
    if observer is not None:
        observer.finish()
    return summary


def summarize_load_point(
    server: IndexServerModel, rate: float, slo: Optional[float] = None
) -> LoadPointSummary:
    """Build a :class:`LoadPointSummary` from a finished server model.

    Public because it is the *shared* summary schema: the virtual-time
    runners here and the wall-clock serving runtime
    (:mod:`repro.runtime`) report through this one function,
    so simulated and live load points are directly comparable
    field-for-field. Everything but the offered ``rate`` is read off
    ``server``; ``slo`` is a measurement-only bar overriding its deadline.
    """
    metrics = server.metrics
    queue_delays = metrics.queue_delays()
    deadline = slo if slo is not None else server.deadline
    return LoadPointSummary(
        policy=server.policy.name,
        rate=rate,
        n_cores=server.n_cores,
        offered_utilization=(
            rate * server.oracle.mean_sequential_latency() / server.n_cores
        ),
        observed=metrics.n_observed,
        throughput=metrics.throughput(),
        utilization=metrics.utilization(),
        mean_latency=metrics.mean_latency(),
        p50_latency=metrics.latency_percentile(50),
        p95_latency=metrics.latency_percentile(95),
        p99_latency=metrics.latency_percentile(99),
        mean_queue_delay=float(queue_delays.mean()) if queue_delays.size else float("nan"),
        mean_degree=metrics.mean_degree(),
        degree_histogram=metrics.degree_histogram(),
        n_shed=metrics.n_shed_in_window,
        shed_rate=metrics.shed_rate(),
        goodput=metrics.goodput(deadline) if deadline is not None else float("nan"),
        slo_attainment=(
            metrics.slo_attainment(deadline) if deadline is not None else float("nan")
        ),
        deadline=deadline,
    )
