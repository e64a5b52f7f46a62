"""Cluster-level simulation: partitioned search with fan-out aggregation.

A web-search cluster partitions the index across many ISNs; every query
fans out to *all* partitions and the aggregator can only respond when
the **slowest** shard replies. This max-of-N structure amplifies tail
latency with cluster size — the "tail at scale" effect — and is the
reason the paper targets the P99 of a single ISN: a per-node tail
improvement compounds at the aggregator.

:func:`run_cluster_point` instantiates N independent
:class:`~repro.sim.server.IndexServerModel` shards over one simulator.
Each cluster query draws an independent cost-table row per shard
(different partitions do different work for the same query) and is
recorded when its last shard response lands.

Graceful degradation (all opt-in; defaults reproduce the wait-for-all
aggregator exactly):

* ``quorum`` — answer after K of N shard responses instead of all N,
  recording a *partial* result and its coverage (K/N of the index
  searched).
* ``shard_timeout`` — per-query budget at the aggregator: when it
  expires, answer with whatever shards have responded (partial), or
  count a failure if none have.
* ``hedge_delay`` — tail hedging: when a query is still incomplete this
  long after arrival, re-issue the laggard shard requests to fault-free
  replica servers and take whichever copy answers first.
* per-shard fault injection (:mod:`repro.sim.faults`) and shard-level
  deadlines / admission caps (see :class:`IndexServerModel`): shed
  shard requests release the aggregator's join state instead of
  blocking it forever.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.obs.spans import NULL_TRACER, ClusterTraceBuilder, Tracer
from repro.policies.base import ParallelismPolicy
from repro.sim.arrivals import ArrivalProcess, PoissonArrivals
from repro.sim.engine import Simulator
from repro.sim.experiment import DRAIN_HORIZONS, run_to_horizon
from repro.sim.faults import ClusterFaultPlan
from repro.sim.metrics import MetricsCollector, QueryRecord
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel
from repro.util.rng import RngFactory
from repro.util.validation import require, require_int_in_range, require_positive


class _InFlight:
    """Join state for one fanned-out cluster query."""

    __slots__ = (
        "arrival",
        "query_indices",
        "responded",
        "outstanding",
        "n_responded",
        "hedged",
        "done",
        "trace",
    )

    def __init__(self, arrival: float, query_indices: List[int]) -> None:
        self.arrival = arrival
        # Per-shard cost-table rows, remembered so hedged re-issues do
        # the same work on the replica as on the primary.
        self.query_indices = query_indices
        n_shards = len(query_indices)
        self.responded = [False] * n_shards
        self.outstanding = [1] * n_shards  # live attempts per shard
        self.n_responded = 0
        self.hedged = False
        self.done = False
        # Aggregator-side span builder (tracer enabled only).
        self.trace: Optional[ClusterTraceBuilder] = None

#: The aggregator's merge/network step after the last shard responds.
AGGREGATION_OVERHEAD_S = 200e-6


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster topology and load-point parameters.

    ``rate`` is the *cluster* query rate; every query hits all shards,
    so each shard also sees ``rate`` queries per second.
    :data:`AGGREGATION_OVERHEAD_S` models the merge/network step after
    the last shard responds.

    The robustness knobs (``deadline``, ``max_queue_length``,
    ``quorum``, ``shard_timeout``, ``hedge_delay``) all default to off;
    a default config is bit-identical to the fault-free wait-for-all
    aggregator.
    """

    n_shards: int = 8
    n_cores_per_shard: int = 12
    rate: float = 1_000.0
    duration: float = 20.0
    warmup: float = 4.0
    seed: int = 0
    #: Per-query SLO budget enforced at each shard (shed at dispatch
    #: once the queue wait has consumed it); also the bar used for the
    #: cluster's goodput / SLO-attainment statistics.
    deadline: Optional[float] = None
    #: Per-shard admission cap on the dispatch queue.
    max_queue_length: Optional[int] = None
    #: Answer after this many shard responses (K-of-N). None = all N.
    quorum: Optional[int] = None
    #: Aggregator-side budget per query: answer partially (or fail, if
    #: nothing responded) this long after arrival. None = wait forever.
    shard_timeout: Optional[float] = None
    #: Hedge laggard shard requests to a replica this long after
    #: arrival. None = no hedging (and no replica servers exist).
    hedge_delay: Optional[float] = None

    def __post_init__(self) -> None:
        require_int_in_range(self.n_shards, "n_shards", low=1)
        require_int_in_range(self.n_cores_per_shard, "n_cores_per_shard", low=1)
        require_positive(self.rate, "rate")
        require_positive(self.duration, "duration")
        require(0 <= self.warmup < self.duration, "need 0 <= warmup < duration")
        if self.deadline is not None:
            require_positive(self.deadline, "deadline")
        if self.max_queue_length is not None:
            require_int_in_range(self.max_queue_length, "max_queue_length", low=1)
        if self.quorum is not None:
            require_int_in_range(
                self.quorum, "quorum", low=1, high=self.n_shards
            )
        if self.shard_timeout is not None:
            require_positive(self.shard_timeout, "shard_timeout")
        if self.hedge_delay is not None:
            require_positive(self.hedge_delay, "hedge_delay")


@dataclass(frozen=True)
class ClusterSummary:
    """End-to-end (aggregated) latency statistics of a cluster run."""

    policy: str
    n_shards: int
    rate: float
    observed: int
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    shard_p99_latency: float  # P99 of individual shard responses
    tail_amplification: float  # cluster P99 / shard P99
    # Robustness statistics. With no deadline/quorum/timeout/hedging
    # configured these are the trivial values (all answers full, no
    # sheds, coverage 1.0).
    n_full: int = 0  # answers covering every shard
    n_partial: int = 0  # answers missing >= 1 shard
    n_failed: int = 0  # queries answered by no shard at all
    n_timed_out: int = 0  # answers forced out by shard_timeout
    n_shed: int = 0  # shard-level requests dropped (all shards)
    n_hedges: int = 0  # replica requests issued
    n_hedge_wins: int = 0  # shards answered first by the replica
    unfinished: int = 0  # queries still in flight at the drain limit
    mean_coverage: float = float("nan")  # shards answered / N, per answer
    slo_attainment: float = float("nan")  # answers in SLO / demand
    goodput: float = float("nan")  # in-SLO answers per second

    @property
    def answered(self) -> int:
        return self.n_full + self.n_partial


def run_cluster_point(
    oracle: ServiceOracle,
    policy_factory: Callable[[], ParallelismPolicy],
    config: ClusterConfig,
    arrivals: Optional[ArrivalProcess] = None,
    faults: Optional[ClusterFaultPlan] = None,
    tracer: Optional[Tracer] = None,
) -> ClusterSummary:
    """Simulate one cluster load point.

    ``policy_factory`` is called once per shard — policies may be
    stateful (e.g. EWMA variants), so shards must not share an instance.
    ``faults`` injects per-shard slowdown/crash schedules (replica
    servers used for hedging are deliberately fault-free — replicas are
    different machines, which is what hedging exploits).

    ``tracer`` (opt-in) receives one aggregator-side ``cluster`` trace
    per query — shard attempt spans plus hedge / quorum / timeout
    outcomes — and the node-level traces of every shard and replica
    server (``server_id`` distinguishes them). Tracing is read-only:
    a traced run returns a summary bit-identical to an untraced one.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    # Named streams derived by hashing, not by drawing from a parent
    # generator: child streams must not depend on the parent's
    # consumption position (see util/rng.py). One-time stream change vs
    # the earlier ``rng.integers`` derivation, documented in CHANGES.md.
    streams = RngFactory(config.seed)
    arrival_rng = streams.stream("arrivals")
    sample_rng = streams.stream("sample")
    if arrivals is None:
        arrivals = PoissonArrivals(config.rate, arrival_rng)

    simulator = Simulator()
    in_flight: Dict[int, _InFlight] = {}
    cluster_latencies: List[float] = []
    shard_latencies: List[float] = []
    coverages: List[float] = []
    counters = {
        "full": 0, "partial": 0, "failed": 0, "timed_out": 0,
        "hedges": 0, "hedge_wins": 0, "in_slo": 0,
    }

    def finalize(tag: int, state: _InFlight, now: float, timed_out: bool) -> None:
        """Emit the aggregator's answer (or record the failure)."""
        state.done = True
        del in_flight[tag]
        if state.trace is not None:
            n_resp = state.n_responded
            outcome = (
                "failed" if n_resp == 0
                else "full" if n_resp == config.n_shards
                else "partial"
            )
            answer_s = now + (AGGREGATION_OVERHEAD_S if n_resp else 0.0)
            tracer.on_trace(
                state.trace.finalized(
                    answer_s, outcome, n_resp, config.n_shards,
                    timed_out=timed_out, quorum=config.quorum,
                )
            )
        if state.arrival < config.warmup:
            return
        coverage = state.n_responded / config.n_shards
        if timed_out:
            counters["timed_out"] += 1
        if state.n_responded == 0:
            counters["failed"] += 1
            return
        counters["full" if coverage == 1.0 else "partial"] += 1
        latency = now + AGGREGATION_OVERHEAD_S - state.arrival
        cluster_latencies.append(latency)
        coverages.append(coverage)
        if config.deadline is not None and latency <= config.deadline:
            counters["in_slo"] += 1

    def check_done(tag: int, state: _InFlight, now: float) -> None:
        if state.n_responded == config.n_shards:
            finalize(tag, state, now, timed_out=False)
            return
        if config.quorum is not None and state.n_responded >= config.quorum:
            finalize(tag, state, now, timed_out=False)
            return
        # Every attempt is dead and no hedge can revive the laggards:
        # answer with what we have rather than wait for nothing.
        hedge_pending = config.hedge_delay is not None and not state.hedged
        if not hedge_pending and not any(state.outstanding):
            finalize(tag, state, now, timed_out=False)

    def on_shard_complete(record: QueryRecord, tag, from_replica: bool = False):
        cluster_tag, shard_id = tag
        if record.arrival >= config.warmup:
            shard_latencies.append(record.latency)
        state = in_flight.get(cluster_tag)
        if state is None or state.done:
            return  # duplicate of an already-answered query
        state.outstanding[shard_id] -= 1
        if state.trace is not None:
            state.trace.shard_responded(
                record.completion, shard_id,
                replica=from_replica, won=not state.responded[shard_id],
            )
        if not state.responded[shard_id]:
            state.responded[shard_id] = True
            state.n_responded += 1
            if from_replica:
                counters["hedge_wins"] += 1
            check_done(cluster_tag, state, record.completion)

    def on_replica_complete(record: QueryRecord, tag) -> None:
        on_shard_complete(record, tag, from_replica=True)

    def on_shard_shed(
        query_index: int, tag, reason: str, now: float, from_replica: bool = False
    ) -> None:
        cluster_tag, shard_id = tag
        state = in_flight.get(cluster_tag)
        if state is None or state.done:
            return
        if state.trace is not None:
            state.trace.shard_shed(now, shard_id, reason, replica=from_replica)
        state.outstanding[shard_id] -= 1
        check_done(cluster_tag, state, now)

    def on_replica_shed(query_index: int, tag, reason: str, now: float) -> None:
        on_shard_shed(query_index, tag, reason, now, from_replica=True)

    def make_shards(fault_plan, on_complete, on_shed, role) -> List[IndexServerModel]:
        servers = []
        for shard_id in range(config.n_shards):
            policy: ParallelismPolicy = policy_factory()
            metrics = MetricsCollector(
                warmup=config.warmup,
                horizon=config.duration,
                n_cores=config.n_cores_per_shard,
            )
            servers.append(
                IndexServerModel(
                    simulator,
                    oracle,
                    policy,
                    config.n_cores_per_shard,
                    metrics,
                    on_query_complete=on_complete,
                    deadline=config.deadline,
                    max_queue_length=config.max_queue_length,
                    faults=(
                        fault_plan.schedule_for(shard_id)
                        if fault_plan is not None
                        else None
                    ),
                    on_query_shed=on_shed,
                    tracer=tracer,
                    server_id=f"{role}{shard_id}",
                )
            )
        return servers

    shards = make_shards(faults, on_shard_complete, on_shard_shed, "shard")
    policy_name = shards[0].policy.name
    replicas: List[IndexServerModel] = (
        make_shards(None, on_replica_complete, on_replica_shed, "replica")
        if config.hedge_delay is not None
        else []
    )

    n_queries = oracle.n_queries
    next_tag = [0]

    def hedge(tag: int) -> None:
        """Re-issue every laggard shard request to its replica."""
        state = in_flight.get(tag)
        if state is None or state.done:
            return
        state.hedged = True
        laggards = [
            shard_id
            for shard_id in range(config.n_shards)
            if not state.responded[shard_id]
        ]
        if state.trace is not None and laggards:
            state.trace.hedged(simulator.now, laggards)
        for shard_id in laggards:
            state.outstanding[shard_id] += 1
            counters["hedges"] += 1
            if state.trace is not None:
                # Register the replica attempt before submit(): admission
                # shed is synchronous and must land on an open attempt.
                state.trace.shard_submitted(
                    simulator.now, shard_id,
                    state.query_indices[shard_id], replica=True,
                )
            replicas[shard_id].submit(
                state.query_indices[shard_id], tag=(tag, shard_id)
            )
        if not laggards:
            check_done(tag, state, simulator.now)

    def timeout(tag: int) -> None:
        state = in_flight.get(tag)
        if state is None or state.done:
            return
        finalize(tag, state, simulator.now, timed_out=True)

    def arrive() -> None:
        tag = next_tag[0]
        next_tag[0] += 1
        indices = [int(sample_rng.integers(n_queries)) for _ in shards]
        state = _InFlight(simulator.now, indices)
        if tracer.enabled:
            state.trace = ClusterTraceBuilder(tag, simulator.now, config.n_shards)
            for shard_id in range(config.n_shards):
                state.trace.shard_submitted(
                    simulator.now, shard_id, indices[shard_id]
                )
        in_flight[tag] = state
        for shard_id, shard in enumerate(shards):
            # Independent work per partition for the same logical query.
            shard.submit(indices[shard_id], tag=(tag, shard_id))
        if config.hedge_delay is not None:
            simulator.schedule(config.hedge_delay, hedge, tag)
        if config.shard_timeout is not None:
            simulator.schedule(config.shard_timeout, timeout, tag)
        schedule_next()

    def schedule_next() -> None:
        gap = arrivals.next_interarrival()
        if not np.isfinite(gap) or simulator.now + gap > config.duration:
            return
        simulator.schedule(gap, arrive)

    schedule_next()
    run_to_horizon(simulator, config.duration, lambda: in_flight)
    unfinished = len(in_flight)
    if unfinished:
        warnings.warn(
            f"cluster drain limit ({DRAIN_HORIZONS:g}x the horizon) tripped with "
            f"{unfinished} queries still in flight; tail statistics are "
            "censored (the load point is deeply saturated)",
            RuntimeWarning,
            stacklevel=2,
        )

    cluster = np.asarray(cluster_latencies, dtype=np.float64)
    shard_arr = np.asarray(shard_latencies, dtype=np.float64)
    cluster_p99 = float(np.percentile(cluster, 99)) if cluster.size else float("nan")
    shard_p99 = float(np.percentile(shard_arr, 99)) if shard_arr.size else float("nan")
    demand = counters["full"] + counters["partial"] + counters["failed"]
    window_s = config.duration - config.warmup
    return ClusterSummary(
        policy=policy_name or "unknown",
        n_shards=config.n_shards,
        rate=config.rate,
        observed=int(cluster.size),
        mean_latency=float(cluster.mean()) if cluster.size else float("nan"),
        p50_latency=float(np.percentile(cluster, 50)) if cluster.size else float("nan"),
        p95_latency=float(np.percentile(cluster, 95)) if cluster.size else float("nan"),
        p99_latency=cluster_p99,
        shard_p99_latency=shard_p99,
        tail_amplification=(
            cluster_p99 / shard_p99
            if math.isfinite(shard_p99) and shard_p99 > 0
            else float("nan")
        ),
        n_full=counters["full"],
        n_partial=counters["partial"],
        n_failed=counters["failed"],
        n_timed_out=counters["timed_out"],
        n_shed=sum(s.n_shed for s in shards) + sum(r.n_shed for r in replicas),
        n_hedges=counters["hedges"],
        n_hedge_wins=counters["hedge_wins"],
        unfinished=unfinished,
        mean_coverage=(
            float(np.mean(coverages)) if coverages else float("nan")
        ),
        slo_attainment=(
            counters["in_slo"] / demand
            if config.deadline is not None and demand
            else float("nan")
        ),
        goodput=(
            counters["in_slo"] / window_s
            if config.deadline is not None
            else float("nan")
        ),
    )
