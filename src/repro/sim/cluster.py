"""Cluster-level simulation: partitioned search with fan-out aggregation.

A web-search cluster partitions the index across many ISNs; every query
fans out to *all* partitions and the aggregator can only respond when
the **slowest** shard replies. This max-of-N structure amplifies tail
latency with cluster size — the "tail at scale" effect — and is the
reason the paper targets the P99 of a single ISN: a per-node tail
improvement compounds at the aggregator.

:class:`ClusterAggregator` is the broker as a model on a
:class:`~repro.core.clock.SchedulerProtocol`, as
:class:`~repro.sim.server.IndexServerModel` is the node: it owns N
independent shard servers, fans each query out with an independent
cost-table row per shard (partitions do different work for the same
query) and joins the responses in its hooks. :func:`run_cluster_point`
feeds it on a simulator through :func:`~repro.sim.script.replay`.

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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.clock import SchedulerProtocol
from repro.obs.spans import NULL_TRACER, ClusterTraceBuilder, Tracer
from repro.policies.base import ParallelismPolicy
from repro.sim.engine import Simulator
from repro.sim.experiment import DRAIN_HORIZONS, run_to_horizon
from repro.sim.faults import ClusterFaultPlan
from repro.sim.metrics import MetricsCollector, QueryRecord
from repro.sim.oracle import ServiceOracle
from repro.sim.script import arrival_times, replay
from repro.sim.server import IndexServerModel
from repro.util.rng import RngFactory
from repro.util.validation import require, require_int_in_range, require_positive


class _InFlight:
    """Join state for one fanned-out cluster query."""

    __slots__ = ("arrival", "query_indices", "responded", "outstanding", "n_responded",
                 "hedged", "trace")

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


class ClusterAggregator:
    """The broker: fans each query out to every shard and joins the
    responses. It owns ``config.n_shards`` shard servers and, when
    hedging is on, one fault-free replica per shard, each built with a
    fresh policy from ``policy_factory`` (policies may be stateful) and
    with :meth:`on_complete` / :meth:`on_shed` as its hooks. A query is
    in flight while its tag is in ``in_flight``; answering removes it,
    so whatever arrives later is ignored."""

    def __init__(
        self,
        scheduler: SchedulerProtocol,
        oracle: ServiceOracle,
        policy_factory: Callable[[], ParallelismPolicy],
        config: ClusterConfig,
        faults: Optional[ClusterFaultPlan] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Responses that answer a query: every shard unless a quorum is set.
        self.quorum = config.n_shards if config.quorum is None else config.quorum
        self.in_flight: Dict[int, _InFlight] = {}
        self.next_tag = 0
        self.latencies: List[float] = []
        self.shard_latencies: List[float] = []
        self.coverages: List[float] = []
        self.n_full = self.n_partial = self.n_failed = self.n_timed_out = 0
        self.n_hedges = self.n_hedge_wins = self.n_in_slo = 0
        self.shards = self._servers(oracle, policy_factory, faults, "shard")
        self.replicas = (
            self._servers(oracle, policy_factory, None, "replica")
            if config.hedge_delay is not None else []
        )

    def _servers(
        self, oracle: ServiceOracle, policy_factory: Callable[[], ParallelismPolicy],
        faults: Optional[ClusterFaultPlan], role: str,
    ) -> List[IndexServerModel]:
        config = self.config
        return [
            IndexServerModel(
                self.scheduler, oracle, policy_factory(), config.n_cores_per_shard,
                MetricsCollector(config.warmup, config.duration, config.n_cores_per_shard),
                on_query_complete=self.on_complete,
                deadline=config.deadline,
                max_queue_length=config.max_queue_length,
                faults=faults.schedule_for(shard_id) if faults is not None else None,
                on_query_shed=self.on_shed,
                tracer=self.tracer,
                server_id=f"{role}{shard_id}",
            )
            for shard_id in range(config.n_shards)
        ]

    def submit(self, query_indices: List[int]) -> None:
        """A query arrives now: send shard ``i`` cost-table row
        ``query_indices[i]`` (independent work per partition for the
        same logical query) and arm the hedge and the timeout."""
        config = self.config
        now = self.scheduler.now
        tag = self.next_tag
        self.next_tag += 1
        state = _InFlight(now, query_indices)
        if self.tracer.enabled:
            state.trace = ClusterTraceBuilder(tag, now, config.n_shards)
            for shard_id in range(config.n_shards):
                state.trace.shard_submitted(now, shard_id, query_indices[shard_id])
        self.in_flight[tag] = state
        for shard_id, shard in enumerate(self.shards):
            shard.submit(query_indices[shard_id], tag=(tag, shard_id, False))
        if config.hedge_delay is not None:
            self.scheduler.schedule(config.hedge_delay, self._hedge, tag)
        if config.shard_timeout is not None:
            self.scheduler.schedule(config.shard_timeout, self._timeout, tag)

    def busy(self) -> bool:
        """True while any query awaits its answer (the drain test)."""
        return bool(self.in_flight)

    def on_complete(self, record: QueryRecord, tag: Tuple[int, int, bool]) -> None:
        """A shard or replica responded; the first copy per shard counts."""
        cluster_tag, shard_id, replica = tag
        if record.arrival >= self.config.warmup:
            self.shard_latencies.append(record.latency)
        state = self.in_flight.get(cluster_tag)
        if state is None:
            return  # the query was answered already
        state.outstanding[shard_id] -= 1
        first = not state.responded[shard_id]
        if state.trace is not None:
            state.trace.shard_responded(
                record.completion, shard_id, replica=replica, won=first,
            )
        if first:
            state.responded[shard_id] = True
            state.n_responded += 1
            if replica:
                self.n_hedge_wins += 1
            self._join(cluster_tag, state, record.completion)

    def on_shed(
        self, query_index: int, tag: Tuple[int, int, bool], reason: str, now: float
    ) -> None:
        """A shard or replica dropped its request: one attempt fewer."""
        cluster_tag, shard_id, replica = tag
        state = self.in_flight.get(cluster_tag)
        if state is None:
            return
        if state.trace is not None:
            state.trace.shard_shed(now, shard_id, reason, replica=replica)
        state.outstanding[shard_id] -= 1
        self._join(cluster_tag, state, now)

    def _join(self, tag: int, state: _InFlight, now: float) -> None:
        """Answer at quorum, or once every attempt is dead and no hedge
        can revive the laggards (answer with what we have rather than
        wait for nothing)."""
        hedge_pending = self.config.hedge_delay is not None and not state.hedged
        if state.n_responded >= self.quorum or not (
            hedge_pending or any(state.outstanding)
        ):
            self._answer(tag, state, now, timed_out=False)

    def _hedge(self, tag: int) -> None:
        """Re-issue every laggard shard request to its replica. A query
        still in flight has at least one laggard."""
        state = self.in_flight.get(tag)
        if state is None:
            return
        state.hedged = True
        now = self.scheduler.now
        laggards = [
            shard_id
            for shard_id in range(self.config.n_shards)
            if not state.responded[shard_id]
        ]
        if state.trace is not None:
            state.trace.hedged(now, laggards)
        for shard_id in laggards:
            state.outstanding[shard_id] += 1
            self.n_hedges += 1
            if state.trace is not None:
                # Register the replica attempt before submit(): admission
                # shed is synchronous and must land on an open attempt.
                state.trace.shard_submitted(
                    now, shard_id, state.query_indices[shard_id], replica=True,
                )
            self.replicas[shard_id].submit(
                state.query_indices[shard_id], tag=(tag, shard_id, True)
            )

    def _timeout(self, tag: int) -> None:
        state = self.in_flight.get(tag)
        if state is not None:
            self._answer(tag, state, self.scheduler.now, timed_out=True)

    def _answer(self, tag: int, state: _InFlight, now: float, timed_out: bool) -> None:
        """Emit the aggregator's answer (or record the failure)."""
        del self.in_flight[tag]
        config = self.config
        n_responded = state.n_responded
        outcome = (
            "failed" if n_responded == 0
            else "full" if n_responded == config.n_shards
            else "partial"
        )
        if state.trace is not None:
            answer_s = now + (AGGREGATION_OVERHEAD_S if n_responded else 0.0)
            self.tracer.on_trace(
                state.trace.finalized(
                    answer_s, outcome, n_responded, config.n_shards,
                    timed_out=timed_out, quorum=config.quorum,
                )
            )
        if state.arrival < config.warmup:
            return
        if timed_out:
            self.n_timed_out += 1
        if outcome == "failed":
            self.n_failed += 1
            return
        if outcome == "full":
            self.n_full += 1
        else:
            self.n_partial += 1
        latency = now + AGGREGATION_OVERHEAD_S - state.arrival
        self.latencies.append(latency)
        self.coverages.append(n_responded / config.n_shards)
        if config.deadline is not None and latency <= config.deadline:
            self.n_in_slo += 1

    def summary(self) -> ClusterSummary:
        """Summarize the run; warns when queries are still in flight
        (a drain that tripped censors the tail)."""
        config = self.config
        unfinished = len(self.in_flight)
        if unfinished:
            warnings.warn(
                f"cluster drain limit ({DRAIN_HORIZONS:g}x the horizon) tripped "
                f"with {unfinished} queries still in flight; tail statistics are "
                "censored (the load point is deeply saturated)",
                RuntimeWarning,
                stacklevel=2,
            )
        cluster = np.asarray(self.latencies, dtype=np.float64)
        shard_arr = np.asarray(self.shard_latencies, dtype=np.float64)
        cluster_p99 = float(np.percentile(cluster, 99)) if cluster.size else float("nan")
        shard_p99 = float(np.percentile(shard_arr, 99)) if shard_arr.size else float("nan")
        demand = self.n_full + self.n_partial + self.n_failed
        window_s = config.duration - config.warmup
        return ClusterSummary(
            policy=self.shards[0].policy.name or "unknown",
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
            n_full=self.n_full,
            n_partial=self.n_partial,
            n_failed=self.n_failed,
            n_timed_out=self.n_timed_out,
            n_shed=sum(server.n_shed for server in self.shards + self.replicas),
            n_hedges=self.n_hedges,
            n_hedge_wins=self.n_hedge_wins,
            unfinished=unfinished,
            mean_coverage=float(np.mean(self.coverages)) if self.coverages else float("nan"),
            slo_attainment=(
                self.n_in_slo / demand if config.deadline is not None and demand else float("nan")
            ),
            goodput=self.n_in_slo / window_s if config.deadline is not None else float("nan"),
        )


def run_cluster_point(
    oracle: ServiceOracle,
    policy_factory: Callable[[], ParallelismPolicy],
    config: ClusterConfig,
    faults: Optional[ClusterFaultPlan] = None,
    tracer: Optional[Tracer] = None,
) -> ClusterSummary:
    """Simulate one cluster load point.

    ``faults`` injects per-shard slowdown/crash schedules (replica
    servers used for hedging are deliberately fault-free — replicas are
    different machines, which is what hedging exploits).

    ``tracer`` (opt-in) receives one aggregator-side ``cluster`` trace
    per query — shard attempt spans plus hedge / quorum / timeout
    outcomes — and the node-level traces of every shard and replica
    server (``server_id`` distinguishes them). Tracing is read-only:
    a traced run returns a summary bit-identical to an untraced one.
    """
    simulator = Simulator()
    aggregator = ClusterAggregator(
        simulator, oracle, policy_factory, config, faults=faults, tracer=tracer,
    )
    # Position-independent child streams (see util/rng.py): Poisson
    # arrival times on "arrivals", one query index per shard on "sample".
    sample_rng = RngFactory(config.seed).stream("sample")
    n_queries = oracle.n_queries
    replay(simulator, aggregator.submit, (
        (time_s, [int(sample_rng.integers(n_queries)) for _ in range(config.n_shards)])
        for time_s, _ in arrival_times(config)
    ))
    run_to_horizon(simulator, config.duration, aggregator.busy)
    return aggregator.summary()
