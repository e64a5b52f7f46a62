"""Trace-backed invariant tests: spans must re-derive the aggregates.

These tests recompute experiment-level statistics *from the span trees*
and assert equality with what the metrics pipeline reports:

* E14's latency decomposition (latency = queueing + service) falls out
  of the ``queue`` / ``exec`` span durations of completed traces;
* E19's shed accounting (who was dropped, and why) falls out of the
  ``shed`` outcomes, including the conservation law
  ``completed + shed + in_flight == issued``;
* the cluster aggregator's full/partial/failed outcome counts fall out
  of the ``cluster`` root spans.

Any drift between what the simulator *does* and what it *reports* shows
up here as a mismatch between the two independent derivations.
"""

import numpy as np
import pytest

from repro.obs.registry import RunObserver
from repro.obs.spans import CLUSTER, QUERY, RecordingTracer
from repro.policies.adaptive import ThresholdTable
from repro.policies.fixed import FixedPolicy
from repro.policies.online import (
    OnlineAdaptivePolicy,
    OnlineControllerConfig,
    OnlineDegreeController,
)
from repro.sim.anomaly import AnomalyGuard, AnomalyGuardConfig, DegradationLevel
from repro.sim.cluster import ClusterConfig, run_cluster_point
from repro.sim.engine import Simulator
from repro.sim.experiment import LoadPointConfig, run_load_point
from repro.sim.metrics import MetricsCollector
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel
from repro.sim.traffic import (
    SLOW_QUERY_FLOOD,
    Burst,
    ClassAwareQuerySampler,
    DiurnalProfile,
    RegimeTraffic,
    TrafficConfig,
)
from repro.util.rng import RngFactory

from conftest import constant_table


def _traced_load_point(policy, config, table=None):
    """Run one load point with tracing on; return (summary, tracer)."""
    oracle = ServiceOracle(table if table is not None else constant_table())
    observer = RunObserver(tracer=RecordingTracer())
    summary = run_load_point(oracle, policy, config, observer=observer)
    return summary, observer


class TestLatencyDecomposition:
    """E14 cross-validation: spans vs the reported summary."""

    def test_span_means_match_summary(self):
        config = LoadPointConfig(
            rate=2.5, duration=20.0, warmup=4.0, n_cores=4, seed=3
        )
        summary, observer = _traced_load_point(FixedPolicy(2), config)
        window = [
            t for t in observer.tracer.traces
            if t.completed and t.arrival_s >= config.warmup
        ]
        assert len(window) == summary.observed > 0
        queue = float(np.mean([t.queue_delay_s() for t in window]))
        latency = float(np.mean([t.latency_s for t in window]))
        service = float(np.mean([t.service_s() for t in window]))
        assert queue == pytest.approx(summary.mean_queue_delay, rel=1e-9)
        assert latency == pytest.approx(summary.mean_latency, rel=1e-9)
        # The decomposition the paper's E14 reports as
        # "service = latency - queueing" holds span-by-span, so it holds
        # for the means too.
        assert service == pytest.approx(
            summary.mean_latency - summary.mean_queue_delay, rel=1e-9
        )

    def test_decomposition_holds_per_trace(self):
        config = LoadPointConfig(
            rate=3.0, duration=10.0, warmup=1.0, n_cores=4, seed=5
        )
        _, observer = _traced_load_point(FixedPolicy(4), config)
        completed = [t for t in observer.tracer.traces if t.completed]
        assert completed
        for trace in completed:
            trace.root.validate()
            assert trace.queue_delay_s() + trace.service_s() == pytest.approx(
                trace.latency_s, abs=1e-12
            )

    def test_percentiles_match_summary(self):
        config = LoadPointConfig(
            rate=3.0, duration=20.0, warmup=4.0, n_cores=4, seed=11
        )
        summary, observer = _traced_load_point(FixedPolicy(2), config)
        window = [
            t.latency_s for t in observer.tracer.traces
            if t.completed and t.arrival_s >= config.warmup
        ]
        assert float(np.percentile(window, 50)) == pytest.approx(
            summary.p50_latency, rel=1e-9
        )
        assert float(np.percentile(window, 99)) == pytest.approx(
            summary.p99_latency, rel=1e-9
        )


class TestShedAccounting:
    """E19 cross-validation: shed outcomes vs the metrics counters."""

    def _overloaded_run(self, deadline=0.8, max_queue_length=4):
        # 4x overload on one core forces both deadline and admission
        # sheds; explicit arrivals keep the run tiny and exact.
        table = constant_table(t1=0.5)
        oracle = ServiceOracle(table)
        simulator = Simulator()
        metrics = MetricsCollector(warmup=0.0, horizon=20.0, n_cores=1)
        tracer = RecordingTracer()
        server = IndexServerModel(
            simulator, oracle, FixedPolicy(1), 1, metrics,
            deadline=deadline, max_queue_length=max_queue_length,
            tracer=tracer,
        )
        for i, t in enumerate(np.linspace(0.0, 10.0, 80)):
            simulator.schedule_at(
                float(t), lambda i=i: server.submit(i % oracle.n_queries)
            )
        simulator.run()
        return metrics, tracer

    def test_shed_reasons_match_collector(self):
        metrics, tracer = self._overloaded_run()
        by_reason = {}
        for trace in tracer.traces:
            reason = trace.shed_reason
            if reason is not None:
                by_reason[reason] = by_reason.get(reason, 0) + 1
        assert by_reason == metrics.shed_by_reason
        assert sum(by_reason.values()) == metrics.n_shed > 0
        # Both shedding mechanisms actually fired in this scenario.
        assert set(by_reason) == {"admission", "deadline"}

    def test_conservation_law(self):
        metrics, tracer = self._overloaded_run()
        flows = metrics.conservation()
        assert (
            flows["completed"] + flows["shed"] + flows["in_flight"]
            == flows["issued"]
        )
        # The run drained, so every issued query produced exactly one
        # trace and the trace-derived flows agree with the counters.
        assert flows["in_flight"] == 0
        traces = tracer.traces
        assert len(traces) == flows["issued"]
        assert sum(t.completed for t in traces) == flows["completed"]
        assert sum(t.shed_reason is not None for t in traces) == flows["shed"]

    def test_summary_n_shed_matches_traces(self):
        config = LoadPointConfig(
            rate=30.0, duration=8.0, warmup=1.0, n_cores=2, seed=9,
            deadline=0.6, max_queue_length=8,
        )
        summary, observer = _traced_load_point(
            FixedPolicy(1), config, table=constant_table(t1=0.2)
        )
        traces = observer.tracer.traces
        # The summary's shed count is warmup-windowed by arrival time;
        # apply the same filter to the spans.
        n_shed = sum(
            t.shed_reason is not None and t.arrival_s >= config.warmup
            for t in traces
        )
        assert n_shed == summary.n_shed > 0
        # Every trace is one of the three flow classes.
        assert all(t.completed or t.shed_reason is not None for t in traces)


class TestTimelineConsistency:
    def test_gauges_sample_monotone_counts(self):
        config = LoadPointConfig(
            rate=3.0, duration=10.0, warmup=2.0, n_cores=4, seed=2
        )
        _, observer = _traced_load_point(FixedPolicy(2), config)
        rows = observer.sampler.rows
        assert len(rows) >= 50  # ~100 samples per run by default
        times = [row["t_s"] for row in rows]
        assert times == sorted(times)
        for field in ("arrivals", "completions", "shed"):
            values = [row[field] for row in rows]
            assert values == sorted(values), f"{field} must be cumulative"
        assert all(row["queue_depth"] >= 0 for row in rows)
        assert all(0 <= row["busy_cores"] <= config.n_cores for row in rows)

    def test_degree_histogram_covers_observed_queries(self):
        config = LoadPointConfig(
            rate=2.0, duration=10.0, warmup=2.0, n_cores=4, seed=4
        )
        summary, observer = _traced_load_point(FixedPolicy(2), config)
        snapshot = observer.registry.snapshot()
        histogram = snapshot["histograms"]["granted_degree"]
        # The histogram folds in exactly the warmup-filtered records the
        # summary is computed from.
        assert histogram["n"] == summary.observed
        assert histogram["mean"] == pytest.approx(summary.mean_degree, rel=1e-9)


class TestClusterInvariants:
    def _traced_cluster(self, **overrides):
        config = ClusterConfig(
            n_shards=3, n_cores_per_shard=2, rate=4.0, duration=8.0,
            warmup=2.0, seed=13, **overrides,
        )
        tracer = RecordingTracer()
        table = constant_table(t1=0.1)
        summary = run_cluster_point(
            ServiceOracle(table), lambda: FixedPolicy(1), config, tracer=tracer
        )
        cluster = [t for t in tracer.traces if t.root.name == CLUSTER]
        node = [t for t in tracer.traces if t.root.name == QUERY]
        return config, summary, cluster, node

    def test_outcome_counts_match_summary(self):
        config, summary, cluster, _ = self._traced_cluster()
        assert summary.unfinished == 0
        window = [t for t in cluster if t.arrival_s >= config.warmup]
        outcomes = {}
        for trace in window:
            outcomes[trace.outcome] = outcomes.get(trace.outcome, 0) + 1
        assert outcomes.get("full", 0) == summary.n_full
        assert outcomes.get("partial", 0) == summary.n_partial
        assert outcomes.get("failed", 0) == summary.n_failed
        assert summary.n_full == summary.observed > 0

    def test_every_cluster_trace_validates_with_one_attempt_per_shard(self):
        config, _, cluster, _ = self._traced_cluster()
        assert cluster
        for trace in cluster:
            trace.root.validate()
            assert trace.query_index == -1
            assert len(trace.root.children) == config.n_shards
            shards = sorted(s.attrs["shard"] for s in trace.root.children)
            assert shards == list(range(config.n_shards))
            # Fault-free wait-for-all: every shard attempt won.
            assert all(
                s.attrs["outcome"] == "won" for s in trace.root.children
            )

    def test_node_traces_carry_shard_server_ids(self):
        config, _, cluster, node = self._traced_cluster()
        servers = {t.server_id for t in node}
        assert servers == {f"shard{i}" for i in range(config.n_shards)}
        # Each shard served every cluster query.
        assert len(node) == config.n_shards * len(cluster)

    def test_quorum_answers_are_partial_in_traces(self):
        config, summary, cluster, _ = self._traced_cluster(quorum=2)
        assert summary.n_partial > 0
        window = [t for t in cluster if t.arrival_s >= config.warmup]
        partial = [t for t in window if t.outcome == "partial"]
        assert len(partial) == summary.n_partial
        for trace in partial:
            outcomes = [s.attrs["outcome"] for s in trace.root.children]
            assert outcomes.count("won") == 2
            assert outcomes.count("abandoned") == 1
            finalize = trace.root.events[-1]
            assert finalize.attrs["quorum"] == 2
            assert finalize.attrs["coverage"] == pytest.approx(2 / 3)


class TestRegimeClassShedAccounting:
    """E20 cross-validation: class shedding under an adversarial burst.

    A slow-query flood hits a guarded online run; the guard's class
    sheds are re-derived three independent ways — from the shed-outcome
    spans, from the ``anomaly.*`` lifecycle events, and from the guard's
    own transition log — and all derivations must agree.
    """

    WINDOW = 0.25
    BURST_START, BURST_END = 4.0, 10.0

    def _regime_run(self, traced=True):
        table = constant_table(n_queries=20, t1=0.1, degrees=(1, 2, 4))
        streams = RngFactory(7)
        duration = 12.0
        traffic = TrafficConfig(
            background=DiurnalProfile(base_rate=20.0),
            bursts=(
                Burst(
                    SLOW_QUERY_FLOOD,
                    start_s=self.BURST_START,
                    duration_s=self.BURST_END - self.BURST_START,
                    peak_rate=60.0,
                ),
            ),
        )
        arrivals = RegimeTraffic(traffic, streams, horizon_s=duration)
        sampler = ClassAwareQuerySampler(table.sequential_latencies(), streams)
        policy = OnlineAdaptivePolicy(
            ThresholdTable.from_pairs([(2, 4), (4, 2), (8, 1)])
        )
        tracer = RecordingTracer() if traced else None
        controller = OnlineDegreeController(
            policy,
            OnlineControllerConfig(
                target_p99_s=0.4, window_s=self.WINDOW, step=0.3,
                deadband=0.1, min_scale=0.25, max_scale=1.0,
                shed_rate_high=0.02, min_samples=5,
            ),
            tracer=tracer,
        )
        guard = AnomalyGuard(
            AnomalyGuardConfig(
                slo_s=0.4, window_s=self.WINDOW, sla_epsilon=0.05,
                degraded_degree_cap=2, shedding_queue_cap=8,
                shed_classes=(SLOW_QUERY_FLOOD,), recovery_windows=2,
            ),
            policy=policy,
            tracer=tracer,
        )
        config = LoadPointConfig(
            rate=20.0, duration=duration, warmup=1.0, n_cores=4, seed=7,
            deadline=0.4, max_queue_length=64, slo=0.4,
        )
        summary = run_load_point(
            ServiceOracle(table), policy, config,
            arrivals=arrivals,
            observer=RunObserver(tracer=tracer) if traced else None,
            controllers=(controller, guard),
            query_sampler=sampler,
        )
        return summary, config, tracer, guard, sampler

    def _shedding_intervals(self, guard, horizon):
        """[start, end) windows during which the guard was SHEDDING."""
        intervals, start = [], None
        for when, level in guard.transitions:
            if level == DegradationLevel.SHEDDING and start is None:
                start = when
            elif level < DegradationLevel.SHEDDING and start is not None:
                intervals.append((start, when))
                start = None
        if start is not None:
            intervals.append((start, horizon))
        return intervals

    def test_class_sheds_confined_to_attack_flow_while_shedding(self):
        summary, config, tracer, guard, sampler = self._regime_run()
        class_sheds = [
            t for t in tracer.traces if t.shed_reason == "class"
        ]
        assert class_sheds, "the flood must trigger class shedding"
        # The ladder climbed one rung per window: degrade, then shed.
        levels = [level for _, level in guard.transitions]
        assert levels[:2] == [
            DegradationLevel.DEGRADED,
            DegradationLevel.SHEDDING,
        ]
        # Only attack-class arrivals carry attack query indices, and the
        # sampler confines those to the top HEAVY_FRACTION of the table.
        attack = {int(i) for i in sampler.attack_indices}
        assert all(t.query_index in attack for t in class_sheds)
        assert all(
            self.BURST_START <= t.arrival_s < self.BURST_END
            for t in class_sheds
        )
        # Class sheds happen exactly while the guard sits at SHEDDING.
        intervals = self._shedding_intervals(guard, config.duration)
        assert intervals
        for trace in class_sheds:
            assert any(
                lo <= trace.arrival_s < hi for lo, hi in intervals
            ), f"class shed at {trace.arrival_s} outside {intervals}"
        # And nothing was class-shed outside those intervals: every
        # attack arrival inside an interval was refused at the door.
        in_intervals = [
            t for t in tracer.traces
            if any(lo <= t.arrival_s < hi for lo, hi in intervals)
            and t.query_index in attack
        ]
        # Background traffic also draws heavy indices occasionally, so
        # completed heavy-index traces can exist inside the intervals —
        # but every *shed* with reason "class" is in the attack set and
        # every attack-class arrival in-interval was shed, which bounds
        # the two counts.
        assert len(class_sheds) <= len(in_intervals)

    def test_lifecycle_events_match_transition_log(self):
        _, config, tracer, guard, _ = self._regime_run()
        ladder = [
            e for e in tracer.lifecycle_events
            if e.name in ("anomaly.degrade", "anomaly.recover")
        ]
        assert len(ladder) == len(guard.transitions) > 0
        for event, (when, level) in zip(ladder, guard.transitions):
            assert event.time_s == when
            assert event.attrs["to"] == level.name.lower()
        # The from/to chain is contiguous: each event starts where the
        # previous one ended.
        for previous, event in zip(ladder, ladder[1:]):
            assert event.attrs["from"] == previous.attrs["to"]
        # The controller tightened at least once under the flood, and
        # all lifecycle events are emitted in virtual-time order.
        adjust = [
            e for e in tracer.lifecycle_events if e.name == "control.adjust"
        ]
        assert any(e.attrs["action"] == "tighten" for e in adjust)
        times = [e.time_s for e in tracer.lifecycle_events]
        assert times == sorted(times)

    def test_trace_counts_match_summary(self):
        summary, config, tracer, _, _ = self._regime_run()
        traces = tracer.traces
        # Every arrival resolved: completed or shed, nothing in flight.
        assert all(t.completed or t.shed_reason is not None for t in traces)
        n_shed = sum(
            t.shed_reason is not None and t.arrival_s >= config.warmup
            for t in traces
        )
        assert n_shed == summary.n_shed > 0
        n_completed = sum(
            t.completed and t.arrival_s >= config.warmup for t in traces
        )
        assert n_completed == summary.observed

    def test_traced_run_matches_untraced(self):
        traced, *_ = self._regime_run(traced=True)
        untraced, *_ = self._regime_run(traced=False)
        assert traced == untraced
