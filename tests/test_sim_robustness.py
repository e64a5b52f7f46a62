"""Tests for the overload-robustness layer: deadlines, load shedding,
fault injection, and partial/hedged cluster aggregation."""

import math

import pytest

from conftest import constant_table, run_trace
from repro.policies.base import ParallelismPolicy, QueryInfo, SystemState
from repro.policies.fixed import FixedPolicy, SequentialPolicy
from repro.sim.arrivals import TraceArrivals
from repro.sim.cluster import ClusterAggregator, ClusterConfig, run_cluster_point
from repro.sim.engine import Simulator
from repro.sim.experiment import LoadPointConfig, run_load_point, run_to_horizon
from repro.sim.faults import ClusterFaultPlan, FaultSchedule
from repro.sim.metrics import MetricsCollector
from repro.sim.oracle import ServiceOracle
from repro.sim.script import arrival_times, replay
from repro.sim.server import IndexServerModel


class TestDeadlineShedding:
    def test_queued_past_budget_are_shed(self):
        # t1 = 1.0, deadline 1.5: the first query is served; the next
        # two would start with wait 1.0 and 1.0 + t1 > 1.5, so both shed.
        metrics, server = run_trace(
            SequentialPolicy(), [0.0, 0.0, 0.0], n_cores=1, deadline=1.5,
        )
        assert metrics.n_observed == 1
        assert metrics.n_shed == 2
        assert server.n_shed == 2
        assert metrics.shed_by_reason == {"deadline": 2}
        assert metrics.records[0].latency == pytest.approx(1.0)

    def test_hopeless_queries_shed_at_arrival_wait_zero(self):
        # deadline < t1: even with zero wait no query can make the SLO.
        metrics, _ = run_trace(
            SequentialPolicy(), [0.0, 0.5], n_cores=1, deadline=0.9,
        )
        assert metrics.n_observed == 0
        assert metrics.n_shed == 2

    def test_shed_rate_and_slo_statistics(self):
        metrics, _ = run_trace(
            SequentialPolicy(), [0.0, 0.0, 0.0], n_cores=1, deadline=1.5,
        )
        assert metrics.shed_rate() == pytest.approx(2.0 / 3.0)
        # One query answered in budget out of three demanded.
        assert metrics.slo_attainment(1.5) == pytest.approx(1.0 / 3.0)
        assert metrics.goodput(1.5) == pytest.approx(1.0 / 100.0)

    def test_no_deadline_no_sheds(self):
        metrics, _ = run_trace(SequentialPolicy(), [0.0, 0.0, 0.0], n_cores=1)
        assert metrics.n_shed == 0
        assert metrics.n_observed == 3
        assert metrics.shed_rate() == 0.0


class TestAdmissionCap:
    def test_arrivals_beyond_cap_rejected(self):
        # One running + one queued; the third arrival finds the queue at
        # the cap and is rejected at the door.
        metrics, _ = run_trace(
            SequentialPolicy(), [0.0, 0.0, 0.0], n_cores=1, max_queue_length=1,
        )
        assert metrics.n_observed == 2
        assert metrics.n_shed == 1
        assert metrics.shed_by_reason == {"admission": 1}

    def test_cap_not_hit_under_light_load(self):
        metrics, _ = run_trace(
            SequentialPolicy(), [0.0, 2.0, 4.0], n_cores=1, max_queue_length=1,
        )
        assert metrics.n_shed == 0


class TestServerFaults:
    def test_slowdown_scales_service_time(self):
        metrics, _ = run_trace(
            SequentialPolicy(), [0.0], n_cores=1,
            faults=FaultSchedule.slowdown(0.0, 10.0, 2.0),
        )
        assert metrics.records[0].latency == pytest.approx(2.0)

    def test_slowdown_applies_at_dispatch_time(self):
        # The window ends at 0.5; a query dispatched after it is healthy.
        metrics, _ = run_trace(
            SequentialPolicy(), [1.0], n_cores=1,
            faults=FaultSchedule.slowdown(0.0, 0.5, 3.0),
        )
        assert metrics.records[0].latency == pytest.approx(1.0)

    def test_crash_sheds_dispatched_queries(self):
        metrics, _ = run_trace(
            SequentialPolicy(), [0.0, 2.0], n_cores=1,
            faults=FaultSchedule.crash(0.0, 1.0),
        )
        assert metrics.n_shed == 1
        assert metrics.shed_by_reason == {"fault": 1}
        assert metrics.n_observed == 1

    def test_empty_schedule_is_ignored(self):
        metrics, server = run_trace(
            SequentialPolicy(), [0.0], n_cores=1, faults=FaultSchedule(),
        )
        assert server.faults is None
        assert metrics.records[0].latency == pytest.approx(1.0)


class TestPolicyVisibility:
    def test_policy_sees_sheds_and_overload(self):
        observed = []

        class Spy(ParallelismPolicy):
            name = "spy"

            def choose_degree(self, state: SystemState, info: QueryInfo) -> int:
                observed.append((state.n_shed, state.overloaded))
                return 1

        # First dispatch: nothing shed yet. After the deadline kills two
        # queued queries, the next dispatched query sees n_shed == 2 and
        # the overloaded flag raised in the same dispatch cycle.
        run_trace(Spy(), [0.0, 0.0, 0.0, 1.0], n_cores=1, deadline=1.5)
        assert observed[0] == (0, False)
        assert observed[1] == (2, True)

    def test_default_state_has_no_sheds(self):
        state = SystemState(now=0.0, n_queued=0, n_running=0, free_cores=2,
                            n_cores=2)
        assert state.n_shed == 0
        assert state.overloaded is False


def _cluster_table(n=500, t1=0.002):
    return constant_table(n_queries=n, t1=t1)


class TestPartialAggregation:
    def test_quorum_answers_partial(self):
        oracle = ServiceOracle(_cluster_table())
        config = ClusterConfig(n_shards=2, n_cores_per_shard=2, rate=50.0,
                               duration=4.0, warmup=1.0,  seed=3, quorum=1)
        summary = run_cluster_point(oracle, SequentialPolicy, config)
        assert summary.observed > 0
        assert summary.n_partial == summary.observed
        assert summary.n_full == 0
        assert summary.mean_coverage == pytest.approx(0.5)

    def test_timeout_emits_partial_answer(self):
        # Shard 1 runs 100x slow (0.2 s) against a 0.05 s timeout: every
        # answer is forced out at the timeout with coverage 1/2.
        oracle = ServiceOracle(_cluster_table())
        config = ClusterConfig(n_shards=2, n_cores_per_shard=4, rate=20.0,
                               duration=4.0, warmup=1.0,  seed=4,
                               shard_timeout=0.05)
        summary = run_cluster_point(
            oracle, SequentialPolicy, config,
            faults=ClusterFaultPlan.slow_shard(1, 0.0, 4.0, 100.0),
        )
        assert summary.n_timed_out > 0
        assert summary.n_partial > 0
        assert summary.mean_coverage == pytest.approx(0.5, abs=0.05)
        # Answers go out at the timeout, not at the slow shard's pace.
        assert summary.p99_latency == pytest.approx(0.05, rel=0.05)

    def test_crashed_shard_releases_join_state(self):
        # Shard 1 is down the whole run; its sheds must release the
        # aggregator immediately (partial answers, no timeout needed).
        oracle = ServiceOracle(_cluster_table())
        config = ClusterConfig(n_shards=2, n_cores_per_shard=4, rate=20.0,
                               duration=4.0, warmup=1.0, seed=5)
        summary = run_cluster_point(
            oracle, SequentialPolicy, config,
            faults=ClusterFaultPlan({1: FaultSchedule.crash(0.0, 40.0)}),
        )
        assert summary.observed > 0
        assert summary.n_partial == summary.observed
        assert summary.n_shed > 0
        assert summary.unfinished == 0

    def test_fault_free_run_is_undegraded(self):
        oracle = ServiceOracle(_cluster_table())
        config = ClusterConfig(n_shards=2, n_cores_per_shard=4, rate=50.0,
                               duration=4.0, warmup=1.0, seed=6)
        summary = run_cluster_point(oracle, SequentialPolicy, config)
        assert summary.n_partial == 0
        assert summary.n_failed == 0
        assert summary.n_shed == 0
        assert summary.n_hedges == 0
        assert summary.n_full == summary.observed
        assert summary.mean_coverage == pytest.approx(1.0)


class TestHedging:
    def test_hedging_cuts_tail_under_slow_shard(self):
        oracle = ServiceOracle(_cluster_table())
        base = dict(n_shards=2, n_cores_per_shard=4, rate=50.0,
                    duration=4.0, warmup=1.0,
                    seed=7)
        faults = ClusterFaultPlan.slow_shard(0, 0.0, 4.0, 50.0)
        plain = run_cluster_point(
            oracle, SequentialPolicy, ClusterConfig(**base), faults=faults)
        hedged = run_cluster_point(
            oracle, SequentialPolicy,
            ClusterConfig(hedge_delay=0.004, **base), faults=faults)
        assert hedged.n_hedges > 0
        assert hedged.n_hedge_wins > 0
        assert hedged.p99_latency < plain.p99_latency / 2

    def test_no_hedges_without_laggards(self):
        # Hedge delay far beyond every latency: the trigger never fires.
        oracle = ServiceOracle(_cluster_table())
        config = ClusterConfig(n_shards=2, n_cores_per_shard=4, rate=20.0,
                               duration=4.0, warmup=1.0, seed=8,
                               hedge_delay=30.0)
        summary = run_cluster_point(oracle, SequentialPolicy, config)
        assert summary.n_hedges == 0
        assert summary.n_hedge_wins == 0


class TestDeterminism:
    def test_load_point_sheds_reproducible(self):
        oracle = ServiceOracle(constant_table(n_queries=50, t1=0.01))
        config = LoadPointConfig(rate=150.0, duration=5.0, warmup=1.0,
                                 n_cores=1, seed=11, deadline=0.05,
                                 max_queue_length=8)
        a = run_load_point(oracle, SequentialPolicy(), config)
        b = run_load_point(oracle, SequentialPolicy(), config)
        assert a.n_shed == b.n_shed
        assert a.shed_rate == b.shed_rate
        assert a.goodput == b.goodput
        assert a.p99_latency == b.p99_latency

    def test_cluster_robustness_reproducible(self):
        oracle = ServiceOracle(_cluster_table())
        config = ClusterConfig(n_shards=3, n_cores_per_shard=2, rate=100.0,
                               duration=4.0, warmup=1.0, seed=12,
                               deadline=0.05, shard_timeout=0.08,
                               hedge_delay=0.01)
        faults = ClusterFaultPlan.slow_shard(1, 1.0, 3.0, 10.0)
        a = run_cluster_point(oracle, SequentialPolicy, config, faults=faults)
        b = run_cluster_point(oracle, SequentialPolicy, config, faults=faults)
        assert a.n_shed == b.n_shed
        assert a.n_partial == b.n_partial
        assert a.n_timed_out == b.n_timed_out
        assert a.n_hedges == b.n_hedges
        assert a.n_hedge_wins == b.n_hedge_wins
        assert a.p99_latency == b.p99_latency
        assert a.mean_coverage == b.mean_coverage


def _run_cluster_trace(oracle, config, times):
    """``run_cluster_point`` with arrivals at the given ``times`` (query
    index 0 on every shard): the aggregator on a simulator, fed by the
    shared arrival generator and replay."""
    simulator = Simulator()
    aggregator = ClusterAggregator(simulator, oracle, SequentialPolicy, config)
    replay(simulator, aggregator.submit, (
        (time_s, [0] * config.n_shards)
        for time_s, _ in arrival_times(config, TraceArrivals(times))
    ))
    run_to_horizon(simulator, config.duration, aggregator.busy)
    return aggregator.summary()


class TestCensoredTailsVisible:
    def test_unfinished_counted_and_warned(self):
        # Service times (50 s) dwarf the drain limit (10x a 1 s horizon):
        # the second query cannot finish before the drain trips.
        oracle = ServiceOracle(constant_table(n_queries=4, t1=50.0))
        config = ClusterConfig(n_shards=1, n_cores_per_shard=1, rate=2.0,
                               duration=1.0, warmup=0.0, seed=13)
        with pytest.warns(RuntimeWarning, match="still in flight"):
            summary = _run_cluster_trace(oracle, config, [0.1, 0.2])
        assert summary.unfinished == 1

    def test_empty_run_tail_amplification_is_nan(self):
        oracle = ServiceOracle(_cluster_table())
        config = ClusterConfig(n_shards=2, n_cores_per_shard=2, rate=1.0,
                               duration=1.0, warmup=0.0, seed=14)
        summary = _run_cluster_trace(oracle, config, [])
        assert summary.observed == 0
        assert math.isnan(summary.tail_amplification)
        assert math.isnan(summary.p99_latency)


class TestExpectedLatency:
    def test_prediction_preferred_over_truth(self):
        table = constant_table(n_queries=4, t1=1.0)
        oracle = ServiceOracle(table, predicted_latencies=[0.5, 0.5, 0.5, 0.5])
        assert oracle.expected_sequential_latency(0) == pytest.approx(0.5)
        assert ServiceOracle(table).expected_sequential_latency(0) == (
            pytest.approx(1.0)
        )

    def test_budget_aware_shedding_uses_prediction(self):
        # Predicted 0.1 against deadline 0.5: served even though the true
        # t1 (1.0) would blow the budget — the shedder only knows the
        # prediction.
        table = constant_table(n_queries=2, t1=1.0)
        oracle = ServiceOracle(table, predicted_latencies=[0.1, 0.1])
        sim = Simulator()
        metrics = MetricsCollector(warmup=0.0, horizon=100.0, n_cores=1)
        server = IndexServerModel(sim, oracle, SequentialPolicy(), 1, metrics,
                                  deadline=0.5)
        sim.schedule_at(0.0, lambda: server.submit(0))
        sim.run()
        assert metrics.n_shed == 0
        assert metrics.n_observed == 1


class TestFixedPolicyInteraction:
    def test_wide_fixed_policy_sheds_more_than_sequential(self):
        # Fixed-4 inflates CPU (speedup 3.0 at degree 4), so it saturates
        # earlier and sheds more at an over-capacity arrival rate.
        oracle = ServiceOracle(constant_table(n_queries=100, t1=0.01))
        config = LoadPointConfig(rate=450.0, duration=10.0, warmup=2.0,
                                 n_cores=4, seed=15, deadline=0.05)
        wide = run_load_point(oracle, FixedPolicy(4), config)
        narrow = run_load_point(oracle, SequentialPolicy(), config)
        assert wide.shed_rate > narrow.shed_rate
