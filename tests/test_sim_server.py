"""Tests for the simulated ISN: dispatch, clamping, metrics, load points."""

import numpy as np
import pytest

from conftest import constant_table, run_trace
from repro.analysis.queueing_theory import mmc_mean_queue_delay
from repro.engine.query import Query
from repro.policies.adaptive import ThresholdTable
from repro.policies.base import ParallelismPolicy, QueryInfo, SystemState
from repro.policies.fixed import FixedPolicy, SequentialPolicy
from repro.policies.incremental import IncrementalPolicy
from repro.profiles.measurement import QueryCostTable
from repro.sim.arrivals import TraceArrivals
from repro.sim.experiment import LoadPointConfig, run_load_point
from repro.sim.metrics import MetricsCollector, QueryRecord
from repro.sim.oracle import ServiceOracle


class TestOracle:
    def test_clamp_degree(self):
        oracle = ServiceOracle(constant_table())
        assert oracle.clamp_degree(1) == 1
        assert oracle.clamp_degree(3) == 2
        assert oracle.clamp_degree(4) == 4
        assert oracle.clamp_degree(100) == 4

    def test_info_carries_truth(self):
        oracle = ServiceOracle(constant_table(t1=2.0))
        info = oracle.info(0)
        assert info.true_sequential_latency == pytest.approx(2.0)

    def test_predictions_validated(self):
        table = constant_table(n_queries=5)
        with pytest.raises(Exception):
            ServiceOracle(table, predicted_latencies=[1.0, 2.0])


class TestDispatch:
    def test_sequential_fcfs_on_single_core(self):
        metrics, _ = run_trace(
            SequentialPolicy(), [0.0, 0.1, 0.2], n_cores=1,
            table=constant_table(t1=1.0),
        )
        records = sorted(metrics.records, key=lambda r: r.arrival)
        # Service is 1s each; completions at 1, 2, 3.
        assert [r.completion for r in records] == pytest.approx([1.0, 2.0, 3.0])
        # FCFS: starts in arrival order.
        starts = [r.start for r in records]
        assert starts == sorted(starts)

    def test_parallel_query_occupies_degree_cores(self):
        # Two fixed-2 queries on 4 cores arriving together run concurrently.
        metrics, _ = run_trace(FixedPolicy(2), [0.0, 0.0], n_cores=4)
        completions = [r.completion for r in metrics.records]
        assert completions == pytest.approx([1.0 / 1.8] * 2)

    def test_degree_clamped_to_free_cores(self):
        # One fixed-4 query on 2 cores: granted degree must be 2.
        metrics, _ = run_trace(FixedPolicy(4), [0.0], n_cores=2)
        assert metrics.records[0].degree == 2

    def test_degree_clamped_to_measured_grid(self):
        # Request 4 with 3 free cores -> grant 2 (largest measured <= 3).
        metrics, _ = run_trace(FixedPolicy(4), [0.0], n_cores=3)
        assert metrics.records[0].degree == 2

    def test_conservation_arrivals_completions(self):
        metrics, server = run_trace(
            FixedPolicy(2), np.linspace(0, 5, 40).tolist(), n_cores=4
        )
        assert metrics.n_arrivals == 40
        assert metrics.n_completions == 40
        assert server.n_running == 0
        assert server.free_cores == 4

    def test_policy_sees_correct_state(self):
        observed = []

        class Spy(ParallelismPolicy):
            name = "spy"

            def choose_degree(self, state: SystemState, info: QueryInfo) -> int:
                observed.append((state.n_in_system, state.free_cores))
                return 1

        run_trace(Spy(), [0.0, 0.0, 0.0], n_cores=2,
                   table=constant_table(t1=1.0))
        # First two dispatch immediately (1 then 2 in system); the third
        # waits for a free core (by then 1 running + itself = 2... it
        # dispatches after a completion).
        assert observed[0] == (1, 2)
        assert observed[1][0] == 2

    def test_utilization_bounded(self):
        metrics, _ = run_trace(
            FixedPolicy(4), np.linspace(0, 2, 100).tolist(), n_cores=4,
        )
        assert 0.0 < metrics.utilization() <= 1.0 + 1e-9


class TestIncrementalJobs:
    TABLE = ThresholdTable.from_pairs([(2, 4)])

    def test_short_query_never_escalates(self):
        # probe 2.0 > t1 1.0: stays sequential, latency == t1.
        policy = IncrementalPolicy(self.TABLE, probe_time=2.0)
        metrics, _ = run_trace(policy, [0.0], n_cores=4)
        record = metrics.records[0]
        assert record.degree == 1
        assert record.latency == pytest.approx(1.0)

    def test_long_query_escalates_and_finishes_faster(self):
        policy = IncrementalPolicy(self.TABLE, probe_time=0.25)
        metrics, _ = run_trace(policy, [0.0], n_cores=4)
        record = metrics.records[0]
        assert record.degree == 4
        # probe 0.25 + remaining 0.75 of work at S(4)=3: 0.25 + 0.25 = 0.5.
        assert record.latency == pytest.approx(0.25 + 0.75 / 3.0)
        assert record.latency < 1.0

    def test_escalation_degrades_gracefully_without_cores(self):
        # Single core: escalation cannot widen; query completes sequentially.
        policy = IncrementalPolicy(self.TABLE, probe_time=0.25)
        metrics, _ = run_trace(policy, [0.0], n_cores=1)
        record = metrics.records[0]
        assert record.degree == 1
        assert record.latency == pytest.approx(1.0)

    def test_planned_escalation_finds_zero_free_cores(self):
        # Two queries on 2 cores: A dispatches with 2 free cores and plans
        # an escalation to 2; B takes the other core for its full t1. When
        # A's probe ends, zero cores are free beyond its own, so the
        # escalation continues sequentially (`actual == 1`) — the query
        # must not stall, and total work is conserved: probe + remaining
        # 0.75 of t1 sequentially = exactly t1.
        policy = IncrementalPolicy(self.TABLE, probe_time=0.25)
        metrics, server = run_trace(policy, [0.0, 0.0], n_cores=2)
        assert len(metrics.records) == 2
        for record in metrics.records:
            assert record.degree == 1
            assert record.latency == pytest.approx(1.0)
        assert server.free_cores == 2
        assert server.n_running == 0

    def test_starved_escalation_recomputes_at_probe_end(self):
        # Same setup, with a slowdown window opening exactly at the probe
        # boundary. B (dispatched healthy at t=0) is untouched; A's
        # sequential continuation is priced at escalation time and pays
        # the 2x multiplier: 0.25 probe + 0.75 * 2 = 1.75. This pins the
        # `actual == 1` branch to the escalation-time recompute rather
        # than the dispatch-time plan.
        from repro.sim.faults import FaultSchedule

        policy = IncrementalPolicy(self.TABLE, probe_time=0.25)
        metrics, _ = run_trace(
            policy, [0.0, 0.0], n_cores=2,
            faults=FaultSchedule.slowdown(0.25, 10.0, 2.0),
        )
        completions = sorted(r.completion for r in metrics.records)
        assert completions == pytest.approx([1.0, 1.75])


class TestMetricsCollector:
    def test_warmup_filters_arrivals(self):
        metrics = MetricsCollector(warmup=1.0, horizon=10.0, n_cores=2)
        metrics.on_completion(QueryRecord(0, arrival=0.5, start=0.5,
                                          completion=2.0, degree=1))
        metrics.on_completion(QueryRecord(1, arrival=1.5, start=1.5,
                                          completion=2.0, degree=1))
        assert metrics.n_observed == 1

    def test_post_horizon_completions_kept_for_latency(self):
        metrics = MetricsCollector(warmup=0.0, horizon=10.0, n_cores=2)
        metrics.on_completion(QueryRecord(0, arrival=9.0, start=9.0,
                                          completion=12.0, degree=1))
        assert metrics.n_observed == 1
        assert metrics.n_completed_in_window == 0

    def test_core_usage_clipped_to_window(self):
        metrics = MetricsCollector(warmup=1.0, horizon=3.0, n_cores=1)
        metrics.on_core_usage(0.0, 4.0, cores=1)
        assert metrics.busy_core_seconds == pytest.approx(2.0)
        assert metrics.utilization() == pytest.approx(1.0)

    def test_degree_histogram_fractions(self):
        metrics = MetricsCollector(warmup=0.0, horizon=1.0, n_cores=2)
        for degree in (1, 1, 2, 4):
            metrics.on_completion(QueryRecord(0, 0.0, 0.0, 0.5, degree))
        histogram = metrics.degree_histogram()
        assert histogram == {1: 0.5, 2: 0.25, 4: 0.25}
        assert metrics.mean_degree() == pytest.approx(2.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(Exception):
            MetricsCollector(warmup=5.0, horizon=5.0, n_cores=1)


class TestRunLoadPoint:
    def test_summary_fields_consistent(self):
        table = constant_table(n_queries=50, t1=0.01)
        oracle = ServiceOracle(table)
        summary = run_load_point(
            oracle, SequentialPolicy(),
            LoadPointConfig(rate=100.0, duration=10.0, warmup=1.0,
                            n_cores=4, seed=1),
        )
        assert summary.observed > 0
        assert summary.p99_latency >= summary.p50_latency
        assert summary.mean_latency >= 0.01 - 1e-9
        assert 0 < summary.utilization <= 1.0

    def test_matches_erlang_c(self):
        """Deterministic-degree-1 exponential service: simulator == M/M/c."""
        rng = np.random.default_rng(3)
        n = 4000
        mean_service = 0.005
        latencies = rng.exponential(mean_service, size=n)
        latencies *= mean_service / latencies.mean()
        table = QueryCostTable(
            [Query.of([0], query_id=i) for i in range(n)],
            (1,),
            latencies.reshape(n, 1),
            latencies.reshape(n, 1).copy(),
            np.ones((n, 1), dtype=np.int64),
        )
        oracle = ServiceOracle(table)
        n_cores, rho = 4, 0.7
        rate = rho * n_cores / mean_service
        summary = run_load_point(
            oracle, SequentialPolicy(),
            LoadPointConfig(rate=rate, duration=150.0, warmup=10.0,
                            n_cores=n_cores, seed=2),
        )
        theory = mmc_mean_queue_delay(rate, 1.0 / mean_service, n_cores)
        assert summary.mean_queue_delay == pytest.approx(theory, rel=0.15)

    def test_reproducible_for_same_seed(self):
        table = constant_table(n_queries=30, t1=0.01)
        oracle = ServiceOracle(table)
        config = LoadPointConfig(rate=50.0, duration=5.0, warmup=1.0,
                                 n_cores=4, seed=9)
        a = run_load_point(oracle, FixedPolicy(2), config)
        b = run_load_point(oracle, FixedPolicy(2), config)
        assert a.p99_latency == b.p99_latency
        assert a.observed == b.observed

    def test_custom_arrival_process_used(self):
        table = constant_table(n_queries=10, t1=0.001)
        oracle = ServiceOracle(table)
        arrivals = TraceArrivals([0.1, 0.2, 0.3])
        summary = run_load_point(
            oracle, SequentialPolicy(),
            LoadPointConfig(rate=1000.0, duration=1.0, warmup=0.0,
                            n_cores=2, seed=0),
            arrivals=arrivals,
        )
        assert summary.observed == 3
