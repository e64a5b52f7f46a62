"""Tests for the cluster fan-out model."""

import numpy as np
import pytest

from repro.engine.query import Query
from repro.policies.fixed import SequentialPolicy
from repro.profiles.measurement import QueryCostTable
from repro.sim.cluster import (
    AGGREGATION_OVERHEAD_S,
    ClusterConfig,
    ClusterSummary,
    run_cluster_point,
)
from repro.sim.oracle import ServiceOracle


def _table(n=2000, mean=0.002, seed=0):
    rng = np.random.default_rng(seed)
    latencies = rng.lognormal(np.log(mean), 0.8, size=n).reshape(n, 1)
    return QueryCostTable(
        [Query.of([0], query_id=i) for i in range(n)],
        (1,),
        latencies,
        latencies.copy(),
        np.ones((n, 1), dtype=np.int64),
    )


class TestClusterModel:
    def test_single_shard_reduces_to_plain_server(self):
        oracle = ServiceOracle(_table())
        config = ClusterConfig(n_shards=1, n_cores_per_shard=4, rate=200.0,
                               duration=5.0, warmup=1.0,  seed=1)
        summary = run_cluster_point(oracle, SequentialPolicy, config)
        assert summary.observed > 0
        # With one shard, cluster latency == shard latency distribution.
        assert summary.tail_amplification == pytest.approx(1.0, abs=0.05)

    def test_fanout_amplifies_median(self):
        oracle = ServiceOracle(_table())
        base = dict(n_cores_per_shard=4, rate=100.0, duration=5.0,
                    warmup=1.0, seed=2)
        one = run_cluster_point(oracle, SequentialPolicy,
                                ClusterConfig(n_shards=1, **base))
        eight = run_cluster_point(oracle, SequentialPolicy,
                                  ClusterConfig(n_shards=8, **base))
        assert eight.p50_latency > one.p50_latency

    def test_cluster_latency_at_least_slowest_shard_median(self):
        oracle = ServiceOracle(_table())
        config = ClusterConfig(n_shards=4, n_cores_per_shard=4, rate=50.0,
                               duration=5.0, warmup=1.0,  seed=3)
        summary = run_cluster_point(oracle, SequentialPolicy, config)
        # max over 4 draws stochastically dominates a single draw.
        assert summary.p50_latency > 0

    def test_aggregation_overhead_added(self):
        # One shard: the cluster answer is the shard's response plus the
        # aggregator's fixed merge step, nothing else.
        oracle = ServiceOracle(_table())
        config = ClusterConfig(n_shards=1, n_cores_per_shard=4, rate=200.0,
                               duration=5.0, warmup=1.0, seed=4)
        summary = run_cluster_point(oracle, SequentialPolicy, config)
        assert summary.p99_latency == pytest.approx(
            summary.shard_p99_latency + AGGREGATION_OVERHEAD_S, rel=1e-9)

    def test_median_is_the_fiftieth_percentile(self):
        # Three equally likely service times and no queueing: the median
        # answer is the middle one plus the merge step, exactly.
        times = np.array([[0.001], [0.002], [0.010]])
        table = QueryCostTable(
            [Query.of([0], query_id=i) for i in range(3)],
            (1,), times, times.copy(), np.ones((3, 1), dtype=np.int64),
        )
        config = ClusterConfig(n_shards=1, n_cores_per_shard=4, rate=50.0,
                               duration=8.0, warmup=1.0, seed=5)
        summary = run_cluster_point(ServiceOracle(table), SequentialPolicy, config)
        assert summary.observed > 200
        assert summary.p50_latency == pytest.approx(
            0.002 + AGGREGATION_OVERHEAD_S, rel=1e-9)

    def test_policy_factory_called_per_shard(self):
        oracle = ServiceOracle(_table())
        created = []

        def factory():
            policy = SequentialPolicy()
            created.append(policy)
            return policy

        run_cluster_point(
            oracle, factory,
            ClusterConfig(n_shards=3, n_cores_per_shard=2, rate=20.0,
                          duration=2.0, warmup=0.5, seed=5),
        )
        assert len(created) == 3
        assert len(set(map(id, created))) == 3

    def test_summary_fields(self):
        oracle = ServiceOracle(_table())
        summary = run_cluster_point(
            oracle, SequentialPolicy,
            ClusterConfig(n_shards=2, n_cores_per_shard=4, rate=100.0,
                          duration=4.0, warmup=1.0, seed=6),
        )
        assert isinstance(summary, ClusterSummary)
        assert summary.policy == "sequential"
        assert summary.p99_latency >= summary.p95_latency >= summary.p50_latency

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            ClusterConfig(n_shards=0)
        with pytest.raises(Exception):
            ClusterConfig(warmup=10.0, duration=5.0)
