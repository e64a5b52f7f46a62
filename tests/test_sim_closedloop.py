"""Tests for the closed-loop workload runner."""

import numpy as np
import pytest

from repro.engine.query import Query
from repro.policies.fixed import SequentialPolicy
from repro.profiles.measurement import QueryCostTable
from repro.sim.closedloop import ClosedLoopConfig, run_closed_loop_point
from repro.sim.oracle import ServiceOracle


def _oracle(n=500, mean=0.002, seed=0):
    rng = np.random.default_rng(seed)
    latencies = rng.exponential(mean, size=n).reshape(n, 1)
    latencies *= mean / latencies.mean()
    table = QueryCostTable(
        [Query.of([0], query_id=i) for i in range(n)],
        (1,),
        latencies,
        latencies.copy(),
        np.ones((n, 1), dtype=np.int64),
    )
    return ServiceOracle(table)


class TestClosedLoop:
    def test_throughput_bounded_by_client_cycle(self):
        """Little's law: throughput <= N / (think + service)."""
        oracle = _oracle()
        config = ClosedLoopConfig(n_clients=8, think_time=0.01,
                                  duration=20.0, warmup=2.0, n_cores=4, seed=1)
        summary = run_closed_loop_point(oracle, SequentialPolicy(), config)
        bound = config.n_clients / (config.think_time + 0.002)
        assert 0 < summary.throughput <= bound * 1.05

    def test_single_client_never_queues(self):
        oracle = _oracle()
        config = ClosedLoopConfig(n_clients=1, think_time=0.005,
                                  duration=10.0, warmup=1.0, n_cores=4, seed=2)
        summary = run_closed_loop_point(oracle, SequentialPolicy(), config)
        assert summary.mean_queue_delay == pytest.approx(0.0, abs=1e-12)

    def test_saturation_self_throttles(self):
        """Unlike open loop, a huge population yields ~full utilization
        with finite latency (each client waits its turn)."""
        oracle = _oracle()
        config = ClosedLoopConfig(n_clients=200, think_time=0.0001,
                                  duration=10.0, warmup=2.0, n_cores=4, seed=3)
        summary = run_closed_loop_point(oracle, SequentialPolicy(), config)
        assert summary.utilization > 0.9
        assert np.isfinite(summary.p99_latency)

    def test_more_clients_more_throughput_until_saturation(self):
        oracle = _oracle()
        throughputs = []
        for n_clients in (2, 8, 64):
            config = ClosedLoopConfig(n_clients=n_clients, think_time=0.002,
                                      duration=10.0, warmup=2.0, n_cores=4,
                                      seed=4)
            throughputs.append(
                run_closed_loop_point(oracle, SequentialPolicy(), config).throughput
            )
        assert throughputs[0] < throughputs[1] <= throughputs[2] * 1.05

    def test_reproducible(self):
        oracle = _oracle()
        config = ClosedLoopConfig(n_clients=6, think_time=0.003,
                                  duration=5.0, warmup=1.0, n_cores=4, seed=5)
        a = run_closed_loop_point(oracle, SequentialPolicy(), config)
        b = run_closed_loop_point(oracle, SequentialPolicy(), config)
        assert a.p99_latency == b.p99_latency

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            ClosedLoopConfig(n_clients=0)
        with pytest.raises(Exception):
            ClosedLoopConfig(think_time=-1.0)
