"""The cluster aggregator's join rules, without a simulation.

``ClusterAggregator`` runs on a hand-advanced ``FakeClock`` with stub
shards that only record what they are sent; every response and shed is
fired by hand, so each rule — answer at quorum, fail at a timeout with
nothing back, wait for the hedge when every primary is gone, count a
replica win once, ignore what arrives after the answer — is checked on
its own.
"""

import pytest

from conftest import constant_table
from repro.policies.fixed import SequentialPolicy
from repro.runtime.clock import FakeClock
from repro.sim.cluster import AGGREGATION_OVERHEAD_S, ClusterAggregator, ClusterConfig
from repro.sim.metrics import QueryRecord
from repro.sim.oracle import ServiceOracle

N_SHARDS = 3


class StubShard:
    """Records every request instead of serving it."""

    def __init__(self):
        self.submitted = []

    def submit(self, query_index, query_class=None, tag=None):
        self.submitted.append((query_index, tag))


def _aggregator(**knobs):
    clock = FakeClock()
    config = ClusterConfig(n_shards=N_SHARDS, n_cores_per_shard=1, rate=1.0,
                           duration=10.0, warmup=0.0, **knobs)
    aggregator = ClusterAggregator(
        clock, ServiceOracle(constant_table()), SequentialPolicy, config
    )
    aggregator.shards = [StubShard() for _ in range(N_SHARDS)]
    aggregator.replicas = [StubShard() for _ in aggregator.replicas]
    return clock, aggregator


def _respond(clock, aggregator, time_s, shard_id, replica=False, tag=0):
    clock.advance_to(time_s)
    record = QueryRecord(0, 0.0, 0.0, time_s, 1)
    aggregator.on_complete(record, (tag, shard_id, replica))


def _shed(clock, aggregator, time_s, shard_id, replica=False, tag=0):
    clock.advance_to(time_s)
    aggregator.on_shed(0, (tag, shard_id, replica), "deadline", 0.0, time_s)


def test_fans_out_one_request_per_shard():
    clock, aggregator = _aggregator()
    aggregator.submit([4, 5, 6])
    assert [shard.submitted for shard in aggregator.shards] == [
        [(4, (0, 0, False))], [(5, (0, 1, False))], [(6, (0, 2, False))],
    ]
    assert aggregator.busy()


def test_answers_at_quorum():
    clock, aggregator = _aggregator(quorum=2)
    aggregator.submit([0, 0, 0])
    _respond(clock, aggregator, 0.1, 0)
    assert aggregator.busy()
    _respond(clock, aggregator, 0.3, 2)
    assert not aggregator.busy()
    assert (aggregator.n_full, aggregator.n_partial) == (0, 1)
    assert aggregator.latencies == [pytest.approx(0.3 + AGGREGATION_OVERHEAD_S)]
    assert aggregator.coverages == [pytest.approx(2 / 3)]


def test_timeout_with_no_response_is_failed_and_timed_out():
    clock, aggregator = _aggregator(shard_timeout=0.5)
    aggregator.submit([0, 0, 0])
    clock.advance_to(0.5)
    assert not aggregator.busy()
    assert (aggregator.n_failed, aggregator.n_timed_out) == (1, 1)
    assert aggregator.n_full == aggregator.n_partial == 0
    assert aggregator.latencies == []


def test_waits_for_the_hedge_when_every_primary_sheds():
    clock, aggregator = _aggregator(hedge_delay=0.2)
    aggregator.submit([7, 8, 9])
    for shard_id in range(N_SHARDS):
        _shed(clock, aggregator, 0.05, shard_id)
    # Every primary attempt is dead, but the hedge can still revive them.
    assert aggregator.busy()
    clock.advance_to(0.2)
    assert aggregator.n_hedges == N_SHARDS
    assert [replica.submitted for replica in aggregator.replicas] == [
        [(7, (0, 0, True))], [(8, (0, 1, True))], [(9, (0, 2, True))],
    ]
    for shard_id in range(N_SHARDS):
        _respond(clock, aggregator, 0.3, shard_id, replica=True)
    assert not aggregator.busy()
    assert (aggregator.n_full, aggregator.n_hedge_wins) == (1, N_SHARDS)


def test_replica_win_counted_once():
    clock, aggregator = _aggregator(hedge_delay=0.2)
    aggregator.submit([0, 0, 0])
    _respond(clock, aggregator, 0.1, 0)
    clock.advance_to(0.2)  # shards 1 and 2 are hedged
    assert aggregator.n_hedges == 2
    _respond(clock, aggregator, 0.25, 1, replica=True)
    assert aggregator.n_hedge_wins == 1
    # The primary's copy of shard 1 is a duplicate: no second response.
    _respond(clock, aggregator, 0.3, 1)
    assert aggregator.busy()
    assert aggregator.in_flight[0].n_responded == 2
    _respond(clock, aggregator, 0.4, 2)
    assert not aggregator.busy()
    assert (aggregator.n_full, aggregator.n_hedge_wins) == (1, 1)


def test_response_after_the_answer_is_ignored():
    clock, aggregator = _aggregator(quorum=1)
    aggregator.submit([0, 0, 0])
    _respond(clock, aggregator, 0.1, 0)
    assert not aggregator.busy()
    _respond(clock, aggregator, 0.2, 1)
    _shed(clock, aggregator, 0.3, 2)
    assert (aggregator.n_full, aggregator.n_partial) == (0, 1)
    assert len(aggregator.latencies) == 1
    # The shard-level latency of the late response still counts.
    assert len(aggregator.shard_latencies) == 2
