"""Shared fixtures and helpers: one small workbench/system per test
session, plus the constant cost table, explicit-arrival server driver,
control-window feeder and summary canonicaliser the sim/runtime tests
share (``from conftest import ...``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.core.controller import AdaptiveSearchSystem, SystemConfig
from repro.engine.query import Query
from repro.errors import SimulationError
from repro.index.builder import IndexConfig, build_index
from repro.profiles.measurement import QueryCostTable
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector, QueryRecord
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel
from repro.util.serde import to_jsonable
from repro.workloads.workbench import WorkbenchConfig, build_workbench


def constant_table(n_queries=10, t1=1.0, degrees=(1, 2, 4), speedup=None):
    """Cost table with constant per-degree latencies for controlled tests."""
    speedup = speedup or {1: 1.0, 2: 1.8, 4: 3.0}
    latency = np.stack(
        [np.full(n_queries, t1 / speedup[p]) for p in degrees], axis=1
    )
    cpu = latency * np.asarray(degrees)[None, :]
    chunks = np.ones((n_queries, len(degrees)), dtype=np.int64)
    queries = [Query.of([0], query_id=i) for i in range(n_queries)]
    return QueryCostTable(queries, degrees, latency, cpu, chunks)


def run_trace(policy, arrival_times, n_cores=4, table=None, horizon=100.0,
              **server_kwargs):
    """Drive explicit arrivals through a server; return (metrics, server)."""
    table = table if table is not None else constant_table()
    oracle = ServiceOracle(table)
    sim = Simulator()
    metrics = MetricsCollector(warmup=0.0, horizon=horizon, n_cores=n_cores)
    server = IndexServerModel(sim, oracle, policy, n_cores, metrics,
                              **server_kwargs)
    for i, t in enumerate(arrival_times):
        sim.schedule_at(t, lambda i=i: server.submit(i % oracle.n_queries))
    sim.run()
    return metrics, server


def feed_window(collector, n_arrivals=0, latencies=(), n_shed=0):
    """Record one control window on a real collector (warmup 0): the
    arrivals, one completion per latency (arriving at 0, so the recorded
    latency is exactly the value given) and the sheds."""
    for _ in range(n_arrivals):
        collector.on_arrival()
    for latency in latencies:
        collector.on_completion(QueryRecord(0, 0.0, 0.0, float(latency), 1))
    for _ in range(n_shed):
        collector.on_shed(0.0, "admission")


def summary_json(summary):
    """Canonical JSON of a LoadPointSummary: it carries NaN fields
    (goodput without an SLO) and NaN != NaN breaks dataclass equality;
    the JSON compares the whole summary including NaNs."""
    return json.dumps(to_jsonable(summary), sort_keys=True)


class EventHeapContract:
    """Semantics of the one event heap, checked through each hosting's
    own verbs: ``TestSimulator`` runs these as written, the FakeClock
    suite overrides :meth:`run_until` / :meth:`drain` with
    ``advance_to`` / ``drain``. Subclasses set ``make`` (the factory)."""

    make = None

    @staticmethod
    def run_until(heap, time_s):
        heap.run(until_s=time_s)

    @staticmethod
    def drain(heap):
        heap.run()

    def test_events_fire_in_time_order(self):
        heap = self.make()
        fired = []
        heap.schedule_at(2.0, lambda: fired.append("b"))
        heap.schedule_at(1.0, lambda: fired.append("a"))
        heap.schedule_at(3.0, lambda: fired.append("c"))
        self.drain(heap)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        heap = self.make()
        fired = []
        for name in "abcd":
            heap.schedule(1.0, lambda n=name: fired.append(n))
        self.drain(heap)
        assert fired == ["a", "b", "c", "d"]

    def test_callback_arguments_keep_fifo_order(self):
        # Callbacks with and without arguments, due at one instant, fire
        # in scheduling order, each with exactly the arguments it was
        # given.
        heap = self.make()
        fired = []
        heap.schedule_at(1.0, fired.append, "a")
        heap.schedule_at(1.0, lambda: fired.append("b"))
        heap.schedule(1.0, lambda *args: fired.append(args), "c", "d")
        heap.schedule(1.0, lambda: fired.append("e"))
        heap.schedule_at(1.0, fired.append, "f")
        self.drain(heap)
        assert fired == ["a", "b", ("c", "d"), "e", "f"]

    def test_now_advances(self):
        # `now` reads each callback's own fire time while it runs, then
        # lands exactly on the target.
        heap = self.make()
        seen = []
        heap.schedule(1.5, lambda: seen.append(heap.now))
        heap.schedule(4.0, lambda: seen.append(heap.now))
        self.run_until(heap, 5.0)
        assert seen == [1.5, 4.0]
        assert heap.now == 5.0

    def test_event_at_exact_horizon_fires(self):
        heap = self.make()
        fired = []
        heap.schedule_at(5.0, lambda: fired.append("edge"))
        self.run_until(heap, 5.0)
        assert fired == ["edge"]
        assert heap.now == 5.0

    def test_events_can_schedule_events(self):
        heap = self.make()
        fired = []

        def chain(depth):
            fired.append((depth, heap.now))
            if depth < 3:
                heap.schedule(1.0, lambda: chain(depth + 1))

        heap.schedule(0.0, lambda: chain(0))
        # The chained callbacks are due inside the same window.
        self.run_until(heap, 3.0)
        assert fired == [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]

    def test_past_scheduling_rejected(self):
        heap = self.make()
        heap.schedule_at(5.0, lambda: heap.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            self.drain(heap)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            self.make().schedule(-1.0, lambda: None)


@pytest.fixture(scope="session")
def tiny_corpus():
    """A very small corpus for index/engine unit tests."""
    return generate_corpus(
        CorpusConfig(n_docs=800, vocab_size=1_500, mean_doc_length=120, seed=11)
    )


@pytest.fixture(scope="session")
def tiny_index(tiny_corpus):
    return build_index(tiny_corpus, IndexConfig(chunk_size=64))


@pytest.fixture(scope="session")
def small_workbench():
    """The standard small workbench (4k docs)."""
    return build_workbench(WorkbenchConfig.small(seed=0))


@pytest.fixture(scope="session")
def small_engine(small_workbench):
    return small_workbench.engine


@pytest.fixture(scope="session")
def sample_queries(small_workbench):
    """A fixed sample of 60 realistic queries on the small workbench."""
    return small_workbench.query_generator("test-queries").sample_many(60)


@pytest.fixture(scope="session")
def small_system(small_workbench):
    """A profiled AdaptiveSearchSystem over the small workbench.

    Degrees trimmed to keep profiling fast; 250 queries is enough for
    stable class profiles at this scale.
    """
    return AdaptiveSearchSystem.from_workbench(
        small_workbench,
        SystemConfig(n_queries=250, degrees=(1, 2, 4, 8), n_cores=8, seed=0),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
