"""The server model's scheduling decisions, one rule at a time.

``IndexServerModel`` makes every admission, deadline, state-snapshot,
degree-grant and phase decision itself. Each test here drives one model
on a hand-advanced ``FakeClock`` over a ``constant_table`` and reads the
decision off what the model did: the shed reasons it reported, the
``SystemState`` a recording policy saw, and the phases it started (a
phase is one ``on_core_usage(start, end, cores)`` call).
"""

import numpy as np
import pytest

from conftest import constant_table
from repro.policies.adaptive import ThresholdTable
from repro.policies.base import ParallelismPolicy, QueryInfo, SystemState
from repro.policies.fixed import FixedPolicy, SequentialPolicy
from repro.policies.incremental import IncrementalPolicy
from repro.profiles.measurement import QueryCostTable
from repro.runtime.clock import FakeClock
from repro.sim.faults import FaultSchedule
from repro.sim.metrics import MetricsCollector
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel

#: Escalate to degree 4 while at most two queries are in the system.
ESCALATE_TO_4 = ThresholdTable.from_pairs([(2, 4)])


class PhaseLog(MetricsCollector):
    """A collector that also keeps every phase as (start, end, cores)."""

    def __init__(self, n_cores):
        super().__init__(warmup=0.0, horizon=1000.0, n_cores=n_cores)
        self.phases = []

    def on_core_usage(self, start_s, end_s, cores):
        self.phases.append((start_s, end_s, cores))
        super().on_core_usage(start_s, end_s, cores)


class Recorder(ParallelismPolicy):
    """Requests ``degree`` and keeps every state it was shown."""

    name = "recorder"

    def __init__(self, degree=1):
        self.degree = degree
        self.states = []

    def choose_degree(self, state: SystemState, info: QueryInfo) -> int:
        self.states.append(state)
        return self.degree


def _approx(phases):
    """``pytest.approx`` per phase (it does not nest into a list of tuples)."""
    return [pytest.approx(phase) for phase in phases]


def _server(policy, n_cores=1, table=None, oracle=None, **knobs):
    """A model on a FakeClock; returns (clock, server, sheds), where
    ``sheds`` collects (query_index, reason) per dropped query."""
    clock = FakeClock()
    oracle = oracle or ServiceOracle(table if table is not None else constant_table())
    sheds = []
    server = IndexServerModel(
        clock, oracle, policy, n_cores, PhaseLog(n_cores),
        on_query_shed=lambda q, tag, reason, arrival, now: sheds.append((q, reason)),
        **knobs,
    )
    return clock, server, sheds


class TestAdmission:
    def test_admits_by_default(self):
        # No shed classes and no cap: every class is admitted; under a
        # cap a class is admitted while the queue is below it.
        clock, server, sheds = _server(SequentialPolicy())
        server.submit(0)
        server.submit(1, query_class="head")
        server.submit(2, query_class="tail")
        capped_clock, capped, capped_sheds = _server(SequentialPolicy(),
                                                     max_queue_length=10)
        for query_index in range(4):
            capped.submit(query_index, query_class="head")
        assert sheds == [] and capped_sheds == []
        assert capped.queue_length == 3
        clock.drain()
        capped_clock.drain()
        assert server.metrics.n_completions == 3
        assert capped.metrics.n_completions == 4

    def test_an_unclassified_query_is_never_class_shed(self):
        clock, server, sheds = _server(SequentialPolicy())
        server.shed_classes = {"attack"}
        server.submit(0)
        clock.drain()
        assert sheds == []
        assert server.metrics.n_completions == 1

    def test_class_shedding_wins_over_the_admission_cap(self):
        # One running, one queued: the queue sits at the cap of 1. A
        # degraded class is still reported as "class", so the anomaly
        # guard's per-class accounting sees it; any other class is
        # turned away by the cap.
        clock, server, sheds = _server(SequentialPolicy(), max_queue_length=1)
        server.shed_classes = {"attack"}
        server.submit(0)
        server.submit(1)
        server.submit(2, query_class="attack")
        server.submit(3, query_class="background")
        assert sheds == [(2, "class"), (3, "admission")]

    def test_only_a_listed_class_is_class_shed(self):
        clock, server, sheds = _server(SequentialPolicy(), n_cores=4)
        server.shed_classes = {"attack"}
        server.submit(0)
        server.submit(1, query_class="background")
        server.submit(2, query_class="attack")
        assert sheds == [(2, "class")]
        assert server.n_running == 2

    def test_the_cap_turns_away_only_an_arrival_that_finds_it_full(self):
        clock, server, sheds = _server(SequentialPolicy(), max_queue_length=2)
        server.submit(0)  # runs
        server.submit(1)  # queue 0 -> 1
        server.submit(2)  # queue 1 -> 2, one below the cap on arrival
        assert sheds == []
        server.submit(3)  # finds the queue at the cap
        assert sheds == [(3, "admission")]
        assert server.queue_length == 2
        clock.drain()
        assert server.metrics.n_completions == 3


class TestDeadline:
    def test_no_deadline_never_sheds_however_long_the_wait(self):
        # Five queries on one core with a predicted 5 s each: without a
        # deadline the last waits 4 s and is still served.
        predicted = ServiceOracle(constant_table(), predicted_latencies=[5.0] * 10)
        clock, server, sheds = _server(SequentialPolicy(), oracle=predicted)
        for query_index in range(5):
            server.submit(query_index)
        clock.drain()
        assert sheds == []
        assert [r.completion for r in server.metrics.records] == [
            1.0, 2.0, 3.0, 4.0, 5.0,
        ]

    def test_wait_plus_expected_work_past_the_budget_is_shed(self):
        # t1 = 1.0, deadline 2.0, one core. Query 0 runs to t = 1.
        # Queries 1 and 2 arrive at 0.5: query 1 starts at 1 with wait
        # 0.5 (0.5 + 1.0 <= 2.0) and is served; query 2 would start at 2
        # with wait 1.5, below the budget, but 1.5 + 1.0 > 2.0 sheds it.
        clock, server, sheds = _server(SequentialPolicy(), deadline=2.0)
        server.submit(0)
        clock.advance_to(0.5)
        server.submit(1)
        server.submit(2)
        clock.drain()
        assert sheds == [(2, "deadline")]
        assert [r.completion for r in server.metrics.records] == [1.0, 2.0]

    def test_negative_prediction_degrades_to_wait_only_shedding(self):
        # t1 = 1.0, deadline 1.5, three queries at t = 0 on one core.
        # With the truth as the estimate the second query (wait 1.0 +
        # t1 1.0 > 1.5) is shed at t = 1. A negative prediction counts
        # as zero work, so it is served; the third is shed only because
        # its wait alone (2.0) has used up the budget.
        table = constant_table(n_queries=3)
        truth_clock, truth, truth_sheds = _server(SequentialPolicy(), table=table,
                                                  deadline=1.5)
        predicted = ServiceOracle(table, predicted_latencies=[-5.0] * 3)
        clock, server, sheds = _server(SequentialPolicy(), oracle=predicted,
                                       deadline=1.5)
        for model in (truth, server):
            for query_index in range(3):
                model.submit(query_index)
        truth_clock.drain()
        clock.drain()
        assert truth_sheds == [(1, "deadline"), (2, "deadline")]
        assert sheds == [(2, "deadline")]
        assert [r.completion for r in server.metrics.records] == [1.0, 2.0]

    def test_a_wait_equal_to_the_budget_is_shed(self):
        # t1 = 1.0 and deadline 1.0: the second query starts with wait
        # exactly 1.0, which leaves no budget even for zero work.
        predicted = ServiceOracle(constant_table(), predicted_latencies=[0.0] * 10)
        clock, server, sheds = _server(SequentialPolicy(), oracle=predicted,
                                       deadline=1.0)
        server.submit(0)
        server.submit(1)
        clock.drain()
        assert sheds == [(1, "deadline")]


class TestSystemState:
    def test_snapshot_taken_at_dispatch(self):
        policy = Recorder()
        clock, server, _ = _server(policy, n_cores=2)
        for query_index in range(3):
            server.submit(query_index)
        clock.drain()
        # (now, n_queued, n_running, free_cores, n_cores, n_shed, overloaded)
        assert [tuple(state) for state in policy.states] == [
            (0.0, 0, 0, 2, 2, 0, False),
            (0.0, 0, 1, 1, 2, 0, False),
            (1.0, 0, 1, 1, 2, 0, False),
        ]

    def test_overloaded_after_a_shed_in_the_same_cycle(self):
        # Query 0 runs to t = 1; queries 1 and 2 then miss the 1.5 s
        # budget in the dispatch cycle that query 3 (arrived at 0.9) is
        # dispatched in, so query 3 sees both sheds and the flag.
        policy = Recorder()
        clock, server, sheds = _server(policy, deadline=1.5)
        server.submit(0)
        server.submit(1)
        server.submit(2)
        clock.advance_to(0.9)
        server.submit(3)
        clock.drain()
        assert sheds == [(1, "deadline"), (2, "deadline")]
        assert [(s.now, s.n_shed, s.overloaded) for s in policy.states] == [
            (0.0, 0, False), (1.0, 2, True),
        ]

    def test_overloaded_while_the_queue_is_at_the_cap(self):
        # The anomaly guard retunes max_queue_length at runtime: after it
        # lowers the cap from 3 to 1, the next dispatch leaves one query
        # queued, which is at the new cap.
        policy = Recorder()
        clock, server, _ = _server(policy, max_queue_length=3)
        for query_index in range(3):
            server.submit(query_index)
        server.max_queue_length = 1
        clock.drain()
        assert [(s.n_queued, s.overloaded) for s in policy.states] == [
            (0, False), (1, True), (0, False),
        ]


class TestGrant:
    def test_the_grant_is_clamped_to_the_free_cores(self):
        # Query 0 takes 2 of 4 cores; query 1 asks for 8 and is granted
        # the 2 still free.
        policy = Recorder(degree=2)
        clock, server, _ = _server(policy, n_cores=4)
        server.submit(0)
        policy.degree = 8
        server.submit(1)
        clock.drain()
        assert [state.free_cores for state in policy.states] == [4, 2]
        assert server.metrics.phases == _approx(
            [(0.0, 1 / 1.8, 2), (0.0, 1 / 1.8, 2)]
        )

    def _table_with_chunks(self, chunks):
        table = constant_table()
        return QueryCostTable(table.queries, table.degrees, table.latency, table.cpu,
                              np.full_like(table.chunks, chunks))

    def test_plan_limit_caps_the_grant(self):
        table = self._table_with_chunks(2)
        for clamp, degree in ((False, 4), (True, 2)):
            clock, server, _ = _server(FixedPolicy(4), n_cores=4, table=table,
                                       clamp_to_plan=clamp)
            server.submit(0)
            clock.drain()
            assert server.metrics.records[0].degree == degree

    def test_plan_limit_applies_before_the_degree_grid(self):
        # Three chunks cap the request at 3; the grid (1, 2, 4) then
        # snaps it down to 2.
        clock, server, _ = _server(FixedPolicy(4), n_cores=4,
                                   table=self._table_with_chunks(3),
                                   clamp_to_plan=True)
        server.submit(0)
        clock.drain()
        assert server.metrics.records[0].degree == 2

    def test_a_grant_is_never_below_one(self):
        # A policy asking for no cores still gets the one a dispatched
        # query needs.
        clock, server, _ = _server(Recorder(degree=0), n_cores=2)
        server.submit(0)
        clock.drain()
        assert server.metrics.records[0].degree == 1


class TestPhases:
    def test_a_gang_runs_at_the_granted_degree(self):
        clock, server, _ = _server(FixedPolicy(4), n_cores=4)
        server.submit(0)
        clock.drain()
        assert server.metrics.phases == _approx([(0.0, 1.0 / 3.0, 4)])

    def test_a_query_no_longer_than_the_probe_never_probes(self):
        # t1 = 1.0 is within the 5 s probe: the query runs to completion
        # on one core although it would be granted 4.
        policy = IncrementalPolicy(ESCALATE_TO_4, probe_time=5.0)
        clock, server, _ = _server(policy, n_cores=4)
        server.submit(0)
        clock.drain()
        assert server.metrics.phases == _approx([(0.0, 1.0, 1)])
        assert server.metrics.records[0].completion == pytest.approx(1.0)

    def test_a_long_query_probes_on_one_core_then_escalates_to_its_grant(self):
        # Probe 0.25 on one core, then the remaining 0.75 of t1 at the
        # granted degree 4, S(4) = 3.
        policy = IncrementalPolicy(ESCALATE_TO_4, probe_time=0.25)
        clock, server, _ = _server(policy, n_cores=4)
        server.submit(0)
        clock.drain()
        assert server.metrics.phases == _approx(
            [(0.0, 0.25, 1), (0.25, 0.5, 4)]
        )
        assert server.metrics.records[0].completion == pytest.approx(0.5)

    def test_a_slowdown_scales_every_phase(self):
        # Probe 0.25 then 0.75 of the work at S(4) = 3, each 1.5x slower.
        policy = IncrementalPolicy(ESCALATE_TO_4, probe_time=0.25)
        clock, server, _ = _server(policy, n_cores=4,
                                   faults=FaultSchedule.slowdown(0.0, 10.0, 1.5))
        server.submit(0)
        clock.drain()
        assert server.metrics.phases == _approx(
            [(0.0, 0.375, 1), (0.375, 0.75, 4)]
        )

    def test_a_slowdown_scales_a_gang_phase(self):
        clock, server, _ = _server(FixedPolicy(2), n_cores=2,
                                   faults=FaultSchedule.slowdown(0.0, 10.0, 1.5))
        server.submit(0)
        clock.drain()
        assert server.metrics.phases == _approx([(0.0, 1.5 / 1.8, 2)])

    def test_a_starved_escalation_continues_at_degree_one(self):
        # Query 0 is granted both cores and probes on one; query 1 gets
        # the other for a sequential run. When the probe ends no second
        # core is free, so the rest of query 0's work (0.75 of t1) runs
        # on the probe's core instead of waiting for one.
        policy = IncrementalPolicy(ESCALATE_TO_4, probe_time=0.25)
        clock, server, _ = _server(policy, n_cores=2)
        server.submit(0)
        server.submit(1)
        clock.drain()
        assert server.metrics.phases == _approx(
            [(0.0, 0.25, 1), (0.0, 1.0, 1), (0.25, 1.0, 1)]
        )

    def test_an_escalation_widens_only_to_the_free_cores(self):
        # Query 0 is granted 4 and probes; query 1 (t = 0.1) is granted 2
        # and probes too. At 0.25 three cores are free, so query 0 widens
        # to 2 on the degree grid, not 4; the rest (0.75 of t1) runs at
        # S(2) = 1.8. Query 1 then widens to its own grant of 2.
        policy = IncrementalPolicy(ESCALATE_TO_4, probe_time=0.25)
        clock, server, _ = _server(policy, n_cores=4)
        server.submit(0)
        clock.advance_to(0.1)
        server.submit(1)
        clock.drain()
        rest = 0.75 / 1.8
        assert server.metrics.phases == _approx([
            (0.0, 0.25, 1), (0.1, 0.35, 1), (0.25, 0.25 + rest, 2), (0.35, 0.35 + rest, 2),
        ])

    def test_a_probe_at_the_edge_of_t1_leaves_no_negative_work(self):
        # A probe phase starts only when t1 exceeds the probe, so the
        # remaining fraction (1 - probe / t1) is the smallest it can be
        # when the probe sits one float below t1; it must be >= 0.
        probe = float(np.nextafter(1.0, 0.0))
        policy = IncrementalPolicy(ESCALATE_TO_4, probe_time=probe)
        clock, server, _ = _server(policy, n_cores=4)
        server.submit(0)
        clock.drain()
        (_, probe_end, _), (start, end, cores) = server.metrics.phases
        assert probe_end == probe
        assert (start, cores) == (probe, 4)
        assert 0.0 <= end - start < 1e-15


def _hooked_server(policy, n_cores=1, **knobs):
    """A model whose last-phase hook and completion hook both log:
    returns (clock, server, sheds, starts, completions), where ``starts``
    holds (tag, query_index, degree, now) per hook call and
    ``completions`` (tag, query_index, degree) per completed query."""
    starts, completions = [], []
    clock, server, sheds = _server(
        policy, n_cores=n_cores,
        on_last_phase=lambda tag, q, degree: starts.append(
            (tag, q, degree, clock.now)),
        on_query_complete=lambda record, tag: completions.append(
            (tag, record.query_index, record.degree)),
        **knobs,
    )
    return clock, server, sheds, starts, completions


class TestLastPhaseHook:
    def test_fires_at_a_gang_phase_start_with_the_completion_degree(self):
        clock, server, _, starts, completions = _hooked_server(
            FixedPolicy(4), n_cores=4)
        server.submit(0, tag="a")
        assert starts == [("a", 0, 4, 0.0)]  # at the start, not the end
        clock.drain()
        assert starts == [("a", 0, 4, 0.0)]
        assert completions == [("a", 0, 4)]

    def test_fires_at_the_escalation_not_at_the_probe(self):
        # Probe 0.25 on one core, then the escalation to 4: the hook
        # fires once, when the escalated phase starts at the probe's end.
        policy = IncrementalPolicy(ESCALATE_TO_4, probe_time=0.25)
        clock, server, _, starts, completions = _hooked_server(policy, n_cores=4)
        server.submit(0, tag="a")
        assert starts == []
        clock.drain()
        assert starts == [("a", 0, 4, 0.25)]
        assert completions == [("a", 0, 4)]

    def test_fires_once_per_query_across_probes_and_gangs(self):
        # Two probing queries that widen to 2 (the free cores), and one
        # short enough to run sequentially: each query fires once, at
        # its last phase's start, with the degree its record carries.
        policy = IncrementalPolicy(ESCALATE_TO_4, probe_time=0.25)
        clock, server, _, starts, completions = _hooked_server(policy, n_cores=4)
        server.submit(0, tag="a")
        clock.advance_to(0.1)
        server.submit(1, tag="b")
        clock.drain()
        assert [(tag, q, degree) for tag, q, degree, _ in starts] == completions
        assert [now for *_, now in starts] == pytest.approx([0.25, 0.35])
        assert completions == [("a", 0, 2), ("b", 1, 2)]

        short = IncrementalPolicy(ESCALATE_TO_4, probe_time=5.0)
        clock, server, _, starts, completions = _hooked_server(short, n_cores=4)
        server.submit(0, tag="c")
        assert starts == [("c", 0, 1, 0.0)]
        clock.drain()
        assert completions == [("c", 0, 1)]

    def test_never_fires_for_a_shed_query(self):
        # One core, a queue cap of 1: query 2 is shed at admission. The
        # deadline (1.5 s, t1 = 1 s) sheds query 1 at t = 1.
        clock, server, sheds, starts, completions = _hooked_server(
            SequentialPolicy(), max_queue_length=1, deadline=1.5)
        for query_index in range(3):
            server.submit(query_index, tag=query_index)
        clock.drain()
        assert sheds == [(2, "admission"), (1, "deadline")]
        assert starts == [(0, 0, 1, 0.0)]
        assert completions == [(0, 0, 1)]
