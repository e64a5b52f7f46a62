"""Property-based tests for the span algebra under random schedules.

Hypothesis drives the simulated index server with random arrival
schedules, policies, robustness knobs, and fault windows; on every
schedule the recorded traces must satisfy the span-algebra invariants
(no backwards spans, children nested in parents and in start order,
events inside their span) plus flow conservation against the metrics
counters. The builders are also exercised directly with random
monotone timestamps.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import (
    EXEC,
    QUEUE,
    ClusterTraceBuilder,
    QueryTraceBuilder,
    RecordingTracer,
)
from repro.policies.adaptive import ThresholdTable
from repro.policies.fixed import FixedPolicy
from repro.policies.incremental import IncrementalPolicy
from repro.sim.engine import Simulator
from repro.sim.faults import CRASH, FaultSchedule, FaultWindow
from repro.sim.metrics import MetricsCollector
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel

from conftest import constant_table


def _make_policy(choice):
    if choice == "incremental":
        table = ThresholdTable.from_pairs([(2, 4), (4, 2)])
        return IncrementalPolicy(table, probe_time=0.1)
    return FixedPolicy(choice)


schedule = st.lists(
    st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=25,
)
policy_choice = st.sampled_from([1, 2, 4, "incremental"])
deadline_choice = st.one_of(st.none(), st.floats(0.3, 2.0))
queue_cap_choice = st.one_of(st.none(), st.integers(1, 4))
fault_choice = st.one_of(
    st.none(),
    st.tuples(
        st.floats(0.0, 3.0),  # start
        st.floats(0.1, 2.0),  # length
        st.sampled_from([4.0, CRASH]),
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    arrivals=schedule,
    policy=policy_choice,
    deadline=deadline_choice,
    queue_cap=queue_cap_choice,
    fault=fault_choice,
    n_cores=st.integers(1, 4),
)
def test_server_traces_hold_invariants(
    arrivals, policy, deadline, queue_cap, fault, n_cores
):
    oracle = ServiceOracle(constant_table(t1=0.4))
    simulator = Simulator()
    metrics = MetricsCollector(warmup=0.0, horizon=50.0, n_cores=n_cores)
    tracer = RecordingTracer()
    faults = None
    if fault is not None:
        start, length, multiplier = fault
        faults = FaultSchedule(
            [FaultWindow(start, start + length, multiplier=multiplier)]
        )
    server = IndexServerModel(
        simulator, oracle, _make_policy(policy), n_cores, metrics,
        deadline=deadline, max_queue_length=queue_cap, faults=faults,
        tracer=tracer,
    )
    for i, t in enumerate(arrivals):
        simulator.schedule_at(t, lambda i=i: server.submit(i % oracle.n_queries))
    simulator.run()

    traces = tracer.traces
    # Conservation: the run drained, so every arrival left exactly one
    # trace, and the split matches the metrics counters.
    flows = metrics.conservation()
    assert flows["in_flight"] == 0
    assert len(traces) == flows["issued"] == len(arrivals)
    assert sum(t.completed for t in traces) == flows["completed"]
    assert sum(t.shed_reason is not None for t in traces) == flows["shed"]

    for trace in traces:
        # The span algebra holds on every tree.
        trace.root.validate()
        # Event timestamps never run backwards.
        times = [e.time_s for e in trace.root.events]
        assert times == sorted(times)
        assert trace.completed != (trace.shed_reason is not None)
        if trace.completed:
            # Queue and exec tile the whole lifetime.
            queue = trace.root.child(QUEUE)
            execution = trace.root.child(EXEC)
            assert queue.end_s == execution.start_s
            assert math.isclose(
                trace.queue_delay_s() + trace.service_s(),
                trace.latency_s,
                abs_tol=1e-12,
            )
            # Phases partition the exec span's busy time back-to-back.
            phases = execution.children
            assert phases
            for earlier, later in zip(phases, phases[1:]):
                assert later.start_s >= earlier.end_s


monotone_times = st.lists(
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=12,
).map(sorted)


@settings(max_examples=60, deadline=None)
@given(times=monotone_times, n_phases=st.integers(1, 4))
def test_builder_accepts_any_monotone_schedule(times, n_phases):
    arrival, start = times[0], times[1]
    builder = QueryTraceBuilder(0, 3, arrival)
    builder.degree_granted(start, requested=4, granted=2, free_cores=4)
    # Lay phases back-to-back inside the remaining timestamps.
    body = times[1:]
    end = body[-1]
    for i in range(n_phases):
        lo = body[min(i, len(body) - 1)]
        hi = body[min(i + 1, len(body) - 1)]
        builder.phase_started(lo, degree=2)
        builder.phase_ended(hi)
    trace = builder.completed(end)
    trace.root.validate()
    # The builder copies timestamps verbatim; no arithmetic, so exact.
    assert trace.arrival_s == arrival
    assert trace.root.end_s == end
    assert math.isclose(
        trace.queue_delay_s() + trace.service_s(), trace.latency_s,
        rel_tol=1e-12, abs_tol=1e-12,
    )


@settings(max_examples=60, deadline=None)
@given(
    arrival=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    offsets=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
    n_responded=st.integers(0, 6),
    quorum=st.one_of(st.none(), st.integers(1, 6)),
)
def test_cluster_builder_always_produces_valid_trees(
    arrival, offsets, n_responded, quorum
):
    n_shards = len(offsets)
    builder = ClusterTraceBuilder(0, arrival, n_shards)
    for shard, offset in enumerate(offsets):
        builder.shard_submitted(arrival + offset, shard, query_index=shard)
    finalize = arrival + max(offsets) + 1.0
    for shard in range(min(n_responded, n_shards)):
        builder.shard_responded(arrival + offsets[shard] + 0.5, shard)
    responded = min(n_responded, n_shards)
    outcome = (
        "failed" if responded == 0
        else "full" if responded == n_shards
        else "partial"
    )
    trace = builder.finalized(
        finalize, outcome, responded, n_shards,
        timed_out=responded < n_shards, quorum=quorum,
    )
    trace.root.validate()
    assert len(trace.root.children) == n_shards
    won = sum(s.attrs["outcome"] == "won" for s in trace.root.children)
    abandoned = sum(
        s.attrs["outcome"] == "abandoned" for s in trace.root.children
    )
    assert won == responded
    assert won + abandoned == n_shards
