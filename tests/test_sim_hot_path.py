"""Tripwires on the per-query cost of the dispatch path the simulator,
the FakeClock node and the asyncio node share.

A simulated query costs what the interpreter does for it, so these count
that work exactly (the counts repeat run to run) instead of timing it:
a change that puts a closure, a dataclass or a clock read back on the
path fails here before a benchmark could resolve it.
"""

import sys

from repro.runtime.clock import FakeClock
from repro.runtime.node import ServingConfig, ServingNode
from repro.sim.experiment import LoadPointConfig, run_load_point, summarize_load_point
from repro.sim.script import build_arrival_script, replay

#: Python-level calls per simulated query at the fixed point below, for
#: this dispatch path; the bound leaves 10 % for incidental growth. The
#: same point cost 61.0 calls a query before the path was trimmed (a
#: closure per phase, five clock reads, frozen dataclasses built per
#: query, numpy lookups in the oracle, a scan per threshold lookup), and
#: 42.0 while the online runner drew each arrival in two closures that
#: read the clock (the shared replay schedules at the row's own time,
#: and the lazy stream yields plain tuples).
CALLS_PER_QUERY = 41.0


def _point(system):
    return LoadPointConfig(
        rate=system.rate_for_utilization(0.7), duration=1.0, warmup=0.0,
        n_cores=system.n_cores, seed=0,
    )


def test_python_calls_per_simulated_query(small_system):
    """``sys.setprofile`` ``"call"`` events (Python frames only; C calls
    are not counted) from ``run_load_point``'s start until the summary,
    per simulated query, at the adaptive policy's u = 0.7 point."""
    counting = [True]
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call" and counting[0]:
            if frame.f_code is summarize_load_point.__code__:
                counting[0] = False
            else:
                calls[0] += 1

    policy = small_system.policy("adaptive")
    sys.setprofile(profiler)
    try:
        summary = run_load_point(small_system.oracle, policy, _point(small_system))
    finally:
        sys.setprofile(None)
    per_query = calls[0] / (summary.observed + summary.n_shed)
    assert summary.observed > 1000
    assert per_query <= CALLS_PER_QUERY * 1.1, per_query


class _CountingClock(FakeClock):
    """FakeClock counting every read of ``now`` from outside the heap."""

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0

    @property
    def now(self) -> float:
        self.reads += 1
        return self.clock.now


def test_two_clock_reads_per_query(small_system):
    """An arrival and a phase end are the only callbacks a gang query
    gets, and each reads ``now`` once, however many queued queries a
    completion dispatches. The live node read it five times a query
    before callbacks took ``now`` from their caller."""
    clock = _CountingClock()
    node = ServingNode(
        clock, small_system.oracle, small_system.policy("adaptive"),
        ServingConfig(n_cores=small_system.n_cores, horizon_s=10.0),
    )
    script = build_arrival_script(small_system.oracle.n_queries, _point(small_system))
    replay(clock, node.submit, script)
    clock.drain()
    assert node.n_answered == len(script)
    assert clock.reads <= 2 * len(script)
