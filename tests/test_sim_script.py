"""Tests for arrival streams and their replay (sim/script.py).

The script is the foundation of sim-vs-live parity. run_load_point is
run_scripted_point on the lazy arrival stream, so a script built from
the same config must be that stream draw for draw, and replaying it
must give the same summary as the online run. The replay keeps one
arrival pending at a time, which is what lets the stream stay lazy.
"""

import numpy as np
import pytest

from conftest import constant_table, summary_json
from repro.policies.fixed import FixedPolicy, SequentialPolicy
from repro.profiles.measurement import QueryCostTable
from repro.sim.engine import Simulator
from repro.sim.experiment import LoadPointConfig, run_load_point
from repro.sim.oracle import ServiceOracle
from repro.sim.script import (
    ScriptedArrival,
    arrival_stream,
    build_arrival_script,
    replay,
    run_scripted_point,
)


class TestBuildArrivalScript:
    def test_within_horizon_sorted_and_in_range(self):
        config = LoadPointConfig(rate=8.0, duration=5.0, warmup=1.0,
                                 n_cores=4, seed=3)
        script = build_arrival_script(10, config)
        assert len(script) > 10
        times = [a.time_s for a in script]
        assert times == sorted(times)
        assert all(0 < t <= config.duration for t in times)
        assert all(0 <= a.query_index < 10 for a in script)

    def test_seed_determinism(self):
        config = LoadPointConfig(rate=8.0, duration=5.0, warmup=1.0,
                                 n_cores=4, seed=3)
        assert build_arrival_script(10, config) == build_arrival_script(10, config)
        other = build_arrival_script(
            10, LoadPointConfig(rate=8.0, duration=5.0, warmup=1.0,
                                n_cores=4, seed=4)
        )
        assert other != build_arrival_script(10, config)

    def test_class_labels_read_from_arrival_process(self):
        class LabelledArrivals:
            """Constant-gap arrivals tagging alternate classes."""

            def __init__(self):
                self.n = 0
                self.last_class = None

            def next_interarrival(self):
                self.n += 1
                self.last_class = "head" if self.n % 2 else "tail"
                return 0.5

        config = LoadPointConfig(rate=2.0, duration=3.0, warmup=0.0,
                                 n_cores=2, seed=0)
        stream = list(arrival_stream(5, config, LabelledArrivals()))
        assert [query_class for _, _, query_class in stream[:4]] == [
            "head", "tail", "head", "tail"
        ]
        assert [time_s for time_s, _, _ in stream] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]

    def test_rejects_bad_n_queries(self):
        config = LoadPointConfig(rate=2.0, duration=1.0, warmup=0.0,
                                 n_cores=2)
        with pytest.raises(Exception):
            build_arrival_script(0, config)


def _varied_table(n_queries=10):
    """Per-query costs differ, so *which* query each arrival draws shows
    in the summary: a script whose ``sample`` stream drifts from the
    online run's (say, by deriving it under the ``arrivals`` label) no
    longer replays to the same numbers."""
    table = constant_table(n_queries)
    scale = np.linspace(0.5, 1.5, n_queries)[:, None]
    return QueryCostTable(
        table.queries, table.degrees, table.latency * scale,
        table.cpu * scale, table.chunks,
    )


class TestScriptedVsOnline:
    @pytest.mark.parametrize("deadline,max_queue", [
        (None, None),
        (1.5, 6),
    ])
    def test_scripted_replay_matches_online_run(self, deadline, max_queue):
        """run_scripted_point on the built script must equal the online
        run_load_point draw for draw — the whole parity tier rests on
        this equivalence."""
        oracle = ServiceOracle(_varied_table())
        config = LoadPointConfig(
            rate=6.0, duration=6.0, warmup=1.0, n_cores=4, seed=7,
            deadline=deadline, max_queue_length=max_queue,
        )
        online = run_load_point(oracle, FixedPolicy(2), config)
        script = build_arrival_script(oracle.n_queries, config)
        scripted, server = run_scripted_point(
            oracle, FixedPolicy(2), config, script
        )
        assert summary_json(online) == summary_json(scripted)
        # The server counts every shed; the summary only the
        # measurement window.
        assert server.n_shed >= online.n_shed

    def test_scripted_point_deterministic_across_runs(self):
        oracle = ServiceOracle(constant_table())
        config = LoadPointConfig(rate=10.0, duration=4.0, warmup=0.5,
                                 n_cores=4, seed=2, deadline=2.0,
                                 max_queue_length=8)
        script = build_arrival_script(oracle.n_queries, config)
        outputs = {
            summary_json(
                run_scripted_point(oracle, SequentialPolicy(), config, script)[0]
            )
            for _ in range(3)
        }
        assert len(outputs) == 1

    def test_explicit_script_replay(self):
        # Hand-written scripts (not built from a seed) replay as given.
        oracle = ServiceOracle(constant_table())
        config = LoadPointConfig(rate=1.0, duration=10.0, warmup=0.0,
                                 n_cores=2)
        script = [
            ScriptedArrival(1.0, 0),
            ScriptedArrival(2.0, 1),
            ScriptedArrival(2.0, 2),
        ]
        summary, server = run_scripted_point(
            oracle, SequentialPolicy(), config, script
        )
        assert summary.observed == 3
        assert server.n_shed == 0


class TestReplay:
    def test_one_arrival_pending_at_a_time(self):
        """The replay schedules the next arrival only when the current
        one fires: before the run, one event is pending, not N (an eager
        replay that scheduled the whole script up front would have N)."""
        script = [ScriptedArrival(0.5 * k, k) for k in range(1, 6)]
        simulator = Simulator()
        submitted = []
        replay(simulator, lambda *args: submitted.append((simulator.now, args)),
               script)
        assert simulator.pending_events == 1
        assert submitted == []
        simulator.run()
        assert submitted == [(a.time_s, (a.query_index, None)) for a in script]

    def test_submit_events_precede_the_next_arrival_at_equal_times(self):
        """An arrival submits, then schedules the next: what the submit
        scheduled at the next arrival's instant fires first (the online
        runner's tie order)."""
        simulator = Simulator()
        fired = []

        def submit(query_index, query_class):
            fired.append(("arrive", query_index))
            simulator.schedule(0.0 if query_index == 0 else 1.0,
                               fired.append, ("event", query_index))

        replay(simulator, submit, [ScriptedArrival(1.0, 0), ScriptedArrival(1.0, 1)])
        simulator.run()
        assert fired == [("arrive", 0), ("event", 0), ("arrive", 1), ("event", 1)]
