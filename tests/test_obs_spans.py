"""Unit tests for the observability layer: spans, builders, tracer,
metrics registry, the periodic tick helper, export, and rendering.

The trace-backed *invariant* tests (re-deriving experiment aggregates
from spans) live in test_obs_invariants.py; determinism pins are in
test_obs_determinism.py; randomized span-algebra checks are in
test_property_obs.py.
"""

import json
import subprocess
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.obs import export
from repro.obs.export import (
    config_hash,
    export_timeline_jsonl,
    export_traces_jsonl,
    git_revision,
    load_jsonl,
    run_manifest,
    span_to_jsonable,
    trace_to_jsonable,
    write_manifest,
)
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    RunObserver,
    every,
)
from repro.obs.render import (
    render_timeline,
    render_trace_report,
    render_waterfall,
    summarize_traces,
)
from repro.obs.spans import (
    CLUSTER,
    EVENT_ADMIT,
    EVENT_DEGREE_GRANT,
    EVENT_ENQUEUE,
    EVENT_ESCALATE,
    EVENT_FINALIZE,
    EVENT_HEDGE,
    EVENT_SHED,
    EXEC,
    NULL_TRACER,
    PHASE,
    QUEUE,
    QUERY,
    SHARD,
    ClusterTraceBuilder,
    NullTracer,
    QueryTraceBuilder,
    RecordingTracer,
    Span,
    SpanEvent,
    Tracer,
)
from repro.sim.engine import Simulator


def _completed_trace(arrival=1.0, start=1.5, end=2.5, trace_id=0, server_id=None):
    """A well-formed completed node trace: queue [1.0, 1.5], exec [1.5, 2.5]."""
    builder = QueryTraceBuilder(trace_id, 7, arrival, server_id=server_id)
    builder.degree_granted(start, requested=4, granted=2, free_cores=3)
    builder.phase_started(start, degree=2)
    builder.phase_ended(end)
    return builder.completed(end)


class TestSpanAlgebra:
    def test_duration_and_child_lookup(self):
        inner = Span("a", 1.0, 2.0)
        outer = Span("root", 0.0, 3.0, children=(inner,))
        assert outer.duration_s == pytest.approx(3.0)
        assert outer.child("a") is inner
        assert outer.child("missing") is None

    def test_validate_accepts_well_formed_tree(self):
        grand = Span("g", 1.0, 1.5)
        tree = Span(
            "root", 0.0, 4.0,
            children=(
                Span("a", 0.5, 2.0, children=(grand,)),
                Span("b", 2.0, 4.0),
            ),
            events=(SpanEvent("e", 3.0),),
        )
        tree.validate()  # must not raise

    def test_validate_rejects_backwards_span(self):
        with pytest.raises(SimulationError, match="backwards"):
            Span("bad", 2.0, 1.0).validate()

    def test_validate_rejects_child_escaping_parent(self):
        tree = Span("root", 0.0, 1.0, children=(Span("late", 0.5, 2.0),))
        with pytest.raises(SimulationError, match="escapes"):
            tree.validate()

    def test_validate_rejects_out_of_order_children(self):
        tree = Span(
            "root", 0.0, 4.0,
            children=(Span("b", 2.0, 3.0), Span("a", 1.0, 2.0)),
        )
        with pytest.raises(SimulationError, match="out of order"):
            tree.validate()

    def test_validate_rejects_event_outside_interval(self):
        tree = Span("root", 0.0, 1.0, events=(SpanEvent("late", 2.0),))
        with pytest.raises(SimulationError, match="outside"):
            tree.validate()

    def test_validate_recurses_into_children(self):
        tree = Span(
            "root", 0.0, 5.0,
            children=(Span("mid", 1.0, 4.0, children=(Span("bad", 3.0, 2.0),)),),
        )
        with pytest.raises(SimulationError, match="backwards"):
            tree.validate()


class TestQueryTraceBuilder:
    def test_completed_trace_structure(self):
        trace = _completed_trace(server_id="shard3")
        trace.root.validate()
        assert trace.outcome == "completed"
        assert trace.completed and trace.answered
        assert trace.server_id == "shard3"
        assert trace.query_index == 7
        assert trace.root.name == QUERY
        assert [c.name for c in trace.root.children] == [QUEUE, EXEC]
        assert trace.arrival_s == pytest.approx(1.0)
        assert trace.latency_s == pytest.approx(1.5)
        assert trace.queue_delay_s() == pytest.approx(0.5)
        assert trace.service_s() == pytest.approx(1.0)
        # Queue + service decompose the whole lifetime.
        assert trace.queue_delay_s() + trace.service_s() == pytest.approx(
            trace.latency_s
        )

    def test_events_record_the_decisions(self):
        trace = _completed_trace()
        names = [e.name for e in trace.root.events]
        assert names == [EVENT_ENQUEUE, EVENT_ADMIT, EVENT_DEGREE_GRANT]
        grant = trace.root.events[-1]
        assert grant.attrs == {"requested": 4, "granted": 2, "free_cores": 3}
        # The exec span carries the same grant attributes.
        assert trace.root.child(EXEC).attrs["granted"] == 2

    def test_phases_become_exec_children(self):
        builder = QueryTraceBuilder(0, 0, 0.0)
        builder.degree_granted(0.0, requested=8, granted=8, free_cores=8)
        builder.phase_started(0.0, degree=1, kind="probe")
        builder.phase_ended(0.2)
        builder.escalated(0.2, target=8, actual=4)
        builder.phase_started(0.2, degree=4, kind="escalated")
        builder.phase_ended(0.5)
        trace = builder.completed(0.5)
        trace.root.validate()
        phases = trace.root.child(EXEC).children
        assert [p.name for p in phases] == [PHASE, PHASE]
        assert [p.attrs["kind"] for p in phases] == ["probe", "escalated"]
        assert [p.attrs["degree"] for p in phases] == [1, 4]
        escalate = [e for e in trace.root.events if e.name == EVENT_ESCALATE]
        assert len(escalate) == 1
        assert escalate[0].attrs == {"target": 8, "actual": 4}

    def test_shed_trace(self):
        builder = QueryTraceBuilder(3, 11, 1.0)
        trace = builder.shed(1.25, "deadline")
        trace.root.validate()
        assert trace.outcome == "shed:deadline"
        assert trace.shed_reason == "deadline"
        assert not trace.completed and not trace.answered
        assert trace.queue_delay_s() == pytest.approx(0.25)
        assert trace.service_s() == 0.0
        assert trace.root.events[-1].name == EVENT_SHED
        assert trace.root.events[-1].attrs == {"reason": "deadline"}

    def test_shed_at_arrival_still_records_queue_span(self):
        # Admission shedding happens at the arrival instant; the queue
        # span is empty but present so consumers need no special case.
        trace = QueryTraceBuilder(0, 0, 2.0).shed(2.0, "admission")
        trace.root.validate()
        assert trace.root.child(QUEUE) is not None
        assert trace.queue_delay_s() == 0.0

    def test_completed_before_grant_rejected(self):
        with pytest.raises(SimulationError, match="degree_granted"):
            QueryTraceBuilder(0, 0, 0.0).completed(1.0)

    def test_completed_with_open_phase_rejected(self):
        builder = QueryTraceBuilder(0, 0, 0.0)
        builder.degree_granted(0.0, requested=1, granted=1, free_cores=4)
        builder.phase_started(0.0, degree=1)
        with pytest.raises(SimulationError, match="open phase"):
            builder.completed(1.0)

    def test_phase_ended_without_open_phase_rejected(self):
        with pytest.raises(SimulationError, match="open phase"):
            QueryTraceBuilder(0, 0, 0.0).phase_ended(1.0)


class TestClusterTraceBuilder:
    def test_full_answer(self):
        builder = ClusterTraceBuilder(0, 0.0, n_shards=2)
        builder.shard_submitted(0.0, 0, query_index=5)
        builder.shard_submitted(0.0, 1, query_index=5)
        builder.shard_responded(0.4, 0)
        builder.shard_responded(0.6, 1)
        trace = builder.finalized(
            0.6, "full", n_responded=2, n_shards=2, timed_out=False, quorum=None
        )
        trace.root.validate()
        assert trace.outcome == "full" and trace.answered
        assert trace.root.name == CLUSTER
        shards = trace.root.children
        assert [s.name for s in shards] == [SHARD, SHARD]
        assert [s.attrs["outcome"] for s in shards] == ["won", "won"]
        assert shards[0].duration_s == pytest.approx(0.4)
        finalize = trace.root.events[-1]
        assert finalize.name == EVENT_FINALIZE
        assert finalize.attrs["coverage"] == pytest.approx(1.0)

    def test_outstanding_attempts_abandoned_at_finalize(self):
        builder = ClusterTraceBuilder(0, 0.0, n_shards=3)
        for shard in range(3):
            builder.shard_submitted(0.0, shard, query_index=1)
        builder.shard_responded(0.2, 0)
        builder.shard_responded(0.3, 1)
        trace = builder.finalized(
            0.3, "partial", n_responded=2, n_shards=3, timed_out=False, quorum=2
        )
        trace.root.validate()
        outcomes = {s.attrs["shard"]: s.attrs["outcome"] for s in trace.root.children}
        assert outcomes == {0: "won", 1: "won", 2: "abandoned"}
        abandoned = [s for s in trace.root.children if s.attrs["shard"] == 2][0]
        assert abandoned.end_s == pytest.approx(0.3)

    def test_hedge_records_replica_attempt(self):
        builder = ClusterTraceBuilder(0, 0.0, n_shards=2)
        builder.shard_submitted(0.0, 0, query_index=1)
        builder.shard_submitted(0.0, 1, query_index=1)
        builder.shard_responded(0.1, 0)
        builder.hedged(0.2, [1])
        builder.shard_submitted(0.2, 1, query_index=1, replica=True)
        builder.shard_responded(0.3, 1, replica=True, won=True)
        builder.shard_responded(0.5, 1, won=False)
        trace = builder.finalized(
            0.5, "full", n_responded=2, n_shards=2, timed_out=False, quorum=None
        )
        trace.root.validate()
        attempts = {
            (s.attrs["shard"], s.attrs["replica"]): s.attrs["outcome"]
            for s in trace.root.children
        }
        assert attempts == {
            (0, False): "won", (1, False): "lost", (1, True): "won",
        }
        hedge = [e for e in trace.root.events if e.name == EVENT_HEDGE]
        assert hedge and hedge[0].attrs == {"shards": [1]}

    def test_shard_shed_attempt(self):
        builder = ClusterTraceBuilder(0, 0.0, n_shards=1)
        builder.shard_submitted(0.0, 0, query_index=1)
        builder.shard_shed(0.0, 0, "admission")
        trace = builder.finalized(
            0.1, "failed", n_responded=0, n_shards=1, timed_out=True, quorum=None
        )
        assert trace.root.children[0].attrs["outcome"] == "shed:admission"
        assert not trace.answered

    def test_children_sorted_by_start_time(self):
        builder = ClusterTraceBuilder(0, 0.0, n_shards=2)
        builder.shard_submitted(0.0, 1, query_index=1)
        builder.shard_submitted(0.0, 0, query_index=1)
        builder.shard_submitted(0.5, 0, query_index=1, replica=True)
        trace = builder.finalized(
            1.0, "failed", n_responded=0, n_shards=2, timed_out=True, quorum=None
        )
        trace.root.validate()  # enforces start-order nesting
        keys = [(s.start_s, s.attrs["shard"]) for s in trace.root.children]
        assert keys == sorted(keys)


class TestTracers:
    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        assert isinstance(NULL_TRACER, Tracer)
        # The protocol methods are no-ops, not NotImplemented.
        NULL_TRACER.on_run_start({})
        NULL_TRACER.on_trace(_completed_trace())
        NULL_TRACER.on_timeline({}, [])

    def test_recording_tracer_buckets_per_run(self):
        tracer = RecordingTracer()
        assert tracer.enabled is True
        tracer.on_run_start({"policy": "a"})
        tracer.on_trace(_completed_trace(trace_id=0))
        tracer.on_run_start({"policy": "b"})
        tracer.on_trace(_completed_trace(trace_id=1))
        tracer.on_timeline({}, [{"t_s": 0.0}])
        assert [run.meta["policy"] for run in tracer.runs] == ["a", "b"]
        assert [len(run.traces) for run in tracer.runs] == [1, 1]
        assert tracer.runs[1].timeline == [{"t_s": 0.0}]
        assert [t.trace_id for t in tracer.traces] == [0, 1]
        tracer.clear()
        assert tracer.runs == [] and tracer.traces == []

    def test_recording_tracer_creates_default_bucket(self):
        tracer = RecordingTracer()
        tracer.on_trace(_completed_trace())
        assert len(tracer.runs) == 1
        assert tracer.runs[0].meta == {}

    def test_run_observer_defaults_to_recording_tracer(self):
        observer = RunObserver()
        assert isinstance(observer.tracer, RecordingTracer)


class TestRegistry:
    def test_counter_monotone(self):
        counter = Counter("events")
        values = []
        for _ in range(4):
            counter.inc()
            values.append(counter.value)
        assert values == [1, 2, 3, 4]

    def test_counter_is_idempotent_per_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_gauge_duplicate_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("depth", lambda: 1.0)
        with pytest.raises(ConfigurationError, match="already"):
            registry.gauge("depth", lambda: 2.0)

    def test_cross_type_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError, match="another instrument"):
            registry.gauge("x", lambda: 0.0)
        with pytest.raises(ConfigurationError, match="another instrument"):
            registry.histogram("x", bounds=(1.0,))

    def test_histogram_bounds_validated(self):
        with pytest.raises(ConfigurationError, match="sorted"):
            Histogram("h", bounds=())
        with pytest.raises(ConfigurationError, match="sorted"):
            Histogram("h", bounds=(2.0, 1.0))

    def test_histogram_bucketing(self):
        histogram = Histogram("degree", bounds=(1, 2, 4))
        for value in (1, 1, 2, 3, 4, 9):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["n"] == 6
        assert summary["buckets"] == {"1.0": 2, "2.0": 1, "4.0": 2, "+inf": 1}
        assert summary["mean"] == pytest.approx(20 / 6)
        assert summary["min"] == 1 and summary["max"] == 9

    def test_sample_reads_gauges_and_counters(self):
        registry = MetricsRegistry()
        state = {"depth": 5.0}
        registry.gauge("depth", lambda: state["depth"])
        registry.counter("done").inc()
        registry.counter("done").inc()
        assert registry.sample() == {"depth": 5.0, "done": 2}
        state["depth"] = 7.0
        assert registry.sample()["depth"] == 7.0

    def test_snapshot_includes_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["h"]["n"] == 1


class TestEvery:
    @pytest.mark.parametrize(
        "first_s, interval_s, until_s, expected",
        [
            (0.5, 1.0, 3.0, [0.5, 1.5, 2.5]),
            (0.0, 1.0, 3.0, [0.0, 1.0, 2.0, 3.0]),
            # 0.1 three times is 0.30000000000000004 > 0.3: the loop stops
            # on the accumulated float, not on a tick count.
            (0.0, 0.1, 0.3, [0.0, 0.1, 0.2]),
        ],
        ids=["offset", "on-horizon", "accumulated"],
    )
    def test_ticks_at_first_then_each_interval_until_horizon(
        self, first_s, interval_s, until_s, expected
    ):
        simulator = Simulator()
        ticks = []
        every(simulator, first_s, interval_s, until_s, ticks.append)
        simulator.run()
        assert ticks == expected

    def test_tick_receives_the_scheduler_time(self):
        simulator = Simulator()
        seen = []
        every(simulator, 0.25, 0.5, 2.0,
              lambda now_s: seen.append((now_s, simulator.now)))
        simulator.run()
        assert len(seen) == 4
        assert all(now_s == scheduler_now for now_s, scheduler_now in seen)

    @pytest.mark.parametrize("interval_s", [0.0, -1.0])
    def test_interval_must_be_positive(self, interval_s):
        # A zero interval would tick forever at one instant.
        simulator = Simulator()
        with pytest.raises(ConfigurationError, match="interval_s"):
            every(simulator, 0.0, interval_s, 2.0, lambda now_s: None)
        assert simulator.pending_events == 0

    def test_loops_due_at_one_instant_fire_in_start_order(self):
        simulator = Simulator()
        order = []
        for name in ("observer", "controller", "guard"):
            every(simulator, 1.0, 1.0, 3.0,
                  lambda now_s, name=name: order.append((now_s, name)))
        simulator.run()
        assert order == [
            (t, name)
            for t in (1.0, 2.0, 3.0)
            for name in ("observer", "controller", "guard")
        ]


class TestExport:
    def test_trace_jsonl_round_trip(self, tmp_path):
        traces = [
            _completed_trace(trace_id=0, server_id="shard0"),
            QueryTraceBuilder(1, 2, 0.0).shed(0.1, "admission"),
        ]
        path = export_traces_jsonl(traces, tmp_path / "t.jsonl")
        loaded = load_jsonl(path)
        assert len(loaded) == 2
        assert loaded[0]["trace_id"] == 0
        assert loaded[0]["server_id"] == "shard0"
        assert loaded[0]["outcome"] == "completed"
        root = loaded[0]["root"]
        assert root["name"] == QUERY
        assert [c["name"] for c in root["children"]] == [QUEUE, EXEC]
        assert loaded[1]["outcome"] == "shed:admission"
        assert "server_id" not in loaded[1]

    def test_span_jsonable_omits_empty_fields(self):
        payload = span_to_jsonable(Span("bare", 0.0, 1.0))
        assert payload == {"name": "bare", "start_s": 0.0, "end_s": 1.0}

    def test_jsonable_matches_validated_tree(self):
        trace = _completed_trace()
        payload = trace_to_jsonable(trace)
        # The payload is pure JSON types.
        json.dumps(payload)
        grant = [
            e for e in payload["root"]["events"] if e["name"] == EVENT_DEGREE_GRANT
        ]
        assert grant[0]["attrs"]["granted"] == 2

    def test_timeline_jsonl_round_trip(self, tmp_path):
        rows = [{"t_s": 0.0, "queue_depth": 1}, {"t_s": 1.0, "queue_depth": 3}]
        path = export_timeline_jsonl(rows, tmp_path / "tl.jsonl")
        assert load_jsonl(path) == rows

    def test_config_hash_stable_and_discriminating(self):
        a = {"rate": 100.0, "duration": 4.0}
        assert config_hash(a) == config_hash(dict(a))
        assert config_hash(a) != config_hash({"rate": 101.0, "duration": 4.0})
        assert len(config_hash(a)) == 16
        int(config_hash(a), 16)  # hex

    def test_manifest_has_provenance_and_no_timestamp(self, tmp_path):
        manifest = run_manifest(
            seed=3, scale="small", config={"x": 1},
            experiments=["e05"], extra={"traced": True},
        )
        assert manifest["seed"] == 3
        assert manifest["scale"] == "small"
        assert manifest["experiments"] == ["e05"]
        assert manifest["traced"] is True
        assert manifest["config_hash"] == config_hash({"x": 1})
        assert isinstance(manifest["git_rev"], str) and manifest["git_rev"]
        # Byte-identical manifests for identical runs: no wall-clock.
        assert not any("time" in key or "date" in key for key in manifest)
        first = write_manifest(manifest, tmp_path / "a.json").read_bytes()
        second = write_manifest(manifest, tmp_path / "b.json").read_bytes()
        assert first == second

    def test_git_revision_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setattr(export, "_PACKAGE_DIR", tmp_path)
        assert git_revision() == "unknown"

    def test_manifest_records_the_package_revision_not_the_cwd(
        self, tmp_path, monkeypatch
    ):
        # A run started from inside another checkout must still name the
        # revision of the code that ran.
        def git(*args, cwd):
            return subprocess.run(
                ["git", *args], cwd=cwd, capture_output=True, text=True,
                timeout=10, check=False,
            )

        if git("--version", cwd=tmp_path).returncode != 0:
            pytest.skip("git is not installed")
        git("init", "-q", cwd=tmp_path)
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
            "--allow-empty", "-m", "other", cwd=tmp_path)
        other = git("rev-parse", "--short=12", "HEAD", cwd=tmp_path).stdout.strip()
        assert other
        package = git("rev-parse", "--short=12", "HEAD",
                      cwd=Path(export.__file__).resolve().parent)
        expected = package.stdout.strip() if package.returncode == 0 else "unknown"
        monkeypatch.chdir(tmp_path)
        assert run_manifest(seed=0, scale="small")["git_rev"] == expected != other


class TestRender:
    def test_waterfall_shows_span_tree(self):
        text = render_waterfall(_completed_trace(server_id="s0"))
        assert "completed" in text
        assert QUEUE in text and EXEC in text
        assert "server=s0" in text
        assert EVENT_DEGREE_GRANT in text

    def test_timeline_needs_two_rows(self):
        assert "fewer than two" in render_timeline([{"t_s": 0.0}])

    def test_timeline_rejects_unknown_fields(self):
        rows = [{"t_s": 0.0, "x": 1.0}, {"t_s": 1.0, "x": 2.0}]
        with pytest.raises(ConfigurationError, match="present"):
            render_timeline(rows)
        rows = [{"t_s": 0.0, "queue_depth": 1.0}, {"t_s": 1.0, "queue_depth": 2.0}]
        assert "timeline" in render_timeline(rows)

    def test_summarize_traces(self):
        traces = [
            _completed_trace(arrival=0.0, start=0.5, end=2.0),
            QueryTraceBuilder(1, 1, 0.0).shed(0.1, "deadline"),
            QueryTraceBuilder(2, 2, 0.0).shed(0.2, "deadline"),
        ]
        summary = summarize_traces(traces)
        assert summary["n_traces"] == 3
        assert summary["n_completed"] == 1
        assert summary["shed_by_reason"] == {"deadline": 2}
        assert summary["mean_queue_delay_s"] == pytest.approx(0.5)
        assert summary["mean_service_s"] == pytest.approx(1.5)
        assert summary["mean_latency_s"] == pytest.approx(2.0)

    def test_trace_report_combines_summary_and_waterfalls(self):
        traces = [
            _completed_trace(arrival=0.0, start=0.2, end=1.0, trace_id=0),
            _completed_trace(arrival=0.0, start=0.1, end=0.5, trace_id=1),
            _completed_trace(arrival=0.0, start=0.3, end=2.0, trace_id=2),
        ]
        rows = [{"t_s": float(i), "queue_depth": float(i)} for i in range(3)]
        report = render_trace_report(traces, rows)
        assert "3 traces: 3 completed" in report
        assert "span-derived means" in report
        # Slowest query is rendered first.
        assert report.index("trace 2") < report.index("trace 1")
