"""Structured query-lifecycle spans and the tracer protocol.

Every query admitted to a simulated ISN can carry a
:class:`QueryTrace`: a typed tree of virtual-time-stamped spans covering
its whole lifecycle — ``queue`` (enqueue → dispatch), ``exec``
(dispatch → completion, containing one ``exec.phase`` child per gang
phase), plus instant events for the decisions taken along the way
(``degree_grant``, ``escalate``, ``shed``). Cluster queries carry the
aggregator-side counterpart: a ``cluster`` root with one
``cluster.shard`` child per shard attempt and events for hedge /
quorum / timeout outcomes.

Tracing is strictly opt-in. The server models hold a :class:`Tracer`
whose ``enabled`` flag gates *all* span construction: with the default
:data:`NULL_TRACER` no builder, span, or event object is ever
allocated, so fault-free untraced runs execute exactly the original
code path. With tracing on, span recording is read-only with respect to
simulation state (no RNG draws, no event scheduling), so results are
unchanged — the determinism regression tests pin both properties.

All timestamps are virtual-time seconds from the driving
:class:`~repro.sim.engine.Simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SimulationError

# Span names (the taxonomy is documented in docs/architecture.md §10).
QUERY = "query"
QUEUE = "queue"
EXEC = "exec"
PHASE = "exec.phase"
CLUSTER = "cluster"
SHARD = "cluster.shard"

# Instant-event names.
EVENT_ENQUEUE = "enqueue"
EVENT_ADMIT = "admit"
EVENT_SHED = "shed"
EVENT_DEGREE_GRANT = "degree_grant"
EVENT_ESCALATE = "escalate"
EVENT_HEDGE = "hedge"
EVENT_FINALIZE = "finalize"


_EMPTY_ATTRS: Mapping[str, Any] = {}


class SpanEvent:
    """An instant (zero-duration) marker inside a span.

    Plain ``__slots__`` class rather than a dataclass: one is built per
    lifecycle decision of every traced query, so construction cost is
    the tracing overhead. Treat instances as immutable.
    """

    __slots__ = ("name", "time_s", "attrs")

    def __init__(
        self, name: str, time_s: float, attrs: Mapping[str, Any] = _EMPTY_ATTRS
    ) -> None:
        self.name = name
        self.time_s = time_s
        self.attrs = attrs

    def __repr__(self) -> str:
        return f"SpanEvent({self.name!r}, {self.time_s}, {dict(self.attrs)!r})"


class Span:
    """A closed interval of virtual time with typed children and events.

    Plain ``__slots__`` class for the same reason as :class:`SpanEvent`;
    treat instances as immutable once built.
    """

    __slots__ = ("name", "start_s", "end_s", "attrs", "children", "events")

    def __init__(
        self,
        name: str,
        start_s: float,
        end_s: float,
        attrs: Mapping[str, Any] = _EMPTY_ATTRS,
        children: Tuple["Span", ...] = (),
        events: Tuple[SpanEvent, ...] = (),
    ) -> None:
        self.name = name
        self.start_s = start_s
        self.end_s = end_s
        self.attrs = attrs
        self.children = children
        self.events = events

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, [{self.start_s}, {self.end_s}], "
            f"children={len(self.children)}, events={len(self.events)})"
        )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def child(self, name: str) -> Optional["Span"]:
        """First direct child with ``name`` (None if absent)."""
        for span in self.children:
            if span.name == name:
                return span
        return None

    def validate(self) -> None:
        """Check the span-algebra invariants, recursively.

        * ``start_s <= end_s`` (spans never run backwards);
        * children nest inside their parent's interval;
        * children appear in non-decreasing start order;
        * events fall inside the span's interval.

        Raises :class:`~repro.errors.SimulationError` on violation. The
        builders below only produce valid trees; ``validate`` exists so
        tests (and external trace consumers) can assert it.
        """
        if self.end_s < self.start_s:
            raise SimulationError(
                f"span {self.name!r} runs backwards: "
                f"[{self.start_s}, {self.end_s}]"
            )
        previous_start = self.start_s
        for span in self.children:
            if span.start_s < self.start_s or span.end_s > self.end_s:
                raise SimulationError(
                    f"child {span.name!r} [{span.start_s}, {span.end_s}] "
                    f"escapes parent {self.name!r} "
                    f"[{self.start_s}, {self.end_s}]"
                )
            if span.start_s < previous_start:
                raise SimulationError(
                    f"children of {self.name!r} are out of order at "
                    f"{span.name!r}"
                )
            previous_start = span.start_s
            span.validate()
        for event in self.events:
            if not self.start_s <= event.time_s <= self.end_s:
                raise SimulationError(
                    f"event {event.name!r} at {event.time_s} outside span "
                    f"{self.name!r} [{self.start_s}, {self.end_s}]"
                )


class QueryTrace:
    """The recorded lifecycle of one query at one server.

    ``outcome`` is ``"completed"`` or ``"shed:<reason>"``. For cluster
    traces (root span :data:`CLUSTER`) it is ``"full"``, ``"partial"``,
    or ``"failed"``. One is built per traced query (hot path), hence a
    plain ``__slots__`` class; treat instances as immutable.
    """

    __slots__ = ("trace_id", "query_index", "root", "outcome", "server_id")

    def __init__(
        self,
        trace_id: int,
        query_index: int,
        root: Span,
        outcome: str,
        server_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.query_index = query_index
        self.root = root
        self.outcome = outcome
        self.server_id = server_id

    def __repr__(self) -> str:
        return (
            f"QueryTrace(id={self.trace_id}, query_index={self.query_index}, "
            f"outcome={self.outcome!r}, server_id={self.server_id!r})"
        )

    @property
    def arrival_s(self) -> float:
        return self.root.start_s

    @property
    def latency_s(self) -> float:
        return self.root.duration_s

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    @property
    def answered(self) -> bool:
        """Completed node query, or a cluster answer with any coverage."""
        return self.outcome in ("completed", "full", "partial")

    @property
    def shed_reason(self) -> Optional[str]:
        if self.outcome.startswith("shed:"):
            return self.outcome.split(":", 1)[1]
        return None

    def queue_delay_s(self) -> float:
        """Duration of the ``queue`` span (0.0 when shed before dispatch)."""
        queue = self.root.child(QUEUE)
        return queue.duration_s if queue is not None else 0.0

    def service_s(self) -> float:
        """Duration of the ``exec`` span (0.0 when never dispatched)."""
        execution = self.root.child(EXEC)
        return execution.duration_s if execution is not None else 0.0


class Tracer:
    """Tracer protocol: a sink for finished traces and timelines.

    The default implementation is a no-op with ``enabled = False``;
    instrumented code MUST consult ``enabled`` before building any span
    state so that untraced runs allocate nothing.
    """

    enabled: bool = False

    def on_run_start(self, meta: Mapping[str, Any]) -> None:
        """A new simulated run (load point) is starting."""

    def on_trace(self, trace: QueryTrace) -> None:
        """A query's trace is complete (completion or shed)."""

    def on_timeline(self, meta: Mapping[str, Any], rows: List[Dict[str, Any]]) -> None:
        """A run's sampled metric timeline is complete."""

    def on_lifecycle_event(
        self, name: str, time_s: float, attrs: Mapping[str, Any] = _EMPTY_ATTRS
    ) -> None:
        """A run-level control event fired (``control.adjust``,
        ``anomaly.alarm``, ``anomaly.degrade``, ``anomaly.recover``).

        Unlike ``on_trace`` these are not tied to a single query: they
        record the *system's* control decisions so traces can explain
        why a window of queries ran degraded."""


class NullTracer(Tracer):
    """Disabled tracer: zero allocation, zero behavior."""

    __slots__ = ()
    enabled = False


#: Shared disabled tracer; instrumented code defaults to this.
NULL_TRACER = NullTracer()


@dataclass
class TraceRun:
    """One simulated run's worth of recorded observability output."""

    meta: Dict[str, Any] = field(default_factory=dict)
    traces: List[QueryTrace] = field(default_factory=list)
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    #: Run-level control/anomaly lifecycle events, in emission order.
    events: List[SpanEvent] = field(default_factory=list)


class RecordingTracer(Tracer):
    """In-memory tracer used by tests, the trace CLI, and ``--trace``.

    Traces are grouped into :class:`TraceRun` buckets, one per
    ``on_run_start`` call (a default bucket is created lazily for
    callers that never announce a run).
    """

    enabled = True

    def __init__(self) -> None:
        self.runs: List[TraceRun] = []

    def _current(self) -> TraceRun:
        if not self.runs:
            self.runs.append(TraceRun())
        return self.runs[-1]

    def on_run_start(self, meta: Mapping[str, Any]) -> None:
        self.runs.append(TraceRun(meta=dict(meta)))

    def on_trace(self, trace: QueryTrace) -> None:
        self._current().traces.append(trace)

    def on_timeline(self, meta: Mapping[str, Any], rows: List[Dict[str, Any]]) -> None:
        self._current().timeline.extend(rows)

    def on_lifecycle_event(
        self, name: str, time_s: float, attrs: Mapping[str, Any] = _EMPTY_ATTRS
    ) -> None:
        self._current().events.append(SpanEvent(name, time_s, dict(attrs)))

    @property
    def traces(self) -> List[QueryTrace]:
        """All traces across runs, in recording order."""
        return [trace for run in self.runs for trace in run.traces]

    @property
    def lifecycle_events(self) -> List[SpanEvent]:
        """All run-level lifecycle events across runs, in order."""
        return [event for run in self.runs for event in run.events]

    def clear(self) -> None:
        self.runs = []


class _PhaseState:
    """Open execution phase (mutable while the gang runs)."""

    __slots__ = ("start_s", "degree", "kind")

    def __init__(self, start_s: float, degree: int, kind: str) -> None:
        self.start_s = start_s
        self.degree = degree
        self.kind = kind


class QueryTraceBuilder:
    """Assembles a node-level :class:`QueryTrace` as the server acts.

    The server drives it through the lifecycle::

        enqueue (construction) -> shed(...)                 # dropped, or
                               -> degree_granted/phase_* -> completed(...)

    Only constructed when the server's tracer is enabled.
    """

    __slots__ = (
        "trace_id", "query_index", "server_id", "arrival_s",
        "_start_s", "_events", "_phases", "_open_phase", "_grant_attrs",
    )

    def __init__(
        self,
        trace_id: int,
        query_index: int,
        arrival_s: float,
        server_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.query_index = query_index
        self.server_id = server_id
        self.arrival_s = arrival_s
        self._start_s: Optional[float] = None
        self._events: List[SpanEvent] = [SpanEvent(EVENT_ENQUEUE, arrival_s)]
        self._phases: List[Span] = []
        self._open_phase: Optional[_PhaseState] = None
        self._grant_attrs: Dict[str, Any] = {}

    def degree_granted(
        self, time_s: float, requested: int, granted: int, free_cores: int
    ) -> None:
        """The head-of-queue query was admitted and sized."""
        self._start_s = time_s
        self._grant_attrs = {
            "requested": requested,
            "granted": granted,
            "free_cores": free_cores,
        }
        self._events.append(SpanEvent(EVENT_ADMIT, time_s))
        # The grant attrs are shared (not copied) with the exec span;
        # the builder never mutates them after this point.
        self._events.append(
            SpanEvent(EVENT_DEGREE_GRANT, time_s, self._grant_attrs)
        )

    def phase_started(self, time_s: float, degree: int, kind: str = "gang") -> None:
        self._open_phase = _PhaseState(time_s, degree, kind)

    def phase_ended(self, time_s: float) -> None:
        phase = self._open_phase
        if phase is None:
            raise SimulationError("phase_ended without an open phase")
        self._open_phase = None
        self._phases.append(
            Span(
                PHASE,
                phase.start_s,
                time_s,
                attrs={"degree": phase.degree, "kind": phase.kind},
            )
        )

    def escalated(self, time_s: float, target: int, actual: int) -> None:
        """The probe elapsed; the query widens to ``actual`` workers."""
        self._events.append(
            SpanEvent(EVENT_ESCALATE, time_s, {"target": target, "actual": actual})
        )

    def shed(self, time_s: float, reason: str) -> QueryTrace:
        """The query was dropped; returns the finished trace."""
        events = self._events + [SpanEvent(EVENT_SHED, time_s, {"reason": reason})]
        children: List[Span] = []
        if time_s > self.arrival_s or self._start_s is None:
            # Shed from the queue (admission happens at arrival time, in
            # which case the queue span is empty but still recorded).
            children.append(Span(QUEUE, self.arrival_s, time_s))
        root = Span(
            QUERY,
            self.arrival_s,
            time_s,
            attrs={"query_index": self.query_index},
            children=tuple(children),
            events=tuple(events),
        )
        return QueryTrace(
            trace_id=self.trace_id,
            query_index=self.query_index,
            root=root,
            outcome=f"shed:{reason}",
            server_id=self.server_id,
        )

    def completed(self, time_s: float) -> QueryTrace:
        """The query finished; returns the finished trace."""
        if self._start_s is None:
            raise SimulationError("completed() before degree_granted()")
        if self._open_phase is not None:
            raise SimulationError("completed() with an open phase")
        queue = Span(QUEUE, self.arrival_s, self._start_s)
        execution = Span(
            EXEC,
            self._start_s,
            time_s,
            attrs=self._grant_attrs,
            children=tuple(self._phases),
        )
        root = Span(
            QUERY,
            self.arrival_s,
            time_s,
            attrs={"query_index": self.query_index},
            children=(queue, execution),
            events=tuple(self._events),
        )
        return QueryTrace(
            trace_id=self.trace_id,
            query_index=self.query_index,
            root=root,
            outcome="completed",
            server_id=self.server_id,
        )


class ClusterTraceBuilder:
    """Assembles the aggregator-side trace of one fanned-out query.

    One ``cluster.shard`` child span is recorded per shard *attempt*
    (primary submit, and replica re-issue when hedged); attempts end at
    the response, shed, or — for attempts still outstanding when the
    aggregator answers — the finalize time, with the outcome attribute
    telling them apart.
    """

    __slots__ = ("trace_id", "arrival_s", "_attempts", "_events")

    def __init__(self, trace_id: int, arrival_s: float, n_shards: int) -> None:
        self.trace_id = trace_id
        self.arrival_s = arrival_s
        # (shard_id, replica) -> [start_s, end_s or None, outcome, query_index]
        self._attempts: Dict[Tuple[int, bool], List[Any]] = {}
        self._events: List[SpanEvent] = []

    def shard_submitted(
        self, time_s: float, shard_id: int, query_index: int, replica: bool = False
    ) -> None:
        self._attempts[(shard_id, replica)] = [time_s, None, "pending", query_index]

    def shard_responded(
        self, time_s: float, shard_id: int, replica: bool = False, won: bool = True
    ) -> None:
        attempt = self._attempts.get((shard_id, replica))
        if attempt is not None and attempt[1] is None:
            attempt[1] = time_s
            attempt[2] = "won" if won else "lost"

    def shard_shed(
        self, time_s: float, shard_id: int, reason: str, replica: bool = False
    ) -> None:
        attempt = self._attempts.get((shard_id, replica))
        if attempt is not None and attempt[1] is None:
            attempt[1] = time_s
            attempt[2] = f"shed:{reason}"

    def hedged(self, time_s: float, shard_ids: List[int]) -> None:
        self._events.append(
            SpanEvent(EVENT_HEDGE, time_s, {"shards": list(shard_ids)})
        )

    def finalized(
        self,
        time_s: float,
        outcome: str,
        n_responded: int,
        n_shards: int,
        timed_out: bool,
        quorum: Optional[int],
    ) -> QueryTrace:
        self._events.append(
            SpanEvent(
                EVENT_FINALIZE,
                time_s,
                {
                    "outcome": outcome,
                    "coverage": n_responded / n_shards,
                    "timed_out": timed_out,
                    "quorum": quorum,
                },
            )
        )
        children = []
        for (shard_id, replica), attempt in sorted(self._attempts.items()):
            start_s, end_s, status, query_index = attempt
            if end_s is None:  # still outstanding when the answer shipped
                end_s, status = time_s, "abandoned"
            children.append(
                Span(
                    SHARD,
                    start_s,
                    max(end_s, start_s),
                    attrs={
                        "shard": shard_id,
                        "replica": replica,
                        "outcome": status,
                        "query_index": query_index,
                    },
                )
            )
        children.sort(key=lambda span: (span.start_s, span.attrs["shard"]))
        root = Span(
            CLUSTER,
            self.arrival_s,
            max(time_s, self.arrival_s),
            children=tuple(children),
            events=tuple(self._events),
        )
        return QueryTrace(
            trace_id=self.trace_id,
            query_index=-1,  # cluster queries span one index per shard
            root=root,
            outcome=outcome,
        )
