"""The simulated multicore index-serving node.

Dispatch model (mirrors the paper's system):

* arriving queries join a FIFO dispatch queue;
* whenever at least one core is free and the queue is non-empty, the
  head query is dispatched: the configured policy observes the current
  :class:`~repro.policies.base.SystemState` and requests a degree, which
  the server clamps to the cores actually free and to the measured
  degree grid;
* a degree-``p`` query occupies ``p`` cores for its measured
  degree-``p`` virtual latency (gang execution — the engine's worker
  threads span the query's lifetime);
* on completion the cores are released and dispatch continues.

The model is clock-agnostic: it touches time only through the injected
:class:`~repro.core.clock.SchedulerProtocol` (``.now`` plus
``.schedule(delay_s, callback, *args)``). The virtual-time
:class:`~repro.sim.engine.Simulator` satisfies it for simulation; the
live runtime rehosts the *same* model on a wall-clock scheduler
(:mod:`repro.runtime.serve`) or on the manually-advanced
:class:`~repro.runtime.clock.FakeClock` in deterministic server tests.
Each scheduler callback (an arrival, a phase end) reads ``now`` once and
hands it down: a gang query costs two clock reads (an escalated one
three), however many queued queries its completion dispatches.

This class *is* the scheduling kernel: every decision — admission,
deadline shedding, the policy's state snapshot, the degree grant, and
gang vs. probe vs. escalation phases — is code in :meth:`submit`,
``_dispatch`` and ``_escalate``, so the one model all three hostings
share is the only place each is written. ``tests/test_source_rules.py``
holds this module to the kernel's rules: no clock-module import, no
I/O, no module-state writes, no RNG.

Incremental ("few-to-many") policies yield two-phase jobs: a sequential
probe, then — if the query outlives the probe — an escalation to the
load-chosen degree using whatever cores are free at that moment.

Robustness (all opt-in; defaults reproduce the fault-free model
exactly):

* ``deadline`` — per-query SLO budget. A query is *shed at dispatch*
  when its remaining budget cannot cover its expected sequential
  service time (in particular, whenever the queue wait alone has
  consumed the budget): serving it would burn cores on an answer that
  will arrive too late anyway. The estimate is the predictor's when
  the oracle carries predictions, the true t1 otherwise.
* ``max_queue_length`` — admission cap: arrivals finding the dispatch
  queue at the cap are rejected immediately (classic load shedding).
* ``faults`` — a :class:`~repro.sim.faults.FaultSchedule`. Slowdown
  windows multiply service times at dispatch; queries dispatched inside
  a crash window are shed (the machine is down).

Shed queries never produce a :class:`QueryRecord`; they are counted by
the metrics collector and reported through ``on_query_shed`` so a
cluster aggregator can stop waiting for them.

A host that does a query's real work (the live node's engine) passes
``on_last_phase``: it fires once per served query, when its last phase
(a gang phase, or the escalation after a probe) has started and its end
is scheduled, so the work runs inside the modelled phase. No hook, no
call: the simulator and the cluster pass none.

Observability (opt-in): pass a ``tracer`` with ``enabled=True`` and
every submitted query carries a
:class:`~repro.obs.spans.QueryTraceBuilder` through its lifecycle —
enqueue, admit-or-shed, degree grant, execution phases (probe /
escalation), completion — finished traces are handed to
``tracer.on_trace``. With the default
:data:`~repro.obs.spans.NULL_TRACER` nothing is allocated and the
dispatch path is byte-for-byte the untraced one.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.core.clock import SchedulerProtocol
from repro.errors import SimulationError
from repro.obs.spans import NULL_TRACER, QueryTraceBuilder, Tracer
from repro.policies.base import ParallelismPolicy, SystemState
from repro.sim.faults import FaultSchedule
from repro.sim.metrics import MetricsCollector, QueryRecord
from repro.sim.oracle import ServiceOracle
from repro.util.validation import require_int_in_range, require_positive

#: Fired with each completed query's record and its submit tag.
CompletionHook = Callable[[QueryRecord, Any], None]
#: Fired as (query_index, tag, reason, arrival, now) when a query is dropped.
ShedHook = Callable[[int, Any, str, float, float], None]
#: Fired as (tag, query_index, degree) when a query's last phase starts.
LastPhaseHook = Callable[[Any, int, int], None]


class _Job:
    """In-flight query state."""

    __slots__ = (
        "query_index",
        "arrival",
        "start",
        "cores_held",
        "max_degree_used",
        "escalation_degree",
        "probe_time",
        "tag",
        "trace",
    )

    def __init__(
        self,
        query_index: int,
        arrival: float,
        tag: Any,
        trace: Optional[QueryTraceBuilder],
    ) -> None:
        self.query_index = query_index
        self.arrival = arrival
        self.tag = tag
        self.start: Optional[float] = None
        self.cores_held = 0
        self.max_degree_used = 0
        # Escalation plan (incremental policies only).
        self.escalation_degree: Optional[int] = None
        self.probe_time: Optional[float] = None
        # Span builder; populated only when the server's tracer is enabled.
        self.trace = trace


class IndexServerModel:
    """FIFO multicore server with policy-driven intra-query parallelism."""

    def __init__(
        self,
        simulator: SchedulerProtocol,
        oracle: ServiceOracle,
        policy: ParallelismPolicy,
        n_cores: int,
        metrics: MetricsCollector,
        on_query_complete: Optional[CompletionHook] = None,
        clamp_to_plan: bool = False,
        deadline: Optional[float] = None,
        max_queue_length: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
        on_query_shed: Optional[ShedHook] = None,
        tracer: Optional[Tracer] = None,
        server_id: Optional[str] = None,
        on_last_phase: Optional[LastPhaseHook] = None,
    ) -> None:
        require_int_in_range(n_cores, "n_cores", low=1)
        if deadline is not None:
            require_positive(deadline, "deadline")
        if max_queue_length is not None:
            require_int_in_range(max_queue_length, "max_queue_length", low=1)
        self.simulator = simulator
        self.oracle = oracle
        self.policy = policy
        # Incremental policies carry a probe budget. Read once: a policy's
        # attributes are fixed, and a getattr that misses pays for an
        # AttributeError raised and caught inside it.
        self._probe_time: Optional[float] = getattr(policy, "probe_time", None)
        self.n_cores = n_cores
        self.metrics = metrics
        # When set, grants are additionally capped at the query's plan
        # size (its claimable chunk count): a 2-chunk query granted 12
        # workers would strand 10 reserved cores for its whole duration.
        self.clamp_to_plan = clamp_to_plan
        # Optional hook fired with each QueryRecord and the submit tag;
        # the cluster aggregator uses it to join shard responses.
        self.on_query_complete = on_query_complete
        # Robustness knobs (None = fault-free behavior, bit-identical to
        # the original model).
        self.deadline = deadline
        self.max_queue_length = max_queue_length
        # Class-based shedding (anomaly-guard degradation): when set to a
        # collection of class labels, arrivals submitted with a matching
        # ``query_class`` are dropped at the front door with reason
        # "class". None (the default) disables the check entirely.
        self.shed_classes: Optional[Any] = None
        self.faults = faults if faults is not None and faults.has_faults else None
        # Optional hook fired as (query_index, tag, reason, arrival, now)
        # when a query is dropped; the cluster aggregator uses it to release
        # join state instead of waiting for a response that never comes.
        self.on_query_shed = on_query_shed
        # Optional hook fired as (tag, query_index, degree) when a query's
        # last phase starts, with the degree its completion record will
        # carry; the live node runs the engine there.
        self.on_last_phase = on_last_phase
        # Observability (opt-in). With the default NULL_TRACER no span
        # state is allocated anywhere on the hot path.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.server_id = server_id
        self._n_submitted = 0
        self._queue: Deque[_Job] = deque()
        self.free_cores = n_cores
        self.n_running = 0
        self.n_shed = 0

    # ----------------------------------------------------------------
    # External interface
    # ----------------------------------------------------------------

    def submit(
        self, query_index: int, query_class: Optional[str] = None, tag: Any = None
    ) -> None:
        """A query arrives now. ``query_class`` is an optional
        traffic-class label consulted by class-based shedding during
        anomaly degradation; ``tag`` is opaque correlation state passed
        to ``on_query_complete`` (used by the cluster aggregator)."""
        now = self.simulator.now
        self.metrics.on_arrival()
        trace: Optional[QueryTraceBuilder] = None
        if self.tracer.enabled:
            trace = QueryTraceBuilder(
                self._n_submitted, query_index, now, server_id=self.server_id,
            )
        self._n_submitted += 1
        # Class shedding (anomaly-guard degradation) is checked first, so
        # a degraded class is reported as "class" even when the queue is
        # also at the admission cap.
        shed_classes = self.shed_classes
        if (
            shed_classes is not None
            and query_class is not None
            and query_class in shed_classes
        ):
            self._shed(query_index, tag, now, "class", now, trace)
            return
        max_queue_length = self.max_queue_length
        if max_queue_length is not None and len(self._queue) >= max_queue_length:
            self._shed(query_index, tag, now, "admission", now, trace)
            return
        self._queue.append(_Job(query_index, now, tag, trace))
        self._dispatch(now)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def busy(self) -> bool:
        """True while any query is running or queued (the drain test)."""
        return bool(self.n_running or self._queue)

    # ----------------------------------------------------------------
    # Dispatch — every method below runs inside one scheduler callback
    # and takes that callback's ``now`` rather than reading the clock.
    # ----------------------------------------------------------------

    def _shed(
        self,
        query_index: int,
        tag: Any,
        arrival: float,
        reason: str,
        now: float,
        trace: Optional[QueryTraceBuilder],
    ) -> None:
        """Drop a query without serving it."""
        self.n_shed += 1
        self.metrics.on_shed(arrival, reason)
        if trace is not None:
            self.tracer.on_trace(trace.shed(now, reason))
        if self.on_query_shed is not None:
            self.on_query_shed(query_index, tag, reason, arrival, now)

    def _dispatch(self, now: float) -> None:
        queue = self._queue
        oracle = self.oracle
        deadline = self.deadline
        max_queue_length = self.max_queue_length
        shed_this_cycle = False
        while queue and self.free_cores >= 1:
            job = queue.popleft()
            query_index = job.query_index
            # A query is not worth serving once its remaining budget
            # cannot cover its expected sequential service time (a
            # negative prediction degrades to wait-only shedding: then
            # ``wait + expected <= wait``, which the first test decides).
            if deadline is not None:
                wait = now - job.arrival
                expected = oracle.expected_sequential_latency(query_index)
                if wait >= deadline or wait + expected > deadline:
                    self._shed(query_index, job.tag, job.arrival, "deadline", now,
                               job.trace)
                    shed_this_cycle = True
                    continue
            # A crashed server answers nothing until it recovers.
            if self.faults is not None and self.faults.crashed_at(now):
                self._shed(query_index, job.tag, job.arrival, "fault", now,
                           job.trace)
                shed_this_cycle = True
                continue
            free_cores = self.free_cores
            n_queued = len(queue)
            # Positional: a keyword-built NamedTuple costs twice as much.
            # Overloaded once this cycle has shed or the queue sits at
            # the admission cap.
            state = SystemState(
                now, n_queued, self.n_running, free_cores, self.n_cores,
                self.n_shed,
                shed_this_cycle
                or (max_queue_length is not None and n_queued >= max_queue_length),
            )
            requested = self.policy.choose_degree(state, oracle.info(query_index))
            # Grant what can be used: the free cores, the plan size when
            # clamping to it, then the measured degree grid; never below 1.
            cap = min(requested, free_cores)
            if self.clamp_to_plan:
                cap = min(cap, oracle.plan_chunk_limit(query_index))
            granted = oracle.clamp_degree(max(1, cap))
            job.start = now
            if job.trace is not None:
                job.trace.degree_granted(
                    now, requested=requested, granted=granted,
                    free_cores=free_cores,
                )
            self.n_running += 1

            slowdown = (
                self.faults.multiplier_at(now) if self.faults is not None else 1.0
            )
            probe = self._probe_time
            if probe is None:
                self._start_phase(
                    job, granted, oracle.latency(query_index, granted) * slowdown,
                    "gang", now,
                )
                continue
            # Incremental policies start everything sequentially: a query
            # that outlives the probe carries its escalation plan, a
            # shorter one runs to completion at degree 1.
            t1 = oracle.sequential_latency(query_index)
            if granted > 1 and t1 > probe:
                job.escalation_degree = granted
                job.probe_time = float(probe)
                self._start_phase(job, 1, float(probe) * slowdown, "probe", now)
            else:
                self._start_phase(job, 1, t1 * slowdown, "gang", now)

    def _start_phase(
        self, job: _Job, degree: int, duration: float, kind: str, now: float
    ) -> None:
        if degree > self.free_cores:
            raise SimulationError(
                f"phase needs {degree} cores but only {self.free_cores} free"
            )
        if duration < 0:
            raise SimulationError(f"negative phase duration {duration}")
        self.free_cores -= degree
        job.cores_held = degree
        job.max_degree_used = max(job.max_degree_used, degree)
        if job.trace is not None:
            job.trace.phase_started(now, degree, kind)
        self.metrics.on_core_usage(now, now + duration, degree)
        self.simulator.schedule(duration, self._phase_end, job)
        # Last, so the phase end is due at ``now + duration`` whatever
        # the hook costs: on a wall clock a hook that outlasts the phase
        # makes its end fire late, and the completion shows it.
        on_last_phase = self.on_last_phase
        if on_last_phase is not None and job.escalation_degree is None:
            on_last_phase(job.tag, job.query_index, job.max_degree_used)

    def _phase_end(self, job: _Job) -> None:
        now = self.simulator.now
        self.free_cores += job.cores_held
        job.cores_held = 0
        if job.trace is not None:
            job.trace.phase_ended(now)
        if job.escalation_degree is not None:
            self._escalate(job, now)
        else:
            self._complete(job, now)
        self._dispatch(now)

    def _escalate(self, job: _Job, now: float) -> None:
        """The probe elapsed and the query is still running: widen to up
        to the planned degree, but never stall — at worst continue
        sequentially on the core the probe was using. The remaining work
        is approximated as parallelizing like the whole query does at
        the chosen degree (DESIGN.md)."""
        target = job.escalation_degree
        probe = job.probe_time
        job.escalation_degree = None
        job.probe_time = None
        oracle = self.oracle
        query_index = job.query_index
        slowdown = (
            self.faults.multiplier_at(now) if self.faults is not None else 1.0
        )
        actual = oracle.clamp_degree(max(1, min(target, self.free_cores)))
        t1 = oracle.sequential_latency(query_index)
        # Never negative: a probe phase starts only when ``t1 > probe``,
        # and a correctly rounded quotient of the smaller by the larger
        # is at most 1.0.
        remaining_fraction = 1.0 - probe / t1
        if actual == 1:
            duration = t1 * remaining_fraction
        else:
            duration = oracle.latency(query_index, actual) * remaining_fraction
        if job.trace is not None:
            job.trace.escalated(now, target=target, actual=actual)
        self._start_phase(job, actual, duration * slowdown, "escalated", now)

    def _complete(self, job: _Job, now: float) -> None:
        self.n_running -= 1
        if self.n_running < 0 or not 0 <= self.free_cores <= self.n_cores:
            raise SimulationError("core accounting went inconsistent")
        record = QueryRecord(
            job.query_index,
            job.arrival,
            float(job.start if job.start is not None else job.arrival),
            now,
            job.max_degree_used,
        )
        self.metrics.on_completion(record)
        if job.trace is not None:
            self.tracer.on_trace(job.trace.completed(now))
        if self.on_query_complete is not None:
            self.on_query_complete(record, job.tag)
