"""Pure scheduling-kernel decisions: admission, deadline, degree, phases.

These are the decision rules of the paper's index-serving node,
extracted from the simulator driver so they are *clock-agnostic and
pure*: every function is a deterministic map from explicit arguments to
a value, reads no clocks (timestamps arrive as plain floats captured by
the driver), performs no I/O, and mutates nothing. The same functions
will back the live wall-clock runtime; the layering and purity tests in
``tests/test_source_rules.py`` hold this module to that contract.

The driver (``sim/server.py`` today, the asyncio front door next)
retains ownership of all mutable state — queues, core accounting,
knobs like ``max_queue_length`` that the anomaly guard retunes at
runtime — and consults these functions at each decision point:

* :func:`admission_decision` — shed-at-arrival (class-based shedding,
  queue-length admission control);
* :func:`deadline_exceeded` — shed-at-dispatch when the remaining SLO
  budget cannot cover the expected sequential service time;
* :func:`observe_state` — the :class:`SystemState` snapshot policies
  decide from;
* :func:`grant_degree` — clamp a policy's requested degree to free
  cores, the measured degree grid, and (optionally) the plan size;
* :func:`plan_initial_phase` / :func:`plan_escalation` — gang vs.
  few-to-many phase planning, as an inert :class:`PhasePlan` value the
  driver executes.

Oracle access is injected as plain callables (``clamp_degree``,
``parallel_latency``) so the kernel stays independent of the profile
machinery's types.
"""

from __future__ import annotations

from typing import Callable, Container, NamedTuple, Optional

from repro.policies.base import SystemState

__all__ = [
    "PhasePlan",
    "admission_decision",
    "deadline_exceeded",
    "grant_degree",
    "observe_state",
    "plan_escalation",
    "plan_initial_phase",
]


class PhasePlan(NamedTuple):
    """An execution phase the driver should start, as inert data.

    ``escalation_degree``/``probe_time`` are set only for a probe phase
    of a few-to-many (incremental) execution: the driver records them on
    the job and, if the query outlives the probe, asks
    :func:`plan_escalation` for the follow-on phase.
    """

    degree: int
    duration: float
    kind: str
    escalation_degree: Optional[int] = None
    probe_time: Optional[float] = None


def admission_decision(
    query_class: Optional[str],
    shed_classes: Optional[Container[str]],
    queue_length: int,
    max_queue_length: Optional[int],
) -> Optional[str]:
    """Shed reason for an arriving query, or None to admit it.

    Class-based shedding (anomaly-guard degradation) is checked first so
    a degraded class is reported as "class" even when the queue is also
    full; then the admission cap drops arrivals that find the dispatch
    queue at ``max_queue_length``.
    """
    if (
        shed_classes is not None
        and query_class is not None
        and query_class in shed_classes
    ):
        return "class"
    if max_queue_length is not None and queue_length >= max_queue_length:
        return "admission"
    return None


def deadline_exceeded(
    now: float,
    arrival: float,
    deadline: Optional[float],
    expected_sequential: float,
) -> bool:
    """True when a query's remaining SLO budget cannot cover its
    expected sequential service time (a negative prediction degrades to
    wait-only shedding). ``deadline=None`` disables the check."""
    if deadline is None:
        return False
    wait = now - arrival
    return wait >= deadline or wait + max(0.0, expected_sequential) > deadline


def observe_state(
    now: float,
    n_queued: int,
    n_running: int,
    free_cores: int,
    n_cores: int,
    n_shed: int,
    shed_this_cycle: bool,
    max_queue_length: Optional[int],
) -> SystemState:
    """The load snapshot a policy decides from, at a driver-captured
    timestamp. ``overloaded`` is set when this dispatch cycle already
    shed a query or the queue sits at the admission cap."""
    # Positional: a keyword-built NamedTuple costs twice as much, and
    # this runs once per dispatch.
    return SystemState(
        now, n_queued, n_running, free_cores, n_cores, n_shed,
        shed_this_cycle
        or (max_queue_length is not None and n_queued >= max_queue_length),
    )


def grant_degree(
    requested: int,
    free_cores: int,
    clamp_degree: Callable[[int], int],
    plan_limit: Optional[int] = None,
) -> int:
    """Clamp a policy's requested degree to what can actually be used:
    the cores free right now, optionally the query's plan size (a
    2-chunk query granted 12 workers would strand 10 cores), and the
    oracle's measured degree grid — never below 1."""
    cap = min(requested, free_cores)
    if plan_limit is not None:
        cap = min(cap, plan_limit)
    return clamp_degree(max(1, cap))


def plan_initial_phase(
    granted: int,
    probe: Optional[float],
    t1: float,
    parallel_latency: Callable[[int], float],
    slowdown: float,
) -> PhasePlan:
    """The first execution phase for a dispatched query.

    Gang policies run one phase at the granted degree. Incremental
    ("few-to-many") policies start everything sequentially: queries
    whose sequential time exceeds the probe budget get a probe phase
    carrying an escalation plan; shorter ones run to completion at
    degree 1 and never pay parallel overheads.
    """
    if probe is not None:
        if granted > 1 and t1 > probe:
            return PhasePlan(
                degree=1,
                duration=float(probe) * slowdown,
                kind="probe",
                escalation_degree=granted,
                probe_time=float(probe),
            )
        return PhasePlan(1, t1 * slowdown, "gang")
    return PhasePlan(granted, parallel_latency(granted) * slowdown, "gang")


def plan_escalation(
    target: int,
    probe: float,
    t1: float,
    free_cores: int,
    clamp_degree: Callable[[int], int],
    parallel_latency: Callable[[int], float],
    slowdown: float,
) -> PhasePlan:
    """The follow-on phase when a probe elapsed and the query is still
    running: widen to up to ``target`` cores, but never stall — at worst
    continue sequentially on the core the probe was using. The remaining
    work is approximated as parallelizing like the whole query does at
    the chosen degree (documented in DESIGN.md)."""
    actual = clamp_degree(max(1, min(target, free_cores)))
    remaining_fraction = max(0.0, 1.0 - probe / t1)
    if actual == 1:
        duration = t1 * remaining_fraction
    else:
        duration = parallel_latency(actual) * remaining_fraction
    return PhasePlan(actual, duration * slowdown, "escalated")
