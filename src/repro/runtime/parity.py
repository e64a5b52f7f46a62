"""Sim-vs-live parity: decision sequences and tolerance bands.

Two layers of evidence that the live runtime is the simulator's model
on a different clock:

1. **Exact decision parity** (deterministic). :func:`run_scripted_live`
   replays a :class:`~repro.sim.script.ScriptedArrival` script through
   a :class:`~repro.runtime.node.ServingNode` on a
   :class:`~repro.runtime.clock.FakeClock` (the simulator's own heap
   and horizon-then-bounded-drain loop under another name).
   :func:`decision_events` flattens the traced lifecycle of either run
   into the ordered sequence of (admit | shed | degree_grant |
   escalate) decisions with their timestamps and attributes;
   :func:`compare_decision_sequences` demands bit-for-bit equality.
   Both runs execute the same model arithmetic in the same order, so
   any divergence is a decision the node's routing added, not jitter.

2. **Tolerance-band validation** (statistical). A wall-clock smoke run
   cannot be bit-identical — the event loop adds real jitter — so
   :func:`tolerance_report` compares a live load point's summary
   against the simulator's prediction at the matched load point,
   metric by metric, against declared bands (relative for latencies
   and throughput, absolute for rates in [0, 1]); the result is a
   machine-readable dict suitable for a CI artifact.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.spans import (
    EVENT_ADMIT,
    EVENT_DEGREE_GRANT,
    EVENT_ESCALATE,
    EVENT_SHED,
    QueryTrace,
    Tracer,
)
from repro.policies.base import ParallelismPolicy
from repro.runtime.clock import FakeClock
from repro.runtime.node import ServingConfig, ServingNode
from repro.sim.experiment import LoadPointConfig, LoadPointSummary, run_to_horizon
from repro.sim.oracle import ServiceOracle
from repro.sim.script import ScriptedArrival

__all__ = [
    "DEFAULT_TOLERANCES",
    "DecisionEvent",
    "decision_events",
    "compare_decision_sequences",
    "run_scripted_live",
    "tolerance_report",
]

#: One kernel decision: (trace_id, query_index, event name, time_s,
#: sorted attribute items). Two runs are in parity iff their sequences
#: of these tuples are equal.
DecisionEvent = Tuple[int, int, str, float, Tuple[Tuple[str, Any], ...]]

_DECISION_NAMES = (EVENT_ADMIT, EVENT_SHED, EVENT_DEGREE_GRANT, EVENT_ESCALATE)

#: Default tolerance bands for wall-clock smoke validation. Relative
#: bands (fraction of the sim value) for time-shaped metrics; absolute
#: bands for metrics already in [0, 1]. Wide enough for a loaded
#: single-core CI runner at dilation >= 5, tight enough that a wrong
#: decision path (shedding, degree misgrants) lands far outside.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "p50_latency": 0.35,
    "p99_latency": 0.50,
    "mean_latency": 0.35,
    "throughput": 0.15,
    "shed_rate": 0.10,  # absolute
    "slo_attainment": 0.15,  # absolute
}

#: Metrics compared with absolute deviation (already dimensionless
#: fractions); everything else is relative.
_ABSOLUTE_METRICS = frozenset({"shed_rate", "slo_attainment"})


def decision_events(traces: Sequence[QueryTrace]) -> List[DecisionEvent]:
    """Flatten traced queries into the ordered decision sequence.

    Traces are ordered by ``trace_id`` — the server assigns ids in
    submission order, so the sequence is deterministic and comparable
    across hostings of the same script.
    """
    events: List[DecisionEvent] = []
    for trace in sorted(traces, key=lambda t: t.trace_id):
        for event in trace.root.events:
            if event.name in _DECISION_NAMES:
                attrs = tuple(sorted(event.attrs.items()))
                events.append(
                    (trace.trace_id, trace.query_index, event.name,
                     event.time_s, attrs)
                )
    return events


def compare_decision_sequences(
    left: Sequence[DecisionEvent], right: Sequence[DecisionEvent]
) -> Dict[str, Any]:
    """Compare two decision sequences for exact equality.

    Returns ``{"identical": bool, "n_left": int, "n_right": int,
    "first_divergence": None | {"index", "left", "right"}}`` — the
    first differing position makes parity failures debuggable instead
    of a bare assert.
    """
    first_divergence: Optional[Dict[str, Any]] = None
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            first_divergence = {"index": index, "left": a, "right": b}
            break
    if first_divergence is None and len(left) != len(right):
        index = min(len(left), len(right))
        first_divergence = {
            "index": index,
            "left": left[index] if index < len(left) else None,
            "right": right[index] if index < len(right) else None,
        }
    return {
        "identical": first_divergence is None,
        "n_left": len(left),
        "n_right": len(right),
        "first_divergence": first_divergence,
    }


def run_scripted_live(
    oracle: ServiceOracle,
    policy: ParallelismPolicy,
    config: LoadPointConfig,
    script: Sequence[ScriptedArrival],
    controllers: Sequence[object] = (),
    tracer: Optional[Tracer] = None,
) -> Tuple[LoadPointSummary, ServingNode]:
    """Replay ``script`` through the live node on a :class:`FakeClock`.

    The schedule *is* :func:`~repro.sim.script.run_scripted_point`'s —
    the clock is the simulator's heap, driven by the same
    :func:`~repro.sim.experiment.run_to_horizon` — so what differs from
    the sim run is the node's hook routing and nothing else. No wall
    time passes: the clock only moves when this function advances it.
    """
    clock = FakeClock()
    node = ServingNode(
        clock, oracle, policy, ServingConfig.from_load_point(config),
        tracer=tracer,
    )
    node.attach_controllers(controllers)
    for arrival in script:
        clock.schedule_at(
            arrival.time_s, node.submit, arrival.query_index, None, arrival.query_class,
        )
    run_to_horizon(clock, config.duration, node.server.busy)
    return node.summary(config.rate), node


def _deviation(metric: str, sim_value: float, live_value: float) -> float:
    """Deviation of live from sim: absolute for [0, 1] metrics,
    relative (to the sim value, floored to dodge divide-by-tiny)
    otherwise."""
    if metric in _ABSOLUTE_METRICS:
        return abs(live_value - sim_value)
    return abs(live_value - sim_value) / max(abs(sim_value), 1e-12)


def tolerance_report(
    sim_summary: LoadPointSummary,
    live_summary: LoadPointSummary,
    tolerances: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """Compare a live load point against its simulator prediction.

    Metrics where both sides are NaN (e.g. ``slo_attainment`` with no
    SLO configured) count as within band. Returns a machine-readable
    dict: per-metric sim/live values, deviation, band, and pass flag,
    plus an overall ``ok``.
    """
    bands = dict(DEFAULT_TOLERANCES if tolerances is None else tolerances)
    metrics: Dict[str, Any] = {}
    ok = True
    for metric, band in sorted(bands.items()):
        sim_value = float(getattr(sim_summary, metric))
        live_value = float(getattr(live_summary, metric))
        if math.isnan(sim_value) and math.isnan(live_value):
            entry = {
                "sim": None, "live": None, "deviation": 0.0,
                "band": band, "kind": "skipped-nan", "ok": True,
            }
        else:
            deviation = _deviation(metric, sim_value, live_value)
            entry = {
                "sim": sim_value,
                "live": live_value,
                "deviation": deviation,
                "band": band,
                "kind": ("absolute" if metric in _ABSOLUTE_METRICS
                         else "relative"),
                "ok": bool(deviation <= band),
            }
        ok = ok and bool(entry["ok"])
        metrics[metric] = entry
    return {
        "ok": ok,
        "policy": sim_summary.policy,
        "rate": sim_summary.rate,
        "n_observed_sim": sim_summary.observed,
        "n_observed_live": live_summary.observed,
        "metrics": metrics,
    }
