"""Scripted arrival streams: one workload, replayable on any clock.

:func:`run_load_point` draws its arrival times and query indices online
while the simulation runs, which is fine when the simulator is the only
consumer. Sim-vs-live validation needs something stronger: the *same*
workload must be submittable to the virtual-time server model and to
the wall-clock serving runtime, event for event. This module
materializes the stream up front:

* :func:`build_arrival_script` replays exactly the RNG-stream semantics
  of :func:`~repro.sim.experiment.run_load_point` (``arrivals`` /
  ``sample`` child streams of the seed, class labels read from the
  arrival process's ``last_class``) into a list of
  :class:`ScriptedArrival` rows — so a script built from ``(seed,
  rate, duration)`` is the workload ``run_load_point`` would have
  generated internally;
* :func:`run_scripted_point` replays a script through the simulator and
  summarizes it with the shared
  :func:`~repro.sim.experiment.summarize_load_point` schema.

The wall-clock counterparts live in :mod:`repro.runtime.loadgen`
(paced TCP replay) and :mod:`repro.runtime.parity` (FakeClock replay);
because all of them consume the identical script, any divergence in
their decision sequences is attributable to the hosting, never the
workload.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.obs.spans import Tracer
from repro.policies.base import ParallelismPolicy
from repro.sim.arrivals import ArrivalProcess, PoissonArrivals
from repro.sim.experiment import (
    LoadPointConfig,
    LoadPointSummary,
    run_to_horizon,
    summarize_load_point,
    wire_load_point,
)
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel
from repro.util.rng import RngFactory
from repro.util.validation import require_int_in_range

__all__ = [
    "ScriptedArrival",
    "build_arrival_script",
    "run_scripted_point",
]


class ScriptedArrival(NamedTuple):
    """One pre-drawn arrival: when, which query, which traffic class."""

    time_s: float
    query_index: int
    query_class: Optional[str] = None


def build_arrival_script(
    n_queries: int,
    config: LoadPointConfig,
    arrivals: Optional[ArrivalProcess] = None,
) -> List[ScriptedArrival]:
    """Materialize the arrival stream ``run_load_point`` would generate.

    Draw-for-draw identical to the online path: interarrival gaps come
    from the ``arrivals`` child stream of ``config.seed`` (Poisson at
    ``config.rate`` unless an explicit process is given), query indices
    from the ``sample`` child stream, and generation stops at the first
    arrival that would land past ``config.duration``.
    """
    require_int_in_range(n_queries, "n_queries", low=1)
    streams = RngFactory(config.seed)
    arrival_rng = streams.stream("arrivals")
    sample_rng = streams.stream("sample")
    if arrivals is None:
        arrivals = PoissonArrivals(config.rate, arrival_rng)

    script: List[ScriptedArrival] = []
    now = 0.0
    while True:
        gap = arrivals.next_interarrival()
        if math.isinf(gap):
            break
        if now + gap > config.duration:
            break
        now += gap
        # The class label belongs to the arrival produced by the draw
        # above (matches the read-before-next-draw order of the online
        # path in run_load_point).
        arrival_class = getattr(arrivals, "last_class", None)
        query_index = int(sample_rng.integers(n_queries))
        script.append(ScriptedArrival(now, query_index, arrival_class))
    return script


def run_scripted_point(
    oracle: ServiceOracle,
    policy: ParallelismPolicy,
    config: LoadPointConfig,
    script: Sequence[ScriptedArrival],
    controllers: Sequence[object] = (),
    tracer: Optional[Tracer] = None,
) -> Tuple[LoadPointSummary, IndexServerModel]:
    """Replay ``script`` through the virtual-time server and summarize.

    It *is* :func:`~repro.sim.experiment.run_load_point` — the same
    ``wire_load_point``, ``run_to_horizon`` and summary calls — except
    the arrivals are the given script instead of being drawn online.
    Returns ``(summary, server)``; the server is returned so callers
    can inspect post-run state (shed counters, class-shedding knobs
    toggled by controllers).
    """
    simulator, server = wire_load_point(oracle, policy, config, controllers, tracer)
    for arrival in script:
        simulator.schedule_at(
            arrival.time_s, server.submit,
            arrival.query_index, None, arrival.query_class,
        )
    run_to_horizon(simulator, config.duration, server.busy)
    return summarize_load_point(server, config.rate, slo=config.slo), server
