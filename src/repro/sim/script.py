"""Arrival streams and their replay: one workload, replayable on any clock.

Every virtual-time load point is one pipeline — draw arrivals, replay
them onto a scheduler, drain — and this module holds its first two
stages:

* :func:`arrival_times` is the one loop that draws from an
  :class:`~repro.sim.arrivals.ArrivalProcess`, lazily, up to the
  horizon; :func:`arrival_stream`, a node's workload, adds each
  arrival's query index. :func:`build_arrival_script` is that stream as
  a list, so a script built from ``(seed, rate, duration)`` *is* the
  workload :func:`~repro.sim.experiment.run_load_point` replays;
* :func:`replay` schedules arrivals one at a time, so a lazy stream is
  drawn as the run reaches it. :func:`run_scripted_point`,
  :func:`~repro.runtime.parity.run_scripted_live` (the FakeClock node)
  and :func:`~repro.sim.cluster.run_cluster_point` all replay through it.

The wall-clock counterpart is :mod:`repro.runtime.loadgen` (paced TCP
replay of the same script); because every hosting consumes the identical
script, any divergence in their decision sequences is attributable to
the hosting, never the workload.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING, Any, Callable, Generator, Iterable, Iterator, List, NamedTuple,
    Optional, Sequence, Tuple, Union,
)

from repro.obs.spans import Tracer
from repro.policies.base import ParallelismPolicy
from repro.sim.arrivals import ArrivalProcess, PoissonArrivals
from repro.sim.engine import Simulator
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

if TYPE_CHECKING:
    from repro.sim.cluster import ClusterConfig

__all__ = [
    "ScriptedArrival",
    "arrival_stream",
    "arrival_times",
    "build_arrival_script",
    "replay",
    "run_scripted_point",
]


class ScriptedArrival(NamedTuple):
    """One pre-drawn arrival: when, which query, which traffic class."""

    time_s: float
    query_index: int
    query_class: Optional[str] = None


def arrival_times(
    config: Union[LoadPointConfig, "ClusterConfig"],
    arrivals: Optional[ArrivalProcess] = None,
) -> Iterator[Tuple[float, Optional[str]]]:
    """``(time_s, query_class)`` of each arrival, drawn lazily from
    ``arrivals`` (Poisson at ``config.rate`` on the ``arrivals`` child
    stream of ``config.seed`` unless given); the class is the process's
    ``last_class`` right after the draw. Stops when the process ends
    (an ``inf`` gap) or at the first arrival past ``config.duration``."""
    if arrivals is None:
        arrivals = PoissonArrivals(
            config.rate, RngFactory(config.seed).stream("arrivals")
        )
    draw, horizon_s, now = arrivals.next_interarrival, config.duration, 0.0
    while True:
        gap = draw()
        if math.isinf(gap) or now + gap > horizon_s:
            return
        now += gap
        yield now, arrivals.last_class


def arrival_stream(
    n_queries: int,
    config: LoadPointConfig,
    arrivals: Optional[ArrivalProcess] = None,
    query_sampler: Optional[Any] = None,
) -> Iterator[Tuple[float, int, Optional[str]]]:
    """:func:`arrival_times` as :class:`ScriptedArrival`-shaped plain
    tuples (no Python frame per row), each query index drawn from the
    ``sample`` child stream of ``config.seed``, or from
    ``query_sampler.sample(query_class)`` when one is given."""
    sample_rng = RngFactory(config.seed).stream("sample")
    for time_s, query_class in arrival_times(config, arrivals):
        if query_sampler is None:
            query_index = int(sample_rng.integers(n_queries))
        else:
            query_index = int(query_sampler.sample(query_class))
        yield time_s, query_index, query_class


def build_arrival_script(
    n_queries: int, config: LoadPointConfig
) -> List[ScriptedArrival]:
    """The workload ``run_load_point`` replays for ``config``, as a list."""
    require_int_in_range(n_queries, "n_queries", low=1)
    return [ScriptedArrival(*row) for row in arrival_stream(n_queries, config)]


def replay(
    scheduler: Simulator,
    submit: Callable[..., Any],
    arrivals: Iterable[Tuple[Any, ...]],
) -> None:
    """Replay ``arrivals``, rows ``(time_s, *args)`` in time order, onto
    ``scheduler``: each row, when it fires, calls ``submit(*args)`` and
    then schedules the next, so one arrival is pending at a time and
    what ``submit`` scheduled precedes the next arrival at equal times."""
    replayer = _replayer(scheduler.schedule_at, submit, arrivals)
    next(replayer)
    replayer.send(replayer.__next__)


def _replayer(
    schedule_at: Callable[..., None],
    submit: Callable[..., Any],
    arrivals: Iterable[Tuple[Any, ...]],
) -> Generator[None, Any, None]:
    # Each arrival's event resumes this generator through its own
    # __next__, which replay() sends in first, so an event carries no
    # arguments: the replay's state stays in this frame.
    resume = yield
    for arrival in arrivals:
        schedule_at(arrival[0], resume)
        yield
        submit(*arrival[1:])
    yield  # parked for good: returning would raise StopIteration in the scheduler


def run_scripted_point(
    oracle: ServiceOracle,
    policy: ParallelismPolicy,
    config: LoadPointConfig,
    script: Iterable[Tuple[float, int, Optional[str]]],
    controllers: Sequence[object] = (),
    tracer: Optional[Tracer] = None,
) -> Tuple[LoadPointSummary, IndexServerModel]:
    """Replay ``script`` (a list, or the lazy :func:`arrival_stream`
    ``run_load_point`` passes) through the virtual-time server, with
    ``controllers`` attached in order, and summarize. Returns
    ``(summary, server)``; the server is returned so callers can inspect
    post-run state (shed counters, class-shedding knobs toggled by
    controllers).
    """
    simulator, server = wire_load_point(oracle, policy, config, controllers, tracer)
    replay(simulator, server.submit, script)
    run_to_horizon(simulator, config.duration, server.busy)
    return summarize_load_point(server, config.rate, slo=config.slo), server
