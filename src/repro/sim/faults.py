"""Deterministic fault injection for the simulated ISN and cluster.

Real index-serving fleets degrade in two characteristic ways: a machine
goes *slow* (background compaction, co-located tenant, thermal
throttling — service times inflate by some factor for a while) or it
goes *away* (crash, network partition — requests in that window are
never answered and the node recovers later). Both matter to the
adaptive-parallelism story because the cluster tail is a max over
shards: one degraded shard is enough to move the aggregate P99.

This module expresses both as **precomputed schedules** so fault
runs are exactly reproducible: a :class:`FaultSchedule` is a list of
non-overlapping :class:`FaultWindow` intervals, each either a slowdown
(finite service-time multiplier > 0) or a crash (``CRASH`` sentinel).
The server consumes a schedule through two pure lookups —
:meth:`FaultSchedule.multiplier_at` scales a query's service time at
dispatch, and :meth:`FaultSchedule.crashed_at` sheds queries dispatched
inside a crash window (the aggregator sees the shed and degrades to a
partial answer rather than waiting forever).

:class:`ClusterFaultPlan` maps shard ids to schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import FaultInjectionError

#: Service-time multiplier meaning "the shard is down in this window".
CRASH = float("inf")


@dataclass(frozen=True)
class FaultWindow:
    """One fault interval: ``[start, end)`` with a service-time multiplier.

    A finite ``multiplier`` > 1 models a slow shard (1.0 is a no-op and
    < 1.0 a speedup, allowed for completeness); ``multiplier == CRASH``
    (infinity) models a crashed shard — queries dispatched inside the
    window are dropped, and the shard serves normally again at ``end``.
    """

    start: float
    end: float
    multiplier: float = CRASH

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise FaultInjectionError(
                f"need 0 <= start < end, got [{self.start}, {self.end})"
            )
        if not self.multiplier > 0:
            raise FaultInjectionError(
                f"multiplier must be > 0 (or CRASH), got {self.multiplier}"
            )

    @property
    def is_crash(self) -> bool:
        return self.multiplier == CRASH


class FaultSchedule:
    """Non-overlapping fault windows for one server, sorted by start."""

    def __init__(self, windows: Iterable[FaultWindow] = ()) -> None:
        ordered = sorted(windows, key=lambda w: w.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.end:
                raise FaultInjectionError(
                    f"fault windows overlap: [{earlier.start}, {earlier.end}) "
                    f"and [{later.start}, {later.end})"
                )
        self.windows: Tuple[FaultWindow, ...] = tuple(ordered)

    def _window_at(self, t: float) -> Optional[FaultWindow]:
        for window in self.windows:
            if window.start <= t < window.end:
                return window
            if window.start > t:
                break
        return None

    def multiplier_at(self, t: float) -> float:
        """Service-time multiplier in effect at time ``t`` (1.0 if healthy).

        Crash windows report 1.0 here: a crashed shard does not serve at
        all (see :meth:`crashed_at`), so no finite scaling applies.
        """
        window = self._window_at(t)
        if window is None or window.is_crash:
            return 1.0
        return window.multiplier

    def crashed_at(self, t: float) -> bool:
        """True if ``t`` falls inside a crash window."""
        window = self._window_at(t)
        return window is not None and window.is_crash

    @property
    def has_faults(self) -> bool:
        return bool(self.windows)

    @staticmethod
    def slowdown(start: float, end: float, multiplier: float) -> "FaultSchedule":
        """One slowdown interval — the common "one slow shard" case."""
        return FaultSchedule([FaultWindow(start, end, multiplier)])

    @staticmethod
    def crash(start: float, end: float) -> "FaultSchedule":
        """One crash/recovery interval."""
        return FaultSchedule([FaultWindow(start, end, CRASH)])

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self.windows)} windows)"


class ClusterFaultPlan:
    """Per-shard fault schedules for a cluster run.

    Shards absent from the mapping are healthy. Replica (hedge) servers
    are intentionally *not* covered by the plan: a replica is a
    different machine, and that fault independence is exactly what
    hedged requests exploit.
    """

    def __init__(self, schedules: Optional[Dict[int, FaultSchedule]] = None) -> None:
        self.schedules: Dict[int, FaultSchedule] = dict(schedules or {})
        for shard_id, schedule in self.schedules.items():
            if not isinstance(schedule, FaultSchedule):
                raise FaultInjectionError(
                    f"shard {shard_id}: expected FaultSchedule, "
                    f"got {type(schedule).__name__}"
                )

    def schedule_for(self, shard_id: int) -> Optional[FaultSchedule]:
        return self.schedules.get(shard_id)

    @property
    def has_faults(self) -> bool:
        return any(s.has_faults for s in self.schedules.values())

    @staticmethod
    def slow_shard(
        shard_id: int, start: float, end: float, multiplier: float
    ) -> "ClusterFaultPlan":
        return ClusterFaultPlan(
            {shard_id: FaultSchedule.slowdown(start, end, multiplier)}
        )

    def __repr__(self) -> str:
        return f"ClusterFaultPlan(shards={sorted(self.schedules)})"
