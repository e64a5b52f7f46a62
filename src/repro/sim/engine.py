"""Minimal discrete-event simulator core.

A binary-heap event loop with deterministic ordering: events at equal
times fire in scheduling order (a monotone sequence number breaks ties),
so simulations are exactly reproducible for a given seed. The only
event heap in the tree: :class:`repro.runtime.clock.FakeClock`, which
server tests advance by hand, is this class under other verbs.

An entry is ``(time, seq, callback, args)``: a caller hands over the
callback's arguments instead of a closure binding them, so the events
a load point schedules per query allocate no function objects.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.core.clock import VirtualClock
from repro.errors import SimulationError

EventCallback = Callable[..., None]


class Simulator:
    """Event loop with virtual time."""

    def __init__(self) -> None:
        # Virtual time lives in the kernel's clock type: the simulator
        # is "a driver that advances a VirtualClock", which is exactly
        # the shape the wall-clock runtime mirrors (see core/clock.py).
        self._clock = VirtualClock()
        self._sequence = 0
        self._heap: List[Tuple[float, int, EventCallback, Tuple[Any, ...]]] = []
        self._processed = 0

    @property
    def now(self) -> float:
        return self._clock.now

    @property
    def clock(self) -> VirtualClock:
        """The kernel clock this event loop advances."""
        return self._clock

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def processed_events(self) -> int:
        return self._processed

    def schedule_at(self, time_s: float, callback: EventCallback, *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute virtual ``time_s`` (seconds)."""
        if not math.isfinite(time_s):
            raise SimulationError(f"event time must be finite, got {time_s}")
        if time_s < self._clock.now:
            raise SimulationError(
                f"cannot schedule in the past: {time_s} < now {self._clock.now}"
            )
        heapq.heappush(self._heap, (time_s, self._sequence, callback, args))
        self._sequence += 1

    def schedule(self, delay_s: float, callback: EventCallback, *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay_s`` seconds of virtual time."""
        if delay_s < 0:
            raise SimulationError(f"delay must be >= 0, got {delay_s}")
        # schedule_at inlined (this is the per-phase call): a finite
        # non-negative delay cannot land in the past, so only a
        # non-finite one needs the check.
        time_s = self._clock.now + delay_s
        if not math.isfinite(time_s):
            raise SimulationError(f"event time must be finite, got {time_s}")
        heapq.heappush(self._heap, (time_s, self._sequence, callback, args))
        self._sequence += 1

    def step(self) -> bool:
        """Process one event; returns False if none remain."""
        if not self._heap:
            return False
        time_s, _, callback, args = heapq.heappop(self._heap)
        self._clock.advance_to(time_s)
        self._processed += 1
        callback(*args)
        return True

    def run(self, until_s: Optional[float] = None) -> None:
        """Run until the event queue drains or virtual time passes ``until_s``.

        Horizon-boundary semantics (pinned by regression tests):

        * events scheduled at exactly ``until_s`` DO fire, including
          ones that such events schedule at the same instant;
        * events strictly beyond the horizon remain queued;
        * ``now`` lands exactly on the horizon afterwards, even when no
          event was processed, so ``run(until_s=now)`` is a no-op and a
          later ``schedule_at(until_s, ...)`` is legal;
        * the horizon must be finite — ``nan`` would silently skip the
          queue and poison ``now`` (every later comparison is False),
          and ``inf`` would strand ``now`` where nothing can ever be
          scheduled again. Run with ``until_s=None`` to drain fully.
        """
        if until_s is None:
            while self.step():
                pass
            return
        if not math.isfinite(until_s):
            raise SimulationError(f"horizon must be finite, got {until_s}")
        if until_s < self._clock.now:
            raise SimulationError(
                f"horizon {until_s} is before now {self._clock.now}"
            )
        while self._heap and self._heap[0][0] <= until_s:
            self.step()
        self._clock.advance_to(until_s)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._clock.now:.6f}, pending={self.pending_events}, "
            f"processed={self._processed})"
        )
