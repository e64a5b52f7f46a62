"""Clock-agnostic time interfaces for the scheduling kernel.

The adaptive-parallelism kernel — policies, admission/deadline/degree
decisions — must run identically under the virtual-time simulator and a
wall-clock serving runtime. That equivalence is only real if the kernel
reads time through one narrow interface instead of reaching into
whichever driver happens to be running it. This module is that
interface:

* :class:`ClockProtocol` — anything with a monotone ``now`` (seconds).
* :class:`SchedulerProtocol` — a clock that can also run a callback
  after a delay; the simulator's event loop satisfies it structurally,
  and the live runtime's event-loop adapter will too.
* :class:`VirtualClock` — the kernel-owned virtual time source. The
  discrete-event simulator advances one as it pops events; tests drive
  one directly.

The wall-clock counterpart, :class:`repro.runtime.serve.AsyncioScheduler`,
lives in the ``runtime`` package: the kernel never imports wall-clock
code (``tests/test_source_rules.py`` enforces this), it only ever sees these protocols.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.errors import SimulationError

__all__ = [
    "ClockProtocol",
    "SchedulerProtocol",
    "VirtualClock",
]


@runtime_checkable
class ClockProtocol(Protocol):
    """A monotone time source, in seconds."""

    @property
    def now(self) -> float:  # pragma: no cover - protocol signature
        ...


@runtime_checkable
class SchedulerProtocol(Protocol):
    """A clock that can also run callbacks later (event-loop shaped).

    ``schedule`` runs ``callback(*args)`` after ``delay_s`` seconds of
    *this clock's* time — virtual seconds under the simulator, wall
    seconds under a live event loop. The kernel never cares which. The
    arguments travel with the callback, as with ``loop.call_later``, so
    a caller scheduling one event per query need not build a closure
    per query to bind them.
    """

    @property
    def now(self) -> float:  # pragma: no cover - protocol signature
        ...

    def schedule(
        self, delay_s: float, callback: Callable[..., Any], *args: Any
    ) -> None:  # pragma: no cover - protocol signature
        ...


class VirtualClock:
    """Manually advanced monotone clock.

    The simulator owns one and advances it to each event's timestamp;
    unit tests advance one by hand to exercise time-dependent kernel
    code without an event loop. Time never goes backwards — a driver
    that tried would silently corrupt every latency measurement built
    on this clock, so it raises instead.
    """

    __slots__ = ("_now_s",)

    def __init__(self) -> None:
        self._now_s = 0.0

    @property
    def now(self) -> float:
        return self._now_s

    def advance_to(self, time_s: float) -> None:
        """Jump to absolute ``time_s`` (must not move backwards)."""
        if time_s < self._now_s:
            raise SimulationError(
                f"clock cannot run backwards: {time_s} < now {self._now_s}"
            )
        self._now_s = float(time_s)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now_s:.6f})"
