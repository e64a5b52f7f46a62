"""The test-clock implementation of the kernel interfaces (the serving
clock is :class:`repro.runtime.serve.AsyncioScheduler`)."""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.engine import Simulator

__all__ = ["FakeClock"]


class FakeClock(Simulator):
    """The simulator's event heap under the verbs server tests use.

    One heap, not two: scheduling, the ``(time, seq)`` tie-break, the
    rejection of past times and the fire-at-the-boundary rule are all
    :class:`~repro.sim.engine.Simulator`'s (see :meth:`Simulator.run`).
    What this adds is the manual-drive vocabulary — advance to a time
    or by a delta and learn how many callbacks fired, drain under an
    event bound, peek at the next fire time — which is what lets
    asyncio server tests execute entire query lifecycles without one
    real sleep.

    Determinism contract: time is a
    :class:`~repro.core.clock.VirtualClock` that only moves when the
    test says so, by amounts the test chose. Nothing here reads the
    wall clock, the environment, or any RNG.
    """

    def __init__(self, start_s: float = 0.0) -> None:
        super().__init__()
        self.clock.advance_to(start_s)

    @property
    def pending(self) -> int:
        """Number of callbacks scheduled but not yet fired."""
        return self.pending_events

    def next_event_s(self) -> Optional[float]:
        """Fire time of the earliest pending callback (None if idle)."""
        return self._heap[0][0] if self._heap else None

    def advance_to(self, time_s: float) -> int:
        """``run(until_s=time_s)``; returns the number of callbacks fired."""
        before = self.processed_events
        self.run(until_s=time_s)
        return self.processed_events - before

    def advance_by(self, delta_s: float) -> int:
        """Advance by ``delta_s`` fake seconds (see :meth:`advance_to`)."""
        if delta_s < 0:
            raise SimulationError(f"delta must be >= 0, got {delta_s}")
        return self.advance_to(self.now + delta_s)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Step until no callbacks remain (callbacks may schedule more;
        ``max_events`` bounds runaway reschedule loops). Returns the
        number of callbacks fired."""
        fired = 0
        while self.pending_events:
            if fired >= max_events:
                raise SimulationError(
                    f"FakeClock.drain exceeded {max_events} events"
                )
            self.step()
            fired += 1
        return fired

    def __repr__(self) -> str:
        return f"FakeClock(now={self.now:.6f}, pending={self.pending_events})"
