"""Tests for the runtime clock: FakeClock (the simulator's heap under
manual-drive verbs)."""

import pytest

from conftest import EventHeapContract
from repro.core.clock import ClockProtocol, SchedulerProtocol
from repro.errors import SimulationError
from repro.runtime.clock import FakeClock


class TestProtocolConformance:
    def test_fake_clock_is_a_scheduler(self):
        clock = FakeClock()
        assert isinstance(clock, ClockProtocol)
        assert isinstance(clock, SchedulerProtocol)

class TestFakeClockScheduling(EventHeapContract):
    """The shared heap contract through FakeClock's verbs, then the
    verbs only FakeClock has."""

    make = FakeClock

    @staticmethod
    def run_until(clock, time_s):
        clock.advance_to(time_s)

    @staticmethod
    def drain(clock):
        clock.drain()

    def test_starts_at_zero_and_idle(self):
        clock = FakeClock()
        assert clock.now == 0.0
        assert clock.pending == 0
        assert clock.next_event_s() is None

    def test_advance_by_and_counts(self):
        clock = FakeClock(start_s=5.0)
        clock.schedule(1.0, lambda: None)
        clock.schedule(4.0, lambda: None)
        assert clock.advance_by(2.0) == 1
        assert clock.now == 7.0
        assert clock.pending == 1
        assert clock.next_event_s() == pytest.approx(9.0)

    def test_schedule_at_absolute(self):
        clock = FakeClock()
        fired = []
        clock.schedule_at(3.0, lambda: fired.append(clock.now))
        clock.drain()
        assert fired == [3.0]
        assert clock.now == 3.0


class TestFakeClockErrors:
    def test_schedule_at_past_rejected(self):
        clock = FakeClock(start_s=10.0)
        with pytest.raises(SimulationError):
            clock.schedule_at(9.0, lambda: None)

    def test_advance_backwards_rejected(self):
        clock = FakeClock(start_s=2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_negative_advance_by_rejected(self):
        with pytest.raises(SimulationError):
            FakeClock().advance_by(-1.0)

    def test_drain_bounds_runaway_reschedule(self):
        clock = FakeClock()

        def reschedule():
            clock.schedule(1.0, reschedule)

        clock.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            clock.drain(max_events=100)

    def test_drain_returns_total_fired(self):
        clock = FakeClock()
        for i in range(5):
            clock.schedule(float(i), lambda: None)
        assert clock.drain() == 5
        assert clock.pending == 0
