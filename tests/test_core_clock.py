"""Tests for the clock-agnostic kernel interfaces (repro.core.clock).

The refactor's contract: the scheduling kernel sees time only through
``ClockProtocol``/``SchedulerProtocol``; the simulator satisfies them on
virtual time and ``AsyncioScheduler`` on wall time, interchangeably.
"""

import pytest

from repro.core.clock import ClockProtocol, SchedulerProtocol, VirtualClock
from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        clock.advance_to(1.5)
        assert clock.now == 1.5

    def test_rejects_backwards_advance(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        with pytest.raises(SimulationError):
            clock.advance_to(0.5)

    def test_advance_to_same_time_is_a_noop(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        clock.advance_to(1.0)
        assert clock.now == 1.0


class TestProtocolConformance:
    def test_virtual_clock_is_a_clock(self):
        assert isinstance(VirtualClock(), ClockProtocol)

    def test_simulator_is_a_scheduler(self):
        # The online controller attaches to any SchedulerProtocol; the
        # virtual-time simulator must satisfy it structurally.
        simulator = Simulator()
        assert isinstance(simulator, SchedulerProtocol)
        assert isinstance(simulator, ClockProtocol)

    def test_simulator_now_is_its_clock(self):
        simulator = Simulator()
        assert simulator.now == simulator.clock.now == 0.0


class TestSimulatorDrivesVirtualClock:
    def test_events_advance_the_clock(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, lambda: seen.append(simulator.now))
        simulator.schedule(2.5, lambda: seen.append(simulator.now))
        simulator.run(until_s=5.0)
        assert seen == [1.0, 2.5]
        assert simulator.now == 5.0
