"""Tests for the fault-injection schedules (repro.sim.faults)."""

import pytest

from repro.errors import FaultInjectionError
from repro.sim.faults import (
    CRASH,
    ClusterFaultPlan,
    FaultSchedule,
    FaultWindow,
)


class TestFaultWindow:
    def test_slowdown_window(self):
        window = FaultWindow(1.0, 2.0, 3.0)
        assert not window.is_crash

    def test_crash_window(self):
        assert FaultWindow(0.0, 1.0).is_crash
        assert FaultWindow(0.0, 1.0, CRASH).is_crash

    def test_invalid_bounds_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultWindow(2.0, 1.0, 2.0)
        with pytest.raises(FaultInjectionError):
            FaultWindow(-1.0, 1.0, 2.0)
        with pytest.raises(FaultInjectionError):
            FaultWindow(0.0, 1.0, 0.0)
        with pytest.raises(FaultInjectionError):
            FaultWindow(0.0, 1.0, -2.0)


class TestFaultSchedule:
    def test_multiplier_lookup(self):
        schedule = FaultSchedule.slowdown(1.0, 2.0, 4.0)
        assert schedule.multiplier_at(0.5) == 1.0
        assert schedule.multiplier_at(1.0) == 4.0
        assert schedule.multiplier_at(1.999) == 4.0
        assert schedule.multiplier_at(2.0) == 1.0  # end-exclusive
        assert not schedule.crashed_at(1.5)

    def test_crash_lookup(self):
        schedule = FaultSchedule.crash(1.0, 2.0)
        assert schedule.crashed_at(1.5)
        assert not schedule.crashed_at(2.0)
        # A crashed machine is not "slow"; it is gone.
        assert schedule.multiplier_at(1.5) == 1.0

    def test_windows_sorted_and_disjoint(self):
        schedule = FaultSchedule(
            [FaultWindow(3.0, 4.0, 2.0), FaultWindow(1.0, 2.0, 5.0)]
        )
        assert [w.start for w in schedule.windows] == [1.0, 3.0]
        assert schedule.multiplier_at(3.5) == 2.0

    def test_overlap_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule([FaultWindow(0.0, 2.0, 2.0), FaultWindow(1.0, 3.0, 2.0)])

    def test_abutting_windows_allowed(self):
        schedule = FaultSchedule(
            [FaultWindow(0.0, 1.0, 2.0), FaultWindow(1.0, 2.0, 3.0)]
        )
        assert schedule.multiplier_at(0.5) == 2.0
        assert schedule.multiplier_at(1.0) == 3.0

    def test_empty_schedule_is_healthy(self):
        schedule = FaultSchedule()
        assert not schedule.has_faults
        assert schedule.multiplier_at(10.0) == 1.0
        assert not schedule.crashed_at(10.0)


class TestClusterFaultPlan:
    def test_slow_shard_plan(self):
        plan = ClusterFaultPlan.slow_shard(2, 0.0, 5.0, 3.0)
        assert plan.schedule_for(2).multiplier_at(1.0) == 3.0
        assert plan.schedule_for(0) is None
        assert plan.has_faults

    def test_type_checked(self):
        with pytest.raises(FaultInjectionError):
            ClusterFaultPlan({0: [FaultWindow(0.0, 1.0, 2.0)]})
