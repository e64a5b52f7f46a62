"""Unit tests for the pure scheduling-kernel decisions (repro.core.scheduling).

Each function is a deterministic map from explicit arguments to a value
— no clock reads, no I/O, no mutation (``tests/test_source_rules.py``
enforces the contract; these tests pin the decision semantics the
simulator driver relies on).
"""

import pytest

from repro.core.scheduling import (
    PhasePlan,
    admission_decision,
    deadline_exceeded,
    grant_degree,
    observe_state,
    plan_escalation,
    plan_initial_phase,
)


class TestAdmissionDecision:
    def test_admits_by_default(self):
        assert admission_decision(None, None, 0, None) is None
        assert admission_decision("head", None, 3, 10) is None

    def test_class_shedding_wins_over_admission(self):
        # A degraded class is reported as "class" even when the queue is
        # also at the cap — the anomaly guard's accounting depends on it.
        assert admission_decision("tail", {"tail"}, 10, 10) == "class"

    def test_queue_cap(self):
        assert admission_decision("head", set(), 10, 10) == "admission"
        assert admission_decision("head", set(), 9, 10) is None

    def test_unclassified_query_never_class_shed(self):
        assert admission_decision(None, {"tail"}, 0, None) is None


class TestDeadlineExceeded:
    def test_disabled_without_deadline(self):
        assert not deadline_exceeded(100.0, 0.0, None, 5.0)

    def test_wait_alone_exceeds(self):
        assert deadline_exceeded(2.0, 0.0, 2.0, 0.0)

    def test_wait_plus_expected_exceeds(self):
        assert deadline_exceeded(1.5, 0.0, 2.0, 1.0)
        assert not deadline_exceeded(0.5, 0.0, 2.0, 1.0)

    def test_negative_prediction_degrades_to_wait_only(self):
        assert not deadline_exceeded(1.0, 0.0, 2.0, -5.0)
        assert deadline_exceeded(2.5, 0.0, 2.0, -5.0)


class TestObserveState:
    def test_snapshot_fields(self):
        state = observe_state(
            now=3.0, n_queued=2, n_running=1, free_cores=5, n_cores=8,
            n_shed=0, shed_this_cycle=False, max_queue_length=4,
        )
        assert state.now == pytest.approx(3.0)
        assert state.n_queued == 2
        assert not state.overloaded

    def test_overloaded_when_cycle_shed(self):
        state = observe_state(
            now=0.0, n_queued=0, n_running=0, free_cores=8, n_cores=8,
            n_shed=1, shed_this_cycle=True, max_queue_length=None,
        )
        assert state.overloaded

    def test_overloaded_at_queue_cap(self):
        state = observe_state(
            now=0.0, n_queued=4, n_running=0, free_cores=8, n_cores=8,
            n_shed=0, shed_this_cycle=False, max_queue_length=4,
        )
        assert state.overloaded


class TestGrantDegree:
    def test_clamped_to_free_cores(self):
        assert grant_degree(8, 3, lambda d: d) == 3

    def test_clamped_to_plan_limit(self):
        assert grant_degree(8, 8, lambda d: d, plan_limit=2) == 2

    def test_never_below_one(self):
        assert grant_degree(4, 0, lambda d: d) == 1

    def test_degree_grid_applies_last(self):
        # The oracle snaps to its measured grid after the caps.
        grid = lambda d: max(g for g in (1, 2, 4, 8) if g <= d)
        assert grant_degree(8, 7, grid) == 4


class TestPlanInitialPhase:
    def test_gang_runs_at_granted_degree(self):
        plan = plan_initial_phase(
            granted=4, probe=None, t1=8.0,
            parallel_latency=lambda d: 8.0 / d, slowdown=1.0,
        )
        assert plan == PhasePlan(degree=4, duration=2.0, kind="gang")

    def test_short_query_never_probes(self):
        plan = plan_initial_phase(
            granted=4, probe=5.0, t1=2.0,
            parallel_latency=lambda d: 2.0 / d, slowdown=1.0,
        )
        assert plan.kind == "gang"
        assert plan.degree == 1
        assert plan.duration == pytest.approx(2.0)

    def test_long_query_probes_with_escalation_plan(self):
        plan = plan_initial_phase(
            granted=4, probe=1.0, t1=8.0,
            parallel_latency=lambda d: 8.0 / d, slowdown=1.0,
        )
        assert plan.kind == "probe"
        assert plan.degree == 1
        assert plan.duration == pytest.approx(1.0)
        assert plan.escalation_degree == 4
        assert plan.probe_time == pytest.approx(1.0)

    def test_slowdown_scales_duration(self):
        plan = plan_initial_phase(
            granted=2, probe=None, t1=4.0,
            parallel_latency=lambda d: 4.0 / d, slowdown=1.5,
        )
        assert plan.duration == pytest.approx(3.0)


class TestPlanEscalation:
    def test_widens_to_free_cores(self):
        plan = plan_escalation(
            target=4, probe=2.0, t1=8.0, free_cores=4,
            clamp_degree=lambda d: d,
            parallel_latency=lambda d: 8.0 / d, slowdown=1.0,
        )
        assert plan.kind == "escalated"
        assert plan.degree == 4
        # 3/4 of the work remains; it parallelizes like the whole query.
        assert plan.duration == pytest.approx(1.5)

    def test_no_free_cores_continues_sequentially(self):
        plan = plan_escalation(
            target=4, probe=2.0, t1=8.0, free_cores=0,
            clamp_degree=lambda d: d,
            parallel_latency=lambda d: 8.0 / d, slowdown=1.0,
        )
        assert plan.degree == 1
        assert plan.duration == pytest.approx(6.0)

    def test_probe_overrun_never_negative(self):
        plan = plan_escalation(
            target=2, probe=9.0, t1=8.0, free_cores=2,
            clamp_degree=lambda d: d,
            parallel_latency=lambda d: 8.0 / d, slowdown=1.0,
        )
        assert plan.duration == pytest.approx(0.0)
