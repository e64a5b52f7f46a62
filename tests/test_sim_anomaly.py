"""Anomaly detection, SLA validation, and the degradation ladder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.policies.adaptive import ThresholdTable
from repro.policies.online import OnlineAdaptivePolicy
from repro.sim.anomaly import (
    AnomalyGuard,
    AnomalyGuardConfig,
    DegradationLevel,
    EwmaCusumDetector,
    SlaValidator,
)


# ----------------------------------------------------------------------
# Detector
# ----------------------------------------------------------------------


class TestEwmaCusumDetector:
    def test_constant_signal_never_alarms(self):
        det = EwmaCusumDetector(alpha=0.3)
        assert not any(det.update(100.0) for _ in range(200))

    def test_small_noise_never_alarms(self):
        det = EwmaCusumDetector(alpha=0.3)
        rng = np.random.default_rng(5)
        values = 100.0 + rng.normal(0.0, 1.0, size=300)
        assert not any(det.update(float(v)) for v in values)

    def test_step_change_alarms_quickly(self):
        det = EwmaCusumDetector(alpha=0.3)
        rng = np.random.default_rng(5)
        for v in 100.0 + rng.normal(0.0, 1.0, size=50):
            det.update(float(v))
        alarmed_at = None
        for i in range(10):
            if det.update(150.0):
                alarmed_at = i
                break
        assert alarmed_at is not None and alarmed_at <= 3

    def test_statistic_clamped_so_alarm_can_clear(self):
        det = EwmaCusumDetector(alpha=0.3)
        rng = np.random.default_rng(5)
        baseline = 100.0 + rng.normal(0.0, 1.0, size=50)
        for v in baseline:
            det.update(float(v))
        for _ in range(30):  # sustained huge shift
            det.update(1000.0)
        assert det.statistic <= 2.0 * det.h
        # Signal returns to baseline: alarm clears within ~h/k windows.
        cleared_at = None
        for i in range(int(2 * det.h / det.k) + 2):
            if not det.update(float(det.mean)):
                cleared_at = i
                break
        assert cleared_at is not None

    def test_baseline_frozen_while_alarming(self):
        det = EwmaCusumDetector(alpha=0.3, k=0.5, h=2.0)
        rng = np.random.default_rng(5)
        for v in 100.0 + rng.normal(0.0, 1.0, size=50):
            det.update(float(v))
        mean_before = det.mean
        for _ in range(20):
            det.update(500.0)
        # A sustained attack must not be absorbed into "normal".
        assert det.mean == pytest.approx(mean_before, rel=0.05)

    def test_reset_clears_statistic_only(self):
        det = EwmaCusumDetector(alpha=0.3, k=0.5, h=2.0)
        for v in (10.0, 10.0, 11.0) * 3 + (50.0, 50.0, 50.0):
            det.update(v)
        assert det.statistic > 0.0
        mean_before = det.mean
        det.reset()
        assert det.statistic == 0.0
        assert det.mean == mean_before

    def test_nonfinite_observations_ignored(self):
        det = EwmaCusumDetector(alpha=0.3, k=0.5, h=2.0)
        det.update(10.0)
        assert not det.update(float("nan"))
        assert det.mean == 10.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EwmaCusumDetector(alpha=0.0)
        with pytest.raises(ConfigurationError):
            EwmaCusumDetector(alpha=0.3, k=-1.0)
        with pytest.raises(ConfigurationError):
            EwmaCusumDetector(alpha=0.3, h=0.0)


# ----------------------------------------------------------------------
# SLA validation
# ----------------------------------------------------------------------


class TestSlaValidator:
    def test_empty_window_passes(self):
        assert SlaValidator(1.0, 0.05).check(np.array([]), 0)

    def test_sheds_count_as_misses(self):
        validator = SlaValidator(1.0, 0.05)
        fast = np.full(90, 0.5)
        assert validator.check(fast, n_shed=4)  # 4/94 < 5%
        assert not validator.check(fast, n_shed=10)  # 10/100 > 5%

    def test_epsilon_boundary_inclusive(self):
        validator = SlaValidator(1.0, 0.05)
        latencies = np.array([0.5] * 95 + [2.0] * 5)
        assert validator.check(latencies, 0)  # exactly 5% misses

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlaValidator(0.0, 0.05)
        with pytest.raises(ConfigurationError):
            SlaValidator(1.0, 1.0)


# ----------------------------------------------------------------------
# Guard config validation
# ----------------------------------------------------------------------


class TestAnomalyGuardConfig:
    def test_rejects_bad_values(self):
        good = dict(slo_s=1.0, window_s=0.5)
        with pytest.raises(ConfigurationError, match="slo_s"):
            AnomalyGuardConfig(slo_s=-1.0, window_s=0.5)
        with pytest.raises(ConfigurationError, match="window_s"):
            AnomalyGuardConfig(slo_s=1.0, window_s=0.0)
        with pytest.raises(ConfigurationError, match="sla_epsilon"):
            AnomalyGuardConfig(**good, sla_epsilon=1.0)
        with pytest.raises(ConfigurationError, match="degraded_degree_cap"):
            AnomalyGuardConfig(**good, degraded_degree_cap=0)
        with pytest.raises(ConfigurationError, match="recovery_windows"):
            AnomalyGuardConfig(**good, recovery_windows=0)
        with pytest.raises(ConfigurationError, match="shed_classes"):
            AnomalyGuardConfig(**good, shed_classes=("",))


# ----------------------------------------------------------------------
# The degradation ladder, driven window by window
# ----------------------------------------------------------------------


class _FakeSimulator:
    def __init__(self):
        self.now = 0.0
        self._pending = []

    def schedule(self, delay_s, fn):
        self._pending.append((self.now + delay_s, fn))

    def step(self):
        when, fn = self._pending.pop(0)
        self.now = when
        fn()


class _FakeCollector:
    def __init__(self):
        self.n_arrivals = 0
        self._latencies = []
        self.n_shed = 0

    def latencies(self, since=0):
        return np.asarray(self._latencies[since:], dtype=np.float64)

    def add_window(self, n_arrivals, latencies, n_shed=0):
        self.n_arrivals += n_arrivals
        self._latencies.extend(float(v) for v in latencies)
        self.n_shed += n_shed


class _FakeServer:
    def __init__(self, max_queue_length=100):
        self.max_queue_length = max_queue_length
        self.shed_classes = None


def _make_guard(**overrides):
    config = AnomalyGuardConfig(
        slo_s=1.0,
        window_s=1.0,
        sla_epsilon=0.05,
        degraded_degree_cap=2,
        shedding_queue_cap=8,
        shed_classes=("slow_query_flood",),
        recovery_windows=2,
        **overrides,
    )
    policy = OnlineAdaptivePolicy(
        ThresholdTable.from_pairs([(2, 8), (4, 4), (8, 2)])
    )
    guard = AnomalyGuard(config, policy=policy)
    simulator = _FakeSimulator()
    collector = _FakeCollector()
    server = _FakeServer()
    guard.attach(simulator, server, collector, horizon_s=1000.0)
    return guard, simulator, collector, server, policy


CALM = dict(n_arrivals=100, latencies=[0.3] * 40)
ATTACK = dict(n_arrivals=400, latencies=[0.3] * 10 + [5.0] * 30, n_shed=20)
# Anomalous rate but the SLA holds (an absorbed surge).
SURGE = dict(n_arrivals=400, latencies=[0.3] * 40)
# SLA misses without any rate/P99 anomaly growth is impossible to fake
# via latencies (the P99 detector would see it), so use sheds alone on
# an otherwise calm window: plain overload, no anomaly.
OVERLOAD = dict(n_arrivals=100, latencies=[0.3] * 40, n_shed=10)


def _drive(guard, simulator, collector, windows):
    for window in windows:
        collector.add_window(**window)
        simulator.step()


class TestAnomalyGuardLadder:
    def test_calm_traffic_never_degrades(self):
        guard, sim, coll, server, policy = _make_guard()
        _drive(guard, sim, coll, [CALM] * 30)
        assert guard.level == DegradationLevel.NORMAL
        assert guard.transitions == []
        assert server.shed_classes is None

    def test_absorbed_surge_does_not_escalate(self):
        guard, sim, coll, server, _ = _make_guard()
        _drive(guard, sim, coll, [CALM] * 10 + [SURGE] * 6)
        assert guard.level == DegradationLevel.NORMAL

    def test_plain_overload_without_anomaly_holds(self):
        guard, sim, coll, server, _ = _make_guard()
        _drive(guard, sim, coll, [CALM] * 10 + [OVERLOAD] * 6)
        assert guard.level == DegradationLevel.NORMAL

    def test_attack_climbs_one_rung_per_window_and_actuates(self):
        guard, sim, coll, server, policy = _make_guard()
        baseline_cap = policy.max_degree_cap
        _drive(guard, sim, coll, [CALM] * 10)
        _drive(guard, sim, coll, [ATTACK])
        assert guard.level == DegradationLevel.DEGRADED
        assert policy.max_degree_cap == 2
        assert server.shed_classes is None  # not yet shedding
        _drive(guard, sim, coll, [ATTACK])
        assert guard.level == DegradationLevel.SHEDDING
        assert server.max_queue_length == 8
        assert server.shed_classes == frozenset({"slow_query_flood"})
        # Stays at the top rung under continued attack.
        _drive(guard, sim, coll, [ATTACK] * 3)
        assert guard.level == DegradationLevel.SHEDDING
        assert baseline_cap > 2

    def test_recovery_deescalates_and_reverts_knobs(self):
        guard, sim, coll, server, policy = _make_guard()
        baseline_queue_cap = server.max_queue_length
        baseline_degree_cap = policy.max_degree_cap
        _drive(guard, sim, coll, [CALM] * 10 + [ATTACK] * 4)
        assert guard.level == DegradationLevel.SHEDDING
        # Enough clean windows to clear the clamped CUSUM and earn two
        # recovery credits per rung.
        _drive(guard, sim, coll, [CALM] * 20)
        assert guard.level == DegradationLevel.NORMAL
        assert server.max_queue_length == baseline_queue_cap
        assert server.shed_classes is None
        assert policy.max_degree_cap == baseline_degree_cap
        levels = [level for _, level in guard.transitions]
        assert levels == [
            DegradationLevel.DEGRADED,
            DegradationLevel.SHEDDING,
            DegradationLevel.DEGRADED,
            DegradationLevel.NORMAL,
        ]

    def test_transitions_are_timestamped_in_order(self):
        guard, sim, coll, server, _ = _make_guard()
        _drive(guard, sim, coll, [CALM] * 10 + [ATTACK] * 4 + [CALM] * 20)
        times = [when for when, _ in guard.transitions]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_guard_without_policy_still_sheds(self):
        config = AnomalyGuardConfig(
            slo_s=1.0, window_s=1.0,
            shedding_queue_cap=8, shed_classes=("slow_query_flood",),
        )
        guard = AnomalyGuard(config)  # no policy to cap
        sim, coll, server = _FakeSimulator(), _FakeCollector(), _FakeServer()
        guard.attach(sim, server, coll, horizon_s=1000.0)
        _drive(guard, sim, coll, [CALM] * 10 + [ATTACK] * 2)
        assert guard.level == DegradationLevel.SHEDDING
        assert server.shed_classes == frozenset({"slow_query_flood"})

    def test_rate_signal_is_arrivals_per_second(self):
        # The CUSUM standardises its input, so a constant factor on the
        # rate cancels out of every ladder test above (and of the e20
        # golden); a window that is not one second long pins the unit.
        guard = AnomalyGuard(AnomalyGuardConfig(slo_s=1.0, window_s=0.25))
        sim, coll, server = _FakeSimulator(), _FakeCollector(), _FakeServer()
        guard.attach(sim, server, coll, horizon_s=1000.0)
        _drive(guard, sim, coll, [CALM] * 12)
        assert guard.rate_detector.mean == pytest.approx(100 / 0.25)
