"""Online-adaptive policy and its feedback controller.

Includes the stability property tests required by the robustness
milestone: bounded oscillation (the scale never leaves its clamps and
never moves more than one bounded step per window) and monotone
response to sustained load steps.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.spans import RecordingTracer
from repro.policies.adaptive import AdaptivePolicy, ThresholdTable
from repro.policies.base import QueryInfo, SystemState
from repro.policies.online import (
    ControlDecision,
    OnlineAdaptivePolicy,
    OnlineControllerConfig,
    OnlineDegreeController,
)
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector

from conftest import feed_window

TABLE = ThresholdTable.from_pairs([(2, 8), (4, 4), (8, 2)])


def _state(n_in_system, n_cores=8):
    return SystemState(
        now=0.0,
        n_queued=max(0, n_in_system - 1),
        n_running=0,
        free_cores=n_cores,
        n_cores=n_cores,
    )


# ----------------------------------------------------------------------
# Policy semantics
# ----------------------------------------------------------------------


class TestOnlineAdaptivePolicy:
    def test_scale_one_matches_offline_adaptive(self):
        online = OnlineAdaptivePolicy(TABLE)
        offline = AdaptivePolicy(TABLE)
        info = QueryInfo()
        for n in range(1, 30):
            assert online.choose_degree(_state(n), info) == (
                offline.choose_degree(_state(n), info)
            )

    def test_smaller_scale_never_raises_degree(self):
        info = QueryInfo()
        for scale in (0.75, 0.5, 0.25):
            tightened = OnlineAdaptivePolicy(TABLE)
            tightened.apply_control(scale=scale)
            reference = OnlineAdaptivePolicy(TABLE)
            for n in range(1, 30):
                assert tightened.choose_degree(_state(n), info) <= (
                    reference.choose_degree(_state(n), info)
                )

    def test_degree_cap_clamps(self):
        policy = OnlineAdaptivePolicy(TABLE)
        policy.apply_control(max_degree_cap=2)
        assert policy.choose_degree(_state(1), QueryInfo()) == 2

    def test_apply_control_validates(self):
        policy = OnlineAdaptivePolicy(TABLE)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                policy.apply_control(scale=bad)
        with pytest.raises(ConfigurationError):
            policy.apply_control(max_degree_cap=0)
        with pytest.raises(ConfigurationError):
            policy.apply_control(max_degree_cap=TABLE.max_degree + 1)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="step"):
            OnlineControllerConfig(target_p99_s=1.0, window_s=1.0, step=1.0)
        with pytest.raises(ConfigurationError, match="max_scale"):
            OnlineControllerConfig(
                target_p99_s=1.0, window_s=1.0, min_scale=1.0, max_scale=0.5
            )
        with pytest.raises(ConfigurationError, match="deadband"):
            OnlineControllerConfig(
                target_p99_s=1.0, window_s=1.0, deadband=1.0
            )

    def test_controller_requires_online_policy(self):
        config = OnlineControllerConfig(target_p99_s=1.0, window_s=1.0)
        with pytest.raises(ConfigurationError, match="OnlineAdaptivePolicy"):
            OnlineDegreeController(AdaptivePolicy(TABLE), config)


# ----------------------------------------------------------------------
# Controller harness: drive ticks from synthetic windows
# ----------------------------------------------------------------------

CONFIG = OnlineControllerConfig(
    target_p99_s=1.0,
    window_s=1.0,
    step=0.25,
    deadband=0.15,
    min_scale=0.25,
    max_scale=2.0,
    shed_rate_high=0.05,
    min_samples=8,
)


def _drive(windows, config=CONFIG, tracer=None):
    """Feed (latencies, n_shed) windows through a controller; return it."""
    policy = OnlineAdaptivePolicy(TABLE)
    controller = OnlineDegreeController(policy, config, tracer=tracer)
    horizon_s = 10 * len(windows) + 10
    simulator = Simulator()
    collector = MetricsCollector(warmup=0.0, horizon=horizon_s, n_cores=1)
    controller.attach(simulator, None, collector, horizon_s=horizon_s)
    for latencies, n_shed in windows:
        feed_window(collector, latencies=latencies, n_shed=n_shed)
        simulator.step()
    return controller


# A window is (latency list, shed count); latencies as multiples of the
# 1-second target.
window_strategy = st.tuples(
    st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=0,
        max_size=40,
    ),
    st.integers(min_value=0, max_value=20),
)


class TestControllerStability:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(window_strategy, min_size=1, max_size=40))
    def test_bounded_oscillation(self, windows):
        """For ANY feedback sequence: the scale stays inside its clamps
        and moves by at most one bounded multiplicative step per tick."""
        controller = _drive(windows)
        config = controller.config
        previous = 1.0
        for decision in controller.decisions:
            assert config.min_scale <= decision.scale <= config.max_scale
            low = previous * (1.0 - config.step) - 1e-12
            high = previous * (1.0 + config.step) + 1e-12
            assert (
                low <= decision.scale <= high
                or decision.scale in (config.min_scale, config.max_scale)
            )
            previous = decision.scale

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=20))
    def test_monotone_tighten_under_sustained_overload(self, n_windows):
        """P99 persistently above the deadband: scale never increases,
        and eventually pins at min_scale."""
        windows = [([5.0] * 20, 0)] * n_windows
        controller = _drive(windows)
        scales = [d.scale for d in controller.decisions]
        assert all(b <= a + 1e-12 for a, b in zip(scales, scales[1:]))
        assert all(d.action in ("tighten", "hold") for d in controller.decisions)
        if n_windows >= 6:
            assert scales[-1] == pytest.approx(CONFIG.min_scale)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=20))
    def test_monotone_relax_under_sustained_calm(self, n_windows):
        """P99 persistently below the deadband with no sheds: scale never
        decreases, and saturates at max_scale."""
        windows = [([0.1] * 20, 0)] * n_windows
        controller = _drive(windows)
        scales = [d.scale for d in controller.decisions]
        assert all(b >= a - 1e-12 for a, b in zip(scales, scales[1:]))
        if n_windows >= 6:
            assert scales[-1] == pytest.approx(CONFIG.max_scale)

    def test_deadband_holds(self):
        """P99 inside the hysteresis band: no adjustment at all."""
        controller = _drive([([1.0] * 20, 0)] * 10)
        assert all(d.action == "hold" for d in controller.decisions)
        assert controller.policy.scale == 1.0

    def test_sparse_windows_hold(self):
        """Fewer completions than min_samples and no sheds: the latency
        signal is not trusted and the knobs stay put."""
        controller = _drive([([5.0] * 3, 0)] * 10)
        assert all(d.action == "hold" for d in controller.decisions)

    def test_shed_rate_alone_tightens(self):
        """Deep overload shows up as sheds even when completions look
        fast (censored survivors): the shed-rate override tightens."""
        controller = _drive([([0.1] * 20, 10)] * 5)
        assert controller.decisions[0].action == "tighten"
        assert controller.policy.scale < 1.0

    def test_spread_window_steers_on_the_99th_percentile(self):
        """Latencies 1..100 ms against a 50 ms target: the 99th
        percentile (99 ms) is above the band, the 0.99th (2 ms) below
        it — only the tail may drive the decision."""
        config = OnlineControllerConfig(
            target_p99_s=0.050, window_s=1.0, deadband=0.15, min_samples=8
        )
        tracer = RecordingTracer()
        window = ([ms / 1000.0 for ms in range(1, 101)], 0)
        controller = _drive([window], config=config, tracer=tracer)
        (decision,) = controller.decisions
        assert decision.action == "tighten"
        assert decision.p99_s == pytest.approx(0.09901)
        (event,) = tracer.lifecycle_events
        assert event.name == "control.adjust"
        assert event.attrs["action"] == "tighten"
        assert event.attrs["p99_s"] == pytest.approx(0.09901)

    def test_decisions_record_window_accounting(self):
        controller = _drive([([0.5] * 10, 2), ([2.0] * 12, 0)])
        first, second = controller.decisions
        assert isinstance(first, ControlDecision)
        assert first.n_completed == 10 and first.n_shed == 2
        assert second.n_completed == 12 and second.n_shed == 0
        assert second.action == "tighten"
