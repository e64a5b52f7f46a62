"""Sim-vs-live parity: identical decision sequences, tolerance bands.

The headline of the live-serving tier: replaying one scripted workload
through the virtual-time simulator and through the live serving node on
a FakeClock must produce the *bit-identical* ordered sequence of kernel
decisions (admit / shed / degree_grant / escalate) — the two hostings
share the scheduling kernel, the policies, and the server model, and
differ only in who advances the clock.
"""

import pytest

from conftest import constant_table, summary_json
from repro.obs.spans import (
    EVENT_ADMIT,
    EVENT_DEGREE_GRANT,
    EVENT_ESCALATE,
    EVENT_SHED,
    RecordingTracer,
)
from repro.policies.adaptive import AdaptivePolicy, ThresholdTable
from repro.policies.fixed import FixedPolicy, SequentialPolicy
from repro.policies.incremental import IncrementalPolicy
from repro.policies.online import (
    OnlineAdaptivePolicy,
    OnlineControllerConfig,
    OnlineDegreeController,
)
from repro.runtime.parity import (
    DEFAULT_TOLERANCES,
    compare_decision_sequences,
    decision_events,
    run_scripted_live,
    tolerance_report,
)
from repro.sim.anomaly import AnomalyGuard, AnomalyGuardConfig
from repro.sim.experiment import LoadPointConfig
from repro.sim.oracle import ServiceOracle
from repro.sim.script import build_arrival_script, run_scripted_point


_TABLE = ThresholdTable.from_pairs([(2, 4), (5, 2), (12, 1)])


def _run_both(policy_factory, config, controllers_factory=None, oracle=None):
    """One script through both hostings; returns (events, comparison,
    sim_summary, live_summary)."""
    oracle = oracle if oracle is not None else ServiceOracle(constant_table())
    script = build_arrival_script(oracle.n_queries, config)
    assert script, "degenerate case: script must contain arrivals"

    sim_tracer = RecordingTracer()
    sim_controllers = controllers_factory() if controllers_factory else ()
    sim_summary, _ = run_scripted_point(
        oracle, policy_factory(), config, script,
        controllers=sim_controllers, tracer=sim_tracer,
    )

    live_tracer = RecordingTracer()
    live_controllers = controllers_factory() if controllers_factory else ()
    live_summary, _ = run_scripted_live(
        oracle, policy_factory(), config, script,
        controllers=live_controllers, tracer=live_tracer,
    )

    left = decision_events(sim_tracer.traces)
    right = decision_events(live_tracer.traces)
    comparison = compare_decision_sequences(left, right)
    return left, comparison, sim_summary, live_summary


class TestDecisionParity:
    @pytest.mark.parametrize("policy_factory", [
        SequentialPolicy,
        lambda: FixedPolicy(2),
        lambda: AdaptivePolicy(_TABLE),
    ], ids=["sequential", "fixed-2", "adaptive"])
    def test_identical_decisions_under_load(self, policy_factory):
        config = LoadPointConfig(rate=6.0, duration=8.0, warmup=1.0,
                                 n_cores=4, seed=11)
        events, comparison, sim_summary, live_summary = _run_both(
            policy_factory, config
        )
        assert comparison["identical"], comparison["first_divergence"]
        assert comparison["n_left"] == comparison["n_right"] > 0
        assert any(e[2] == EVENT_ADMIT for e in events)
        assert any(e[2] == EVENT_DEGREE_GRANT for e in events)
        assert summary_json(sim_summary) == summary_json(live_summary)

    def test_identical_shedding_under_overload(self):
        """Deadline sheds and admission-cap rejects must happen to the
        same queries at the same times in both hostings."""
        config = LoadPointConfig(
            rate=12.0, duration=8.0, warmup=1.0, n_cores=4, seed=5,
            deadline=1.5, max_queue_length=6,
        )
        events, comparison, sim_summary, live_summary = _run_both(
            lambda: FixedPolicy(2), config
        )
        assert comparison["identical"], comparison["first_divergence"]
        sheds = [e for e in events if e[2] == EVENT_SHED]
        assert sheds, "overload case must actually shed"
        assert sim_summary.n_shed == live_summary.n_shed > 0
        assert summary_json(sim_summary) == summary_json(live_summary)

    def test_identical_escalations_incremental_policy(self):
        config = LoadPointConfig(rate=3.0, duration=10.0, warmup=1.0,
                                 n_cores=4, seed=9)
        events, comparison, _, _ = _run_both(
            lambda: IncrementalPolicy(_TABLE, probe_time=0.3), config
        )
        assert comparison["identical"], comparison["first_divergence"]
        assert any(e[2] == EVENT_ESCALATE for e in events), (
            "1s queries must outlive a 0.3s probe and escalate"
        )

    def test_identical_with_online_controller_and_guard(self):
        """Online control loops mutate policy knobs mid-run; both
        hostings must see the same windowed signals and apply the same
        adjustments for decisions to stay identical."""
        def controllers():
            policy_holder.append(OnlineAdaptivePolicy(_TABLE))
            controller = OnlineDegreeController(
                policy_holder[-1],
                OnlineControllerConfig(target_p99_s=2.0, window_s=1.0),
            )
            guard = AnomalyGuard(
                AnomalyGuardConfig(slo_s=2.0, window_s=1.0),
                policy=policy_holder[-1],
            )
            return (controller, guard)

        policy_holder = []
        config = LoadPointConfig(
            rate=10.0, duration=8.0, warmup=1.0, n_cores=4, seed=13,
            deadline=2.5, max_queue_length=16,
        )
        oracle = ServiceOracle(constant_table())
        script = build_arrival_script(oracle.n_queries, config)

        sim_tracer = RecordingTracer()
        sim_controllers = controllers()
        sim_summary, _ = run_scripted_point(
            oracle, policy_holder[-1], config, script,
            controllers=sim_controllers, tracer=sim_tracer,
        )
        live_tracer = RecordingTracer()
        live_controllers = controllers()
        live_summary, _ = run_scripted_live(
            oracle, policy_holder[-1], config, script,
            controllers=live_controllers, tracer=live_tracer,
        )
        comparison = compare_decision_sequences(
            decision_events(sim_tracer.traces),
            decision_events(live_tracer.traces),
        )
        assert comparison["identical"], comparison["first_divergence"]
        assert summary_json(sim_summary) == summary_json(live_summary)

    def test_live_replay_deterministic_across_runs(self):
        config = LoadPointConfig(
            rate=10.0, duration=6.0, warmup=1.0, n_cores=4, seed=21,
            deadline=2.0, max_queue_length=8,
        )
        oracle = ServiceOracle(constant_table())
        script = build_arrival_script(oracle.n_queries, config)
        sequences = []
        for _ in range(3):
            tracer = RecordingTracer()
            run_scripted_live(
                oracle, FixedPolicy(2), config, script, tracer=tracer
            )
            sequences.append(decision_events(tracer.traces))
        assert sequences[0] == sequences[1] == sequences[2]
        assert len(sequences[0]) > 0


class TestCompareDecisionSequences:
    def test_identical(self):
        seq = [(0, 1, EVENT_ADMIT, 0.5, ())]
        result = compare_decision_sequences(seq, list(seq))
        assert result["identical"]
        assert result["first_divergence"] is None

    def test_value_divergence_reported(self):
        left = [(0, 1, EVENT_ADMIT, 0.5, ()), (1, 2, EVENT_SHED, 0.7, ())]
        right = [(0, 1, EVENT_ADMIT, 0.5, ()), (1, 2, EVENT_SHED, 0.8, ())]
        result = compare_decision_sequences(left, right)
        assert not result["identical"]
        assert result["first_divergence"]["index"] == 1
        assert result["first_divergence"]["left"][3] == 0.7

    def test_length_divergence_reported(self):
        left = [(0, 1, EVENT_ADMIT, 0.5, ())]
        result = compare_decision_sequences(left, left + left)
        assert not result["identical"]
        assert result["first_divergence"]["index"] == 1
        assert result["first_divergence"]["left"] is None


class TestToleranceReport:
    def _summary(self, **overrides):
        from repro.sim.experiment import LoadPointSummary

        values = dict(
            policy="fixed-2", rate=10.0, n_cores=4, offered_utilization=0.5,
            observed=100, throughput=10.0, utilization=0.5,
            mean_latency=0.1, p50_latency=0.09, p95_latency=0.2,
            p99_latency=0.3, mean_queue_delay=0.01, mean_degree=2.0,
        )
        values.update(overrides)
        return LoadPointSummary(**values)

    def test_within_bands(self):
        report = tolerance_report(
            self._summary(), self._summary(mean_latency=0.11)
        )
        assert report["ok"]
        assert report["metrics"]["mean_latency"]["ok"]
        assert report["metrics"]["mean_latency"]["kind"] == "relative"

    def test_out_of_band_latency_fails(self):
        report = tolerance_report(
            self._summary(), self._summary(mean_latency=0.2)
        )
        assert not report["ok"]
        entry = report["metrics"]["mean_latency"]
        assert not entry["ok"]
        assert entry["deviation"] == pytest.approx(1.0)

    def test_shed_rate_is_absolute(self):
        # 0.0 -> 0.05 is within the 0.10 absolute band even though the
        # relative deviation would be infinite.
        report = tolerance_report(
            self._summary(shed_rate=0.0), self._summary(shed_rate=0.05)
        )
        assert report["metrics"]["shed_rate"]["kind"] == "absolute"
        assert report["metrics"]["shed_rate"]["ok"]
        report = tolerance_report(
            self._summary(shed_rate=0.0), self._summary(shed_rate=0.2)
        )
        assert not report["metrics"]["shed_rate"]["ok"]

    def test_nan_on_both_sides_skipped(self):
        # goodput/slo_attainment default to NaN without an SLO; the
        # report must treat matching NaN as in-band, not a failure.
        report = tolerance_report(self._summary(), self._summary())
        entry = report["metrics"]["slo_attainment"]
        assert entry["kind"] == "skipped-nan"
        assert entry["ok"] and report["ok"]

    def test_custom_bands(self):
        report = tolerance_report(
            self._summary(), self._summary(throughput=10.4),
            tolerances={"throughput": 0.01},
        )
        assert not report["ok"]
        assert set(report["metrics"]) == {"throughput"}

    def test_default_bands_cover_headline_metrics(self):
        assert {"p50_latency", "p99_latency", "shed_rate",
                "throughput"} <= set(DEFAULT_TOLERANCES)
