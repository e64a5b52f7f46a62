"""Tests for the AdaptiveSearchSystem facade, capacity, and threshold scaling."""

import math
from types import SimpleNamespace

import pytest

from repro.core.capacity import capacity_at_slo
from repro.core.controller import LONG_QUERY_CUTOFF_PERCENTILE, SystemConfig
from repro.errors import ConfigurationError
from repro.policies.adaptive import AdaptivePolicy, ThresholdTable
from repro.policies.derivation import scale_table
from repro.policies.fixed import FixedPolicy, SequentialPolicy
from repro.policies.incremental import IncrementalPolicy
from repro.policies.oracle import OraclePolicy
from repro.policies.predictive import PredictivePolicy


class TestSystemConstruction:
    def test_profile_and_thresholds_built(self, small_system):
        assert small_system.profile.degrees == (1, 2, 4, 8)
        assert small_system.threshold_table.max_degree >= 2

    def test_saturation_rate_consistent(self, small_system):
        expected = small_system.n_cores / small_system.oracle.mean_sequential_latency()
        assert small_system.saturation_rate == pytest.approx(expected)

    def test_rate_for_utilization(self, small_system):
        assert small_system.rate_for_utilization(0.5) == pytest.approx(
            0.5 * small_system.saturation_rate
        )
        with pytest.raises(Exception):
            small_system.rate_for_utilization(0.0)

    def test_predictor_annotations_attached(self, small_system):
        assert small_system.oracle.predicted is not None
        assert small_system.oracle.predicted.shape[0] == (
            small_system.cost_table.n_queries
        )

    def test_cutoffs_are_percentiles(self, small_system):
        dist = small_system.service_distribution
        assert small_system.long_query_cutoff == pytest.approx(
            dist.percentile(LONG_QUERY_CUTOFF_PERCENTILE)
        )

    def test_bad_config_rejected(self):
        with pytest.raises(Exception):
            SystemConfig(n_queries=5)
        with pytest.raises(Exception):
            SystemConfig(degrees=(2, 4))


class TestPolicyFactory:
    def test_all_names_constructible(self, small_system):
        expected_types = {
            "sequential": SequentialPolicy,
            "fixed-4": FixedPolicy,
            "adaptive": AdaptivePolicy,
            "oracle": OraclePolicy,
            "predictive": PredictivePolicy,
            "incremental": IncrementalPolicy,
        }
        for name, cls in expected_types.items():
            assert isinstance(small_system.policy(name), cls)

    def test_unknown_name_rejected(self, small_system):
        with pytest.raises(ConfigurationError):
            small_system.policy("magic")
        with pytest.raises(ConfigurationError):
            small_system.policy("fixed-x")


class TestSweep:
    def test_sweep_aligned_and_labeled(self, small_system):
        comparison = small_system.sweep(
            ["sequential", "adaptive"], [0.1, 0.4], duration=2.0, warmup=0.5
        )
        assert set(comparison.summaries) == {"sequential", "adaptive"}
        assert len(comparison.rates) == 2
        for rows in comparison.summaries.values():
            assert len(rows) == 2

    def test_adaptive_beats_sequential_at_low_load(self, small_system):
        comparison = small_system.sweep(
            ["sequential", "adaptive"], [0.1], duration=3.0, warmup=0.5
        )
        assert (
            comparison.p99("adaptive")[0] < comparison.p99("sequential")[0]
        )

    def test_run_point_summary(self, small_system):
        summary = small_system.run_point(
            "sequential", small_system.rate_for_utilization(0.2),
            duration=2.0, warmup=0.5,
        )
        assert summary.policy == "sequential"
        assert summary.observed > 0


class TestCapacity:
    def test_capacity_ordering(self, small_system):
        slo = 3.0 * small_system.service_distribution.percentile(99)
        sequential = capacity_at_slo(
            small_system, "sequential", slo, duration=2.0, warmup=0.5,
        )
        fixed8 = capacity_at_slo(
            small_system, "fixed-8", slo, duration=2.0, warmup=0.5,
        )
        assert sequential.capacity_qps > fixed8.capacity_qps > 0

    def test_unattainable_slo_gives_zero(self, small_system):
        tiny_slo = small_system.service_distribution.percentile(1) / 100
        outcome = capacity_at_slo(
            small_system, "sequential", tiny_slo, duration=1.0, warmup=0.2,
        )
        assert outcome.capacity_qps == 0.0

    def test_nan_p99_is_a_violation_at_every_probe(self):
        # MetricsCollector reports a NaN P99 when no query completes in
        # the window; no probe may count that as meeting the SLO.
        class NoCompletions:
            def rate_for_utilization(self, utilization):
                return 1000.0 * utilization

            def run_point(self, policy_name, rate, **kwargs):
                return SimpleNamespace(p99_latency=math.nan)

        outcome = capacity_at_slo(NoCompletions(), "sequential", slo=1.0)
        assert outcome.capacity_utilization == 0.0
        assert outcome.capacity_qps == 0.0
        assert len(outcome.evaluated_points) == 1


class TestCalibration:
    def test_scale_table_preserves_validity(self, small_system):
        for factor in (0.5, 1.0, 2.3):
            scaled = scale_table(small_system.threshold_table, factor)
            assert scaled.max_degree == small_system.threshold_table.max_degree

    def test_scale_table_shifts_limits(self):
        table = ThresholdTable.from_pairs([(2, 8), (4, 4), (8, 2)])
        doubled = scale_table(table, 2.0)
        assert doubled.entries == ((4, 8), (8, 4), (16, 2))

    def test_scale_handles_collisions(self):
        table = ThresholdTable.from_pairs([(1, 8), (2, 4), (3, 2)])
        shrunk = scale_table(table, 0.1)
        limits = [limit for limit, _ in shrunk.entries]
        assert limits == sorted(set(limits))
