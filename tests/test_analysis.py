"""Tests for the analysis subpackage."""

import pytest

from repro.analysis.compare import PolicyComparison, find_crossover
from repro.analysis.queueing_theory import (
    erlang_c,
    littles_law_gap,
    mmc_mean_queue_delay,
)
from repro.errors import AnalysisError
from repro.sim.experiment import LoadPointSummary


class TestQueueingTheory:
    def test_erlang_c_known_value(self):
        # Classic check: c=2, offered load a=1 (rho=0.5) => P(wait)=1/3.
        assert erlang_c(arrival_rate=1.0, service_rate=1.0, servers=2) == (
            pytest.approx(1.0 / 3.0)
        )

    def test_mm1_reduces_to_rho(self):
        # For c=1, Erlang-C equals the utilization.
        assert erlang_c(0.6, 1.0, 1) == pytest.approx(0.6)

    def test_mm1_mean_wait(self):
        # M/M/1: W_q = rho / (mu - lambda).
        assert mmc_mean_queue_delay(0.5, 1.0, 1) == pytest.approx(0.5 / 0.5)

    def test_unstable_rejected(self):
        with pytest.raises(AnalysisError):
            mmc_mean_queue_delay(5.0, 1.0, 4)


class TestLittlesLaw:
    def test_zero_gap_when_consistent(self):
        # λ = 100/s, W = 0.05s  =>  L = 5.
        assert littles_law_gap(1_000, 10.0, 0.05, 5.0) == pytest.approx(0.0)

    def test_gap_detects_inconsistency(self):
        assert littles_law_gap(1_000, 10.0, 0.05, 10.0) == pytest.approx(0.5)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            littles_law_gap(10, 0.0, 0.05, 1.0)

    def test_simulator_satisfies_littles_law(self, small_system):
        """End-to-end: λW from the sim's summary matches the utilization-
        derived population within tolerance."""
        rate = small_system.rate_for_utilization(0.3)
        summary = small_system.run_point("sequential", rate,
                                         duration=4.0, warmup=1.0)
        # For degree-1 queries, mean running population = utilization x cores;
        # queued population ~ throughput x mean queue delay.
        mean_population = (
            summary.utilization * small_system.n_cores
            + summary.throughput * summary.mean_queue_delay
        )
        gap = littles_law_gap(
            summary.observed,
            3.0,  # window = duration - warmup
            summary.mean_latency,
            mean_population,
        )
        assert gap < 0.1, f"Little's-law gap {gap:.3f}"


def _summary(policy, rate, p99):
    return LoadPointSummary(
        policy=policy, rate=rate, n_cores=4, offered_utilization=0.5,
        observed=100, throughput=rate, utilization=0.5, mean_latency=p99 / 3,
        p50_latency=p99 / 5, p95_latency=p99 / 1.5, p99_latency=p99,
        mean_queue_delay=0.0, mean_degree=1.0,
    )


class TestCompare:
    def test_find_crossover_interpolates(self):
        rates = [1.0, 2.0, 3.0]
        a = [1.0, 2.0, 4.0]
        b = [3.0, 3.0, 3.0]
        crossing = find_crossover(rates, a, b)
        assert 2.0 < crossing < 3.0

    def test_no_crossover_returns_none(self):
        assert find_crossover([1, 2], [1.0, 1.0], [2.0, 2.0]) is None

    def test_comparison_metrics_and_envelope(self):
        rates = [10.0, 20.0]
        comparison = PolicyComparison(
            rates=rates,
            summaries={
                "a": [_summary("a", 10, 5.0), _summary("a", 20, 1.0)],
                "b": [_summary("b", 10, 2.0), _summary("b", 20, 4.0)],
            },
        )
        assert comparison.envelope_p99().tolist() == [2.0, 1.0]
        regret = comparison.regret_vs_envelope("a", ["a", "b"])
        assert regret.tolist() == [1.5, 0.0]

    def test_capacity_at_slo(self):
        comparison = PolicyComparison(
            rates=[1.0, 2.0, 3.0],
            summaries={
                "a": [_summary("a", 1, 1.0), _summary("a", 2, 2.0),
                      _summary("a", 3, 9.0)],
            },
        )
        assert comparison.capacity_at_slo("a", slo=2.5) == 2.0
        assert comparison.capacity_at_slo("a", slo=0.5) is None

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            PolicyComparison(rates=[1.0], summaries={"a": []})

    def test_unknown_policy_rejected(self):
        comparison = PolicyComparison(rates=[1.0],
                                      summaries={"a": [_summary("a", 1, 1.0)]})
        with pytest.raises(AnalysisError):
            comparison.p99("zzz")
