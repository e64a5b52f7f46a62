"""Tests for profiles: measurement, speedup, service-time distribution."""

import numpy as np
import pytest

from repro.engine.query import Query
from repro.errors import ProfileError
from repro.profiles.measurement import (
    MeasurementConfig,
    measure_cost_table,
)
from repro.profiles.servicetime import ServiceTimeDistribution
from repro.profiles.speedup import ParametricSpeedup, SpeedupProfile


@pytest.fixture(scope="module")
def cost_table(small_engine, sample_queries):
    return measure_cost_table(
        small_engine,
        sample_queries,
        MeasurementConfig(degrees=(1, 2, 4, 8), n_queries=len(sample_queries)),
    )


class TestMeasurement:
    def test_shapes(self, cost_table, sample_queries):
        assert cost_table.n_queries == len(sample_queries)
        assert cost_table.latency.shape == (len(sample_queries), 4)

    def test_degree_lookup(self, cost_table):
        assert cost_table.degree_column(1) == 0
        assert cost_table.degree_column(8) == 3
        with pytest.raises(ProfileError):
            cost_table.degree_column(5)

    def test_latencies_positive(self, cost_table):
        assert np.all(cost_table.latency > 0)
        assert np.all(cost_table.cpu > 0)

    def test_cpu_dominates_latency_for_parallel(self, cost_table):
        for degree in (2, 4, 8):
            col = cost_table.degree_column(degree)
            assert np.all(cost_table.cpu[:, col] >= cost_table.latency[:, col] - 1e-12)

    def test_speedups_bounded(self, cost_table):
        for degree in (2, 4, 8):
            speedups = cost_table.speedups(degree)
            assert np.all(speedups <= degree + 1e-9)
            assert np.all(speedups > 0)

    def test_work_inflation_at_least_one(self, cost_table):
        for degree in (2, 4, 8):
            assert np.all(cost_table.work_inflation(degree) >= 1.0 - 1e-9)
        assert cost_table.mean_work_inflation(4) >= 1.0

    def test_subset(self, cost_table):
        mask = cost_table.sequential_latencies() > np.median(
            cost_table.sequential_latencies()
        )
        subset = cost_table.subset(mask)
        assert subset.n_queries == int(mask.sum())
        assert subset.degrees == cost_table.degrees

    def test_config_requires_degree_one(self):
        with pytest.raises(Exception):
            MeasurementConfig(degrees=(2, 4))

    def test_config_requires_sorted_unique_degrees(self):
        with pytest.raises(Exception):
            MeasurementConfig(degrees=(1, 4, 2))
        with pytest.raises(Exception):
            MeasurementConfig(degrees=(1, 2, 2))

    def test_degree_beyond_engine_max_rejected(self, small_engine, sample_queries):
        with pytest.raises(ProfileError):
            measure_cost_table(
                small_engine,
                sample_queries[:5],
                MeasurementConfig(degrees=(1, 64)),
            )

    def test_chunks_skipped_defaults_to_zeros(self, cost_table):
        # The default engine keeps skip_chunks off, so the counter is
        # recorded but all-zero; shape tracks (queries, degrees).
        assert cost_table.chunks_skipped.shape == cost_table.chunks.shape
        assert np.all(cost_table.chunks_skipped == 0)
        assert cost_table.chunks_skipped.dtype == np.int64

    def test_chunks_skipped_shape_validated(self, cost_table):
        from repro.profiles.measurement import QueryCostTable

        with pytest.raises(ProfileError):
            QueryCostTable(
                cost_table.queries,
                cost_table.degrees,
                cost_table.latency,
                cost_table.cpu,
                cost_table.chunks,
                chunks_skipped=np.zeros((1, 1), dtype=np.int64),
            )

    def test_chunks_skipped_subset_and_measurement(
        self, small_workbench, sample_queries
    ):
        from repro.engine.executor import Engine, EngineConfig
        from repro.engine.termination import TerminationConfig

        engine = Engine(
            small_workbench.index,
            EngineConfig(
                termination=TerminationConfig(
                    match_budget=None, use_score_bound=True, skip_chunks=True
                )
            ),
        )
        table = measure_cost_table(
            engine,
            sample_queries[:25],
            MeasurementConfig(degrees=(1, 2), n_queries=25),
        )
        assert table.chunks_skipped.sum() > 0, "skipping never fired"
        for i, query in enumerate(sample_queries[:25]):
            result = engine.execute(query, 1)
            assert table.chunks_skipped[i, 0] == result.chunks_skipped
        mask = np.zeros(25, dtype=bool)
        mask[:5] = True
        subset = table.subset(mask)
        assert np.array_equal(subset.chunks_skipped, table.chunks_skipped[:5])


class TestSpeedupProfile:
    def test_class_assignment_balanced(self, cost_table):
        profile = SpeedupProfile(cost_table, n_classes=3)
        counts = np.bincount(profile.class_of_query, minlength=3)
        assert counts.min() >= cost_table.n_queries // 5

    def test_long_class_has_best_speedup(self, cost_table):
        profile = SpeedupProfile(cost_table, n_classes=3)
        assert profile.speedup(4, 2) > profile.speedup(4, 0)

    def test_degree_one_speedup_is_one(self, cost_table):
        profile = SpeedupProfile(cost_table)
        for cls in range(profile.n_classes):
            assert profile.speedup(1, cls) == pytest.approx(1.0)

    def test_rows_cover_all_classes_and_degrees(self, cost_table):
        profile = SpeedupProfile(cost_table)
        rows = profile.rows()
        assert len(rows) == profile.n_classes * len(cost_table.degrees)

    def test_invalid_class_rejected(self, cost_table):
        profile = SpeedupProfile(cost_table)
        with pytest.raises(ProfileError):
            profile.speedup(4, 99)


class TestParametricSpeedup:
    def test_degree_one_is_unity(self):
        assert ParametricSpeedup(0.1, 0.02).speedup(1) == pytest.approx(1.0)

    def test_amdahl_limit(self):
        model = ParametricSpeedup(serial=0.25, waste=0.0)
        assert model.speedup(1000) <= 4.0 + 1e-6

    def test_waste_creates_interior_optimum(self):
        model = ParametricSpeedup(serial=0.05, waste=0.05)
        speedups = [model.speedup(p) for p in range(1, 33)]
        best = int(np.argmax(speedups)) + 1
        assert 1 < best < 32

    def test_fit_recovers_parameters(self):
        truth = ParametricSpeedup(serial=0.12, waste=0.015)
        degrees = [1, 2, 3, 4, 6, 8, 12, 16]
        fitted = ParametricSpeedup.fit(degrees, [truth.speedup(p) for p in degrees])
        assert fitted.serial == pytest.approx(truth.serial, abs=0.02)
        assert fitted.waste == pytest.approx(truth.waste, abs=0.005)

    def test_fit_profile(self, cost_table):
        profile = SpeedupProfile(cost_table)
        fitted = ParametricSpeedup.fit_profile(profile)
        assert 0.0 <= fitted.serial <= 1.0
        assert fitted.waste >= 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ProfileError):
            ParametricSpeedup.fit([], [])
        with pytest.raises(ProfileError):
            ParametricSpeedup.fit([1, 2], [1.0, -1.0])
        with pytest.raises(ProfileError):
            ParametricSpeedup(0.1, 0.0).speedup(0)


class TestServiceTimeDistribution:
    def test_summary_fields(self, cost_table):
        dist = ServiceTimeDistribution(cost_table.sequential_latencies())
        summary = dist.summary()
        assert summary["n"] == cost_table.n_queries
        assert summary["p99_ms"] >= summary["p50_ms"]

    def test_lognormal_fit_reasonable(self, rng):
        samples = rng.lognormal(mean=-6.0, sigma=1.0, size=5000)
        fit = ServiceTimeDistribution(samples).fit_lognormal()
        assert fit.mu == pytest.approx(-6.0, abs=0.1)
        assert fit.sigma == pytest.approx(1.0, abs=0.1)

    def test_invalid_samples_rejected(self):
        with pytest.raises(ProfileError):
            ServiceTimeDistribution([])
        with pytest.raises(ProfileError):
            ServiceTimeDistribution([1.0, -1.0])
        with pytest.raises(ProfileError):
            ServiceTimeDistribution([1.0, float("inf")])
