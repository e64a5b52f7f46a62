"""Assorted edge-case tests across modules."""

import numpy as np
import pytest

from repro.engine.query import Query
from repro.errors import SimulationError
from repro.profiles.measurement import QueryCostTable
from repro.sim.experiment import LoadPointConfig
from repro.sim.oracle import ServiceOracle
from repro.workloads.workbench import WorkbenchConfig


class TestServiceOracleEdges:
    def test_table_without_degree_one_rejected(self):
        from repro.errors import ProfileError

        table = QueryCostTable(
            [Query.of([0])],
            (2,),
            np.ones((1, 1)),
            np.ones((1, 1)),
            np.ones((1, 1), dtype=np.int64),
        )
        # The oracle needs sequential baselines; construction must fail.
        with pytest.raises(ProfileError):
            ServiceOracle(table)

    def test_clamp_rejects_nonpositive(self):
        table = QueryCostTable(
            [Query.of([0])],
            (1,),
            np.ones((1, 1)),
            np.ones((1, 1)),
            np.ones((1, 1), dtype=np.int64),
        )
        with pytest.raises(SimulationError):
            ServiceOracle(table).clamp_degree(0)

    def test_info_without_predictions(self):
        table = QueryCostTable(
            [Query.of([0], query_id=7)],
            (1,),
            np.full((1, 1), 0.5),
            np.full((1, 1), 0.5),
            np.ones((1, 1), dtype=np.int64),
        )
        info = ServiceOracle(table).info(0)
        assert info.predicted_sequential_latency is None
        assert info.true_sequential_latency == pytest.approx(0.5)
        assert info.query_id == 7


class TestLoadPointConfigEdges:
    def test_warmup_must_precede_duration(self):
        with pytest.raises(Exception):
            LoadPointConfig(rate=1.0, duration=5.0, warmup=5.0)

class TestEngineEdges:
    def test_empty_plan_trace_has_no_positions(self, small_engine, small_workbench):
        missing = small_workbench.corpus.vocab_size + 9
        trace = small_engine.trace(Query.of([missing]))
        assert trace.n_positions == 0
        result = small_engine.execute_trace(trace, 4)
        assert result.n_results == 0
        assert result.chunks_evaluated == 0

    def test_parallel_empty_plan_has_overhead_only(self, small_engine,
                                                   small_workbench):
        missing = small_workbench.corpus.vocab_size + 9
        trace = small_engine.trace(Query.of([missing]))
        result = small_engine.execute_trace(trace, 4)
        cost_model = small_engine.config.cost_model
        expected = (
            cost_model.query_fixed_cost
            + cost_model.fork_time(4)
            + cost_model.join_time(4)
        )
        assert result.latency == pytest.approx(expected)


class TestWorkbenchConfigEdges:
    def test_presets_differ(self):
        assert WorkbenchConfig.small() != WorkbenchConfig.reference()

    def test_hashable_for_caching(self):
        assert {WorkbenchConfig.small(), WorkbenchConfig.small()} == {
            WorkbenchConfig.small()
        }

    def test_seed_propagates(self):
        config = WorkbenchConfig.small(seed=42)
        assert config.seed == 42
        assert config.corpus.seed == 42
