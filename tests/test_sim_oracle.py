"""The service oracle's precomputed lookups keep the contract of the
numpy definitions they replace: the same values, the same errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_table
from repro.errors import ProfileError, SimulationError
from repro.policies.base import QueryInfo
from repro.profiles.measurement import QueryCostTable
from repro.sim.oracle import ServiceOracle

PREDICTED = [0.1, 0.2, 0.3, 0.4, 0.5]


def _varied_table():
    """Per-query latencies and chunk counts differ, so a lookup that
    reads the wrong row or column shows."""
    table = constant_table(n_queries=5, degrees=(1, 2, 4))
    scale = np.linspace(0.5, 1.5, 5)[:, None]
    chunks = np.arange(15, dtype=np.int64).reshape(5, 3)
    return QueryCostTable(
        table.queries, table.degrees, table.latency * scale, table.cpu * scale, chunks
    )


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_clamp_degree_is_the_searchsorted_definition(data):
    extra = data.draw(st.lists(st.integers(2, 48), max_size=6, unique=True))
    grid = sorted({1, *extra})
    table = constant_table(n_queries=2, degrees=tuple(grid),
                           speedup={p: float(p) for p in grid})
    oracle = ServiceOracle(table)
    sorted_grid = np.asarray(grid, dtype=np.int64)
    for degree in range(1, 2 * grid[-1] + 1):
        expected = int(sorted_grid[np.searchsorted(sorted_grid, degree, side="right") - 1])
        assert oracle.clamp_degree(degree) == expected


def test_lookups_equal_the_table_columns():
    table = _varied_table()
    oracle = ServiceOracle(table, predicted_latencies=PREDICTED)
    t1 = table.sequential_latencies()
    for q in range(table.n_queries):
        for degree in table.degrees:
            assert oracle.latency(q, degree) == table.latency_of(q, degree)
        assert oracle.sequential_latency(q) == float(t1[q])
        assert oracle.expected_sequential_latency(q) == PREDICTED[q]
        assert oracle.plan_chunk_limit(q) == max(1, int(table.chunks[q, 0]))
    assert ServiceOracle(table).expected_sequential_latency(3) == float(t1[3])


def test_info_equals_a_freshly_built_query_info():
    table = _varied_table()
    t1 = table.sequential_latencies()
    for predicted in (None, PREDICTED):
        oracle = ServiceOracle(table, predicted_latencies=predicted)
        for q, query in enumerate(table.queries):
            assert oracle.info(q) == QueryInfo(
                query_id=query.query_id,
                n_terms=query.n_terms,
                predicted_sequential_latency=None if predicted is None else predicted[q],
                true_sequential_latency=float(t1[q]),
            )


def test_unmeasured_degree_raises_profile_error_naming_the_grid():
    oracle = ServiceOracle(constant_table(degrees=(1, 2, 4)))
    with pytest.raises(ProfileError, match=r"available: \(1, 2, 4\)"):
        oracle.latency(0, 3)


def test_degree_below_one_raises_simulation_error():
    oracle = ServiceOracle(constant_table())
    for degree in (0, -1):
        with pytest.raises(SimulationError):
            oracle.clamp_degree(degree)


def test_grid_without_degree_one_is_rejected_before_any_clamp():
    # No sequential baseline, nothing to clamp a grant onto: the oracle
    # refuses the table at construction, through the table's t1 lookup.
    table = constant_table(degrees=(2, 4), speedup={2: 1.8, 4: 3.0})
    with pytest.raises(ProfileError, match="degree 1 not measured"):
        ServiceOracle(table)
