"""Property round-trips for engine results and cost tables through serde.

The guard these tests provide: every declared field of
:class:`ExecutionResult` — including work counters like
``chunks_evaluated`` — must survive :func:`to_jsonable` serialization
with its value intact, and :class:`QueryCostTable` matrices must
round-trip bit-exactly through JSON (and through ``subset``). A future
counter added to either class cannot silently vanish from serialized
experiment output: the field-completeness assertions enumerate the
dataclass/constructor surface at test time.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.query import Query
from repro.engine.results import ExecutionResult, make_ranked
from repro.profiles.measurement import QueryCostTable
from repro.util.serde import dumps, to_jsonable

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
counts = st.integers(min_value=0, max_value=10**6)


@st.composite
def execution_results(draw):
    n_results = draw(st.integers(0, 5))
    pairs = [
        (draw(st.integers(0, 10**6)), float(draw(finite)))
        for _ in range(n_results)
    ]
    degree = draw(st.sampled_from([1, 2, 4, 8]))
    latency = draw(st.floats(1e-6, 1e3, allow_nan=False))
    return ExecutionResult(
        query=Query.of(draw(st.lists(st.integers(0, 500), min_size=1,
                                     max_size=4, unique=True)),
                       query_id=draw(st.integers(0, 1000))),
        degree=degree,
        results=make_ranked(pairs),
        latency=latency,
        cpu_time=latency * degree,
        chunks_evaluated=draw(counts),
        postings_scanned=draw(counts),
        docs_matched=draw(counts),
        terminated_early=draw(st.booleans()),
        termination_rule=draw(st.sampled_from([None, "topk-bound", "budget"])),
        worker_busy=tuple(draw(st.lists(finite, max_size=4))),
    )


@given(result=execution_results())
@settings(max_examples=60, deadline=None)
def test_execution_result_serializes_every_field(result):
    payload = to_jsonable(result)
    declared = {field.name for field in dataclasses.fields(ExecutionResult)}
    # Field completeness: nothing declared may be dropped, nothing
    # undeclared may appear. A counter added to the dataclass later is
    # automatically covered.
    assert set(payload) == declared
    assert payload["chunks_evaluated"] == result.chunks_evaluated
    assert payload["degree"] == result.degree
    assert payload["latency"] == result.latency
    assert len(payload["results"]) == result.n_results
    # The whole thing survives an actual JSON encode/decode.
    parsed = json.loads(dumps(result))
    assert parsed == json.loads(json.dumps(payload))


@st.composite
def cost_tables(draw):
    n = draw(st.integers(1, 6))
    degrees = draw(st.sampled_from([(1,), (1, 2), (1, 2, 4)]))
    d = len(degrees)
    latency = np.array(
        draw(st.lists(st.lists(st.floats(1e-4, 10.0, allow_nan=False),
                               min_size=d, max_size=d),
                      min_size=n, max_size=n))
    )
    cpu = latency * np.asarray(degrees)[None, :]
    chunks = np.array(
        draw(st.lists(st.lists(st.integers(1, 100), min_size=d, max_size=d),
                      min_size=n, max_size=n)),
        dtype=np.int64,
    )
    queries = [Query.of([i + 1], query_id=i) for i in range(n)]
    return QueryCostTable(queries, degrees, latency, cpu, chunks)


_TABLE_ARRAYS = ("latency", "cpu", "chunks")


@given(table=cost_tables())
@settings(max_examples=40, deadline=None)
def test_cost_table_matrices_roundtrip_through_json(table):
    payload = {name: to_jsonable(getattr(table, name))
               for name in _TABLE_ARRAYS}
    payload["degrees"] = to_jsonable(table.degrees)
    parsed = json.loads(json.dumps(payload, sort_keys=True))
    rebuilt = QueryCostTable(
        queries=table.queries,
        degrees=parsed["degrees"],
        latency=np.asarray(parsed["latency"], dtype=np.float64),
        cpu=np.asarray(parsed["cpu"], dtype=np.float64),
        chunks=np.asarray(parsed["chunks"], dtype=np.int64),
    )
    for name in _TABLE_ARRAYS:
        np.testing.assert_array_equal(
            getattr(rebuilt, name), getattr(table, name), err_msg=name
        )
    assert rebuilt.degrees == table.degrees


@given(table=cost_tables(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_cost_table_subset_preserves_all_counters(table, data):
    mask = np.array(
        data.draw(st.lists(st.booleans(), min_size=table.n_queries,
                           max_size=table.n_queries)),
        dtype=bool,
    )
    sub = table.subset(mask)
    indices = np.nonzero(mask)[0]
    assert sub.n_queries == len(indices)
    for name in _TABLE_ARRAYS:
        np.testing.assert_array_equal(
            getattr(sub, name), getattr(table, name)[indices], err_msg=name
        )
    assert [q.query_id for q in sub.queries] == [
        table.queries[i].query_id for i in indices
    ]
