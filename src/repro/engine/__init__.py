"""Query-execution engine of the index-serving node.

Public surface:

* :class:`Query` / :class:`QueryPlan` — a parsed query and its planned
  posting lists, bounds and chunk trace;
* :class:`EngineConfig` — termination, cost model;
* :class:`Engine` — the facade: ``engine.execute(query, degree=p)``
  runs a query sequentially (``p == 1``) or with intra-query parallelism
  (``p > 1``) in deterministic virtual time, returning an
  :class:`ExecutionResult` with ranked documents and work accounting;
* :class:`BatchExecutor` — ``engine.execute_batch(queries)``: the
  sequential driver once per query, plus :class:`BatchStats` counts of
  what the batch scored and what it read.
"""

from repro.engine.batch import BatchExecutor, BatchStats
from repro.engine.cost import CostModel
from repro.engine.executor import Engine, EngineConfig
from repro.engine.query import Query
from repro.engine.results import ExecutionResult, RankedDocument
from repro.engine.termination import TerminationConfig
from repro.engine.topk import TopK

__all__ = [
    "BatchExecutor",
    "BatchStats",
    "CostModel",
    "Engine",
    "EngineConfig",
    "Query",
    "ExecutionResult",
    "RankedDocument",
    "TerminationConfig",
    "TopK",
]
