"""Engine facade: configure once, execute queries at any degree."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.engine.batch import BatchExecutor
from repro.engine.cost import CostModel
from repro.engine.parallel import execute_parallel
from repro.engine.plan import QueryPlan
from repro.engine.query import Query
from repro.engine.results import ExecutionResult
from repro.engine.sequential import execute_sequential
from repro.engine.termination import TerminationConfig
from repro.engine.threads import execute_threaded
from repro.engine.trace import ChunkTrace
from repro.errors import ExecutionError
from repro.index.inverted import InvertedIndex
from repro.util.validation import require_int_in_range


@dataclass(frozen=True)
class EngineConfig:
    """Engine-wide execution parameters.

    ``max_degree`` mirrors the core count of the ISN (the paper's server
    exposes 12 physical cores); requesting a higher degree is an error so
    policies cannot silently oversubscribe.
    """

    cost_model: CostModel = field(default_factory=CostModel)
    termination: TerminationConfig = field(default_factory=TerminationConfig)
    max_degree: int = 12

    def __post_init__(self) -> None:
        require_int_in_range(self.max_degree, "max_degree", low=1)


class Engine:
    """Query-execution engine over one index shard.

    >>> engine = Engine(index)                      # doctest: +SKIP
    >>> result = engine.execute(query, degree=4)    # doctest: +SKIP
    """

    def __init__(self, index: InvertedIndex, config: Optional[EngineConfig] = None):
        self.index = index
        self.config = config or EngineConfig()

    def plan(self, query: Query) -> QueryPlan:
        """Build the execution plan for ``query``."""
        return QueryPlan(query, self.index)

    def trace(self, query: Query) -> ChunkTrace:
        """Build a memoizing chunk trace for ``query`` (reusable across
        degrees — chunk evaluations are shared). The trace is where the
        per-query executors score, a block of positions per kernel call."""
        return ChunkTrace(self.plan(query), self.config.cost_model)

    def _check_degree(self, degree: int) -> None:
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise ExecutionError(f"degree must be a positive integer, got {degree!r}")
        if degree > self.config.max_degree:
            raise ExecutionError(
                f"degree {degree} exceeds max_degree {self.config.max_degree}"
            )

    def execute(self, query: Query, degree: int = 1) -> ExecutionResult:
        """Execute ``query`` with ``degree`` workers in virtual time."""
        return self.execute_trace(self.trace(query), degree)

    def execute_trace(self, trace: ChunkTrace, degree: int = 1) -> ExecutionResult:
        """Execute a previously built trace at ``degree`` workers.

        Reusing one trace across degrees scores each chunk at most
        once, which is what makes speedup-profile measurement affordable.
        """
        self._check_degree(degree)
        if degree == 1:
            return execute_sequential(trace, self.config.termination)
        return execute_parallel(trace, self.config.termination, degree)

    def execute_threaded(self, query: Query, degree: int) -> ExecutionResult:
        """Execute on real threads (validation mode; see
        :mod:`repro.engine.threads`)."""
        self._check_degree(degree)
        return execute_threaded(
            self.trace(query), self.config.termination, degree
        )

    def batch_executor(self) -> BatchExecutor:
        """Build a :class:`~repro.engine.batch.BatchExecutor` sharing this
        engine's index and configuration."""
        return BatchExecutor(
            self.index,
            cost_model=self.config.cost_model,
            termination=self.config.termination,
        )

    def execute_batch(self, queries: Sequence[Query]) -> List[ExecutionResult]:
        """``[self.execute(query, 1) for query in queries]``, spelled in
        :meth:`BatchExecutor.execute <repro.engine.batch.BatchExecutor.execute>`."""
        return self.batch_executor().execute(queries)

    def __repr__(self) -> str:
        return f"Engine(index={self.index!r}, max_degree={self.config.max_degree})"
