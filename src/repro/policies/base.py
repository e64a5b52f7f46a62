"""Policy interface and the system-state snapshot policies observe."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.errors import PolicyError


class SystemState(NamedTuple):
    """Snapshot of the ISN at a dispatch decision (one is built per
    dispatch, hence a tuple rather than a frozen dataclass).

    Attributes
    ----------
    now:
        Simulation time (seconds).
    n_queued:
        Queries waiting in the dispatch queue (excluding the one being
        dispatched).
    n_running:
        Queries currently executing.
    free_cores:
        Idle cores at this instant (>= 1 at dispatch time).
    n_cores:
        Total cores of the ISN.
    n_shed:
        Queries this server has dropped so far (admission cap, deadline,
        or fault shedding). Zero on servers without robustness limits.
    overloaded:
        True when the server is actively shedding load (its dispatch
        queue sits at the admission cap, or the head-of-queue wait
        already exceeds the deadline). Policies may use this to bias
        toward sequential execution during overload.
    """

    now: float
    n_queued: int
    n_running: int
    free_cores: int
    n_cores: int
    n_shed: int = 0
    overloaded: bool = False

    @property
    def n_in_system(self) -> int:
        """Load measure used by the adaptive policy: the number of
        queries in the system *including* the one being dispatched."""
        return self.n_queued + self.n_running + 1

@dataclass(frozen=True)
class QueryInfo:
    """What a policy may know about the query being dispatched.

    ``predicted_sequential_latency`` is filled by a predictor (the
    predictive-policy extension); ``true_sequential_latency`` is only
    available to the oracle policy.
    """

    query_id: Optional[int] = None
    n_terms: Optional[int] = None
    predicted_sequential_latency: Optional[float] = None
    true_sequential_latency: Optional[float] = None


class ParallelismPolicy(abc.ABC):
    """Chooses the parallelism degree for a query at dispatch time.

    Implementations must be side-effect free with respect to the
    simulation: the same (state, info) must always yield the same degree.
    """

    #: Human-readable policy label used in experiment tables.
    name: str = "policy"

    @abc.abstractmethod
    def choose_degree(self, state: SystemState, info: QueryInfo) -> int:
        """Return the requested degree (>= 1).

        The server clamps the request to the cores actually free, so a
        policy may request its ideal degree without tracking core
        availability itself.
        """

    def _validate(self, degree: int) -> int:
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise PolicyError(
                f"{self.name} produced invalid degree {degree!r}; must be int >= 1"
            )
        return degree

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
