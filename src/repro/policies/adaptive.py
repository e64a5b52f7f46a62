"""The paper's adaptive parallelism policy.

The policy observes one load signal — the number of queries in the
system (queued + running + the one being dispatched) — and maps it to a
parallelism degree through a precomputed, monotone **threshold table**:
wide parallelism while the system is lightly loaded, narrowing degrees
as load rises, and sequential execution near saturation. The table is
derived offline from the measured speedup/efficiency profile (see
:mod:`repro.policies.derivation`), so the runtime decision is a
constant-time lookup — cheap enough to sit on the dispatch path of every
query, which is what makes the scheme practical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import PolicyError
from repro.policies.base import ParallelismPolicy, QueryInfo, SystemState


@dataclass(frozen=True)
class ThresholdTable:
    """Monotone mapping from queries-in-system to parallelism degree.

    ``entries`` is a sequence of ``(max_in_system, degree)`` pairs with
    strictly increasing limits and strictly decreasing degrees; a load of
    ``n`` selects the first entry whose limit is >= n. Loads beyond the
    last limit run sequentially.

    >>> table = ThresholdTable.from_pairs([(1, 12), (2, 6), (4, 3), (8, 2)])
    >>> [table.degree_for(n) for n in (1, 2, 3, 5, 9)]
    [12, 6, 3, 2, 1]
    """

    entries: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise PolicyError("threshold table must have at least one entry")
        last_limit = 0
        last_degree = None
        for limit, degree in self.entries:
            if not isinstance(limit, int) or limit <= last_limit:
                raise PolicyError(
                    f"limits must be strictly increasing ints, got {self.entries!r}"
                )
            if not isinstance(degree, int) or degree < 1:
                raise PolicyError(f"degrees must be ints >= 1, got {self.entries!r}")
            if last_degree is not None and degree >= last_degree:
                raise PolicyError(
                    "degrees must be strictly decreasing with load, got "
                    f"{self.entries!r}"
                )
            last_limit = limit
            last_degree = degree
        # degree_for as one index: entry n is the degree at load n, for
        # n up to the last limit (entry 0 pads; loads start at 1).
        by_load = [0]
        for limit, degree in self.entries:
            by_load += [degree] * (limit + 1 - len(by_load))
        object.__setattr__(self, "_by_load", tuple(by_load))

    @staticmethod
    def from_pairs(pairs: Sequence[Tuple[int, int]]) -> "ThresholdTable":
        return ThresholdTable(entries=tuple((int(a), int(b)) for a, b in pairs))

    def degree_for(self, n_in_system: int) -> int:
        if n_in_system < 1:
            raise PolicyError(f"n_in_system must be >= 1, got {n_in_system}")
        by_load = self._by_load
        return by_load[n_in_system] if n_in_system < len(by_load) else 1

    @property
    def max_degree(self) -> int:
        return self.entries[0][1]

    def describe(self) -> str:
        parts: List[str] = []
        prev = 0
        for limit, degree in self.entries:
            low = prev + 1
            span = f"{low}" if low == limit else f"{low}-{limit}"
            parts.append(f"n={span}→p={degree}")
            prev = limit
        parts.append(f"n>{prev}→p=1")
        return ", ".join(parts)


class AdaptivePolicy(ParallelismPolicy):
    """Load-threshold adaptive degree selection (the paper's policy)."""

    def __init__(self, table: ThresholdTable) -> None:
        self.table = table
        self.name = "adaptive"

    def choose_degree(self, state: SystemState, info: QueryInfo) -> int:
        return self._validate(self.table.degree_for(state.n_in_system))

    def __repr__(self) -> str:
        return f"AdaptivePolicy({self.table.describe()})"
