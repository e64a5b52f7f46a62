"""Early-termination rules.

An ISN evaluates documents in static-rank order, so it can stop long
before exhausting the index. Two *stop* rules are implemented; both may
be active at once and the executor stops at the first that fires:

* **Match budget** (production-style, approximate): stop once at least
  ``match_budget`` matching documents have been evaluated. Because
  earlier documents have higher static rank, the unevaluated matches are
  unlikely to displace the top-k; this is the dominant termination rule
  in rank-ordered production indexes and the source of the paper's
  short-query/long-query cost asymmetry (common term combinations fill
  the budget within a few chunks; rare combinations scan everything).
* **Score bound** (safe): stop when no remaining document can strictly
  beat the current k-th score, using the plan's suffix bounds. With this
  rule alone, early-terminated results are bit-identical to exhaustive
  evaluation.

Setting ``match_budget=None`` disables the approximate rule (used by the
equivalence tests); ``use_score_bound=False`` disables the safe stop
rule. All-rules-off is a legitimate configuration — the exhaustive
reference mode equivalence tests execute against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional

from repro.engine.plan import QueryPlan
from repro.engine.topk import TopK
from repro.util.validation import require, require_int_in_range


@dataclass(frozen=True)
class TerminationConfig:
    """Which termination rules are active, and their parameters."""

    match_budget: Optional[int] = 256
    use_score_bound: bool = True

    def __post_init__(self) -> None:
        if self.match_budget is not None:
            require_int_in_range(self.match_budget, "match_budget", low=1)
        # The real invariant is on field domains, not on rule presence:
        # disabling every rule is valid (exhaustive reference mode), but
        # the flag must be an actual boolean — a stray positional int
        # (e.g. a budget landing in use_score_bound) would silently
        # enable the rule with a truthy garbage value.
        require(
            isinstance(self.use_score_bound, bool),
            f"use_score_bound must be a bool, got {self.use_score_bound!r}",
        )

class TerminationState:
    """Mutable per-execution termination tracker.

    The scan reports merged matches through :meth:`record_matches` and
    asks :meth:`should_stop` before claiming the candidate chunk at
    ``next_position``. To merge a run of positions without a claim each,
    it asks :meth:`budget_cut` where the budget would fire and
    :meth:`bound_reached` whether the score bound would, latching
    neither.
    """

    def __init__(self, config: TerminationConfig, plan: QueryPlan, topk: TopK) -> None:
        self.config = config
        self.plan = plan
        self.topk = topk
        self.matches_seen = 0
        self.fired_rule: Optional[str] = None
        # The budget rule's per-query constant, computed once here rather
        # than at every probe.
        self._budget = (
            None if config.match_budget is None else max(config.match_budget, topk.k)
        )
        # The bound array mirrored as a plain float list, built lazily:
        # the rule probes one scalar per position, and list indexing
        # avoids the numpy scalar-extraction cost on every probe.
        # ``tolist()`` preserves the exact float64 values, so decisions
        # are identical.
        self._suffix_bounds: Optional[List[float]] = None

    def record_matches(self, n_matched: int) -> None:
        self.matches_seen += n_matched

    def should_stop(self, next_position: int) -> bool:
        """True if execution may stop before evaluating ``next_position``;
        the first rule that fires is latched in ``fired_rule``."""
        if self.fired_rule is not None:
            return True
        budget = self._budget
        if next_position >= self.plan.n_candidate_chunks:
            self.fired_rule = "exhausted"
        elif budget is not None and self.matches_seen >= budget:
            self.fired_rule = "match_budget"
        elif self.config.use_score_bound and self.bound_reached(next_position):
            self.fired_rule = "score_bound"
        return self.fired_rule is not None

    def bound_reached(self, position: int) -> bool:
        """The score-bound rule's test at ``position``, latching nothing:
        the heap is full and no document at or after ``position`` can
        strictly beat its k-th score.

        ``bounds_from`` never increases along the plan and the threshold
        never decreases as matches merge, so once this holds it holds at
        every later position and heap state.
        """
        topk = self.topk
        if not topk.full:
            return False
        bounds = self._suffix_bounds
        if bounds is None:
            bounds = self._suffix_bounds = self.plan.bounds_from.tolist()
        # Remaining docs all have higher ids than any doc already in
        # the heap, so a tie at the threshold would lose anyway:
        # stopping at bound <= threshold is safe.
        return bounds[position] <= topk.threshold

    def budget_cut(self, cuts: List[int], first: int) -> int:
        """Where a run that merges a block's positions from index
        ``first`` on must end for the match budget: the first later index
        at whose claim the budget would fire, or the block's end.

        ``cuts`` are the block's match cuts, so ``cuts[j] - cuts[first]``
        is what merging indices ``[first, j)`` adds to ``matches_seen``;
        they never decrease, which makes the search one bisection.
        """
        end = len(cuts) - 1
        budget = self._budget
        if budget is None:
            return end
        return bisect_left(
            cuts, budget - self.matches_seen + cuts[first], first + 1, end
        )

    @property
    def terminated_early(self) -> bool:
        return self.fired_rule in ("match_budget", "score_bound")
