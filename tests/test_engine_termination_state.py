"""Direct unit tests of the termination state machine."""

import pytest

from repro.engine.plan import QueryPlan
from repro.engine.query import Query
from repro.engine.termination import TerminationConfig, TerminationState
from repro.engine.topk import TopK


@pytest.fixture()
def plan(tiny_index):
    import numpy as np

    df = tiny_index.lexicon.document_frequencies()
    common = int(np.argmax(df))
    return QueryPlan(Query.of([common], k=5), tiny_index)


class TestTerminationState:
    def test_exhaustion_fires_at_end(self, plan):
        state = TerminationState(
            TerminationConfig(match_budget=None, use_score_bound=False),
            plan,
            TopK(5),
        )
        assert not state.should_stop(0)
        assert state.should_stop(plan.n_candidate_chunks)
        assert state.fired_rule == "exhausted"
        assert not state.terminated_early

    def test_budget_fires_once_enough_matches(self, plan):
        state = TerminationState(
            TerminationConfig(match_budget=10, use_score_bound=False),
            plan,
            TopK(5),
        )
        state.record_matches(9)
        assert not state.should_stop(0)
        state.record_matches(1)
        assert state.should_stop(0)
        assert state.fired_rule == "match_budget"
        assert state.terminated_early

    def test_budget_never_below_k(self, plan):
        """A budget below k cannot stop before the heap can fill."""
        topk = TopK(5)
        state = TerminationState(
            TerminationConfig(match_budget=1, use_score_bound=False),
            plan,
            topk,
        )
        state.record_matches(3)  # >= budget but < k
        assert not state.should_stop(0)
        state.record_matches(2)  # now >= k
        assert state.should_stop(0)

    def test_score_bound_requires_full_heap(self, plan):
        state = TerminationState(
            TerminationConfig(match_budget=None, use_score_bound=True),
            plan,
            TopK(5),
        )
        # Heap empty: bound rule must not fire regardless of bounds.
        assert not state.should_stop(0)

    def test_score_bound_fires_when_threshold_exceeds_bound(self, plan):
        topk = TopK(1)
        giant = float(plan.bounds_from[0]) + 1.0
        topk.offer(giant, 0)
        state = TerminationState(
            TerminationConfig(match_budget=None, use_score_bound=True),
            plan,
            topk,
        )
        assert state.should_stop(0)
        assert state.fired_rule == "score_bound"
        assert state.terminated_early

    def test_fired_rule_is_sticky(self, plan):
        state = TerminationState(
            TerminationConfig(match_budget=5, use_score_bound=False),
            plan,
            TopK(5),
        )
        state.record_matches(100)
        assert state.should_stop(0)
        # Still stopped even for earlier positions / repeated calls.
        assert state.should_stop(0)
        assert state.fired_rule == "match_budget"

    def test_config_validation(self):
        with pytest.raises(Exception):
            TerminationConfig(match_budget=0)
        # None budget is the exhaustive configuration.
        assert TerminationConfig(match_budget=None).match_budget is None

    def test_config_flags_must_be_booleans(self):
        # A stray positional int landing in a flag slot must not silently
        # enable a rule with a truthy garbage value.
        with pytest.raises(Exception):
            TerminationConfig(match_budget=None, use_score_bound=1)

    def test_all_rules_off_is_valid(self):
        config = TerminationConfig(match_budget=None, use_score_bound=False)
        assert config.match_budget is None
