"""Tests for query planning: candidate chunks, bounds, chunk scoring."""

import numpy as np
import pytest

from repro.engine.plan import QueryPlan
from repro.engine.query import Query
from repro.errors import ExecutionError
from repro.ranking.composite import RELEVANCE_WEIGHT, STATIC_WEIGHT


def _plan(index, terms, k=10):
    return QueryPlan(Query.of(terms, k=k), index)


def _common_terms(index, n=2):
    """Terms with the longest posting lists (guaranteed co-occurrence)."""
    df = index.lexicon.document_frequencies()
    return np.argsort(df)[::-1][:n].tolist()


class TestCandidateChunks:
    def test_all_mode_candidates_are_chunk_intersection(self, tiny_index):
        terms = _common_terms(tiny_index, 2)
        plan = _plan(tiny_index, terms)
        expected = np.intersect1d(
            tiny_index.lexicon.postings(terms[0]).chunk_ids,
            tiny_index.lexicon.postings(terms[1]).chunk_ids,
        )
        assert np.array_equal(plan.candidate_chunks, expected)

    def test_missing_term_all_mode_gives_empty_plan(self, tiny_index):
        missing = tiny_index.lexicon.vocab_size + 7  # never indexed
        plan = _plan(tiny_index, [_common_terms(tiny_index, 1)[0], missing])
        assert plan.n_candidate_chunks == 0

    def test_chunk_ids_are_sorted_unique(self, tiny_index):
        # The assume_unique=True fast path in _candidate_chunks is only
        # valid because PostingList.chunk_ids is sorted-unique by
        # construction; pin that invariant where the optimization relies
        # on it.
        for term in _common_terms(tiny_index, 5):
            chunk_ids = tiny_index.lexicon.postings(term).chunk_ids
            assert np.array_equal(chunk_ids, np.unique(chunk_ids))

    def test_candidates_match_unoptimized_reference(self, tiny_index):
        # assume_unique must compute the same set as the naive sorted
        # intersections.
        terms = _common_terms(tiny_index, 3)
        plists = [tiny_index.lexicon.postings(t) for t in terms]
        all_plan = _plan(tiny_index, terms)
        expected_all = plists[0].chunk_ids
        for plist in plists[1:]:
            expected_all = np.intersect1d(expected_all, plist.chunk_ids)
        assert np.array_equal(all_plan.candidate_chunks, expected_all)


class TestBounds:
    def test_bounds_non_increasing(self, tiny_index):
        plan = _plan(tiny_index, _common_terms(tiny_index, 2))
        bounds = plan.bounds_from
        assert np.all(np.diff(bounds) <= 1e-12)

    def test_final_bound_is_minus_inf(self, tiny_index):
        plan = _plan(tiny_index, _common_terms(tiny_index, 1))
        assert plan.bounds_from[-1] == -np.inf

    def test_bound_dominates_actual_chunk_scores(self, tiny_index):
        """Soundness: no document in chunk i..end scores above bounds_from[i]."""
        plan = _plan(tiny_index, _common_terms(tiny_index, 2))
        for position in range(plan.n_candidate_chunks):
            outcome = plan.score_chunk(position)
            if outcome.n_matched:
                assert outcome.scores.max() <= plan.bounds_from[position] + 1e-9

class TestChunkScoring:
    def test_conjunctive_matches_contain_all_terms(self, tiny_corpus, tiny_index):
        terms = _common_terms(tiny_index, 2)
        plan = _plan(tiny_index, terms)
        outcome = plan.score_chunk(0)
        for doc_id in outcome.doc_ids[:20]:
            doc = tiny_corpus.document(int(doc_id))
            for t in terms:
                assert doc.term_frequency(int(t)) > 0

    def test_conjunctive_scores_match_manual_sum(self, tiny_index):
        terms = _common_terms(tiny_index, 2)
        plan = _plan(tiny_index, terms)
        outcome = plan.score_chunk(0)
        for doc_id, score in zip(outcome.doc_ids[:10], outcome.scores[:10]):
            expected = RELEVANCE_WEIGHT * sum(
                tiny_index.lexicon.postings(t).impact_of(int(doc_id)) for t in terms
            ) + STATIC_WEIGHT * tiny_index.static_ranks[int(doc_id)]
            assert score == pytest.approx(expected, rel=1e-9)

    def test_postings_scanned_counts_slices(self, tiny_index):
        terms = _common_terms(tiny_index, 2)
        plan = _plan(tiny_index, terms)
        chunk_id = int(plan.candidate_chunks[0])
        expected = sum(
            tiny_index.lexicon.postings(t).chunk_slice(chunk_id)[0].shape[0]
            for t in terms
        )
        assert plan.score_chunk(0).postings_scanned == expected

    def test_doc_ids_ascending(self, tiny_index):
        plan = _plan(tiny_index, _common_terms(tiny_index, 2))
        outcome = plan.score_chunk(0)
        assert np.all(np.diff(outcome.doc_ids) > 0)

    def test_out_of_range_position_rejected(self, tiny_index):
        plan = _plan(tiny_index, _common_terms(tiny_index, 1))
        with pytest.raises(ExecutionError):
            plan.score_chunk(plan.n_candidate_chunks)
