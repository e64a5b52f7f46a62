"""Property-based differential testing of the engine on random corpora.

Hypothesis generates miniature corpora and queries; on every one, the
engine (exhaustive and safe-termination, sequential and parallel) must
agree with the brute-force reference searcher, and an execution whose
chunks were scored a block at a time through the batched kernel must
equal — whole ``ExecutionResult`` — one whose chunks were scored one at a
time by the reference scorer.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.engine.executor import Engine, EngineConfig
from repro.engine.query import MatchMode, Query
from repro.engine.reference import brute_force_search
from repro.engine.termination import TerminationConfig
from repro.index.builder import IndexConfig, build_index


def _build(seed: int, n_docs: int, vocab: int, chunk_size: int):
    corpus = generate_corpus(
        CorpusConfig(
            n_docs=n_docs,
            vocab_size=vocab,
            mean_doc_length=30,
            seed=seed,
        )
    )
    index = build_index(corpus, IndexConfig(chunk_size=chunk_size))
    exhaustive = Engine(
        index,
        EngineConfig(
            termination=TerminationConfig(match_budget=None, use_score_bound=False)
        ),
    )
    safe = Engine(
        index,
        EngineConfig(
            termination=TerminationConfig(match_budget=None, use_score_bound=True)
        ),
    )
    return index, exhaustive, safe


corpus_params = st.tuples(
    st.integers(0, 10_000),  # seed
    st.integers(30, 250),  # n_docs
    st.integers(10, 60),  # vocab
    st.integers(5, 64),  # chunk size
)


@given(
    params=corpus_params,
    query_terms=st.lists(st.integers(0, 59), min_size=1, max_size=4),
    k=st.integers(1, 15),
    mode=st.sampled_from([MatchMode.ALL, MatchMode.ANY]),
    degree=st.sampled_from([1, 2, 3, 5, 8]),
)
@settings(max_examples=30, deadline=None)
def test_engine_agrees_with_brute_force_everywhere(
    params, query_terms, k, mode, degree
):
    seed, n_docs, vocab, chunk_size = params
    index, exhaustive, safe = _build(seed, n_docs, vocab, chunk_size)
    query = Query.of([t % vocab for t in query_terms], k=k, mode=mode)
    expected = brute_force_search(index, query)
    expected_ids = [d for d, _ in expected]
    expected_scores = [s for _, s in expected]

    for engine in (exhaustive, safe):
        result = engine.execute(query, degree)
        assert result.doc_ids == expected_ids
        assert np.allclose(result.scores, expected_scores)


@given(
    params=corpus_params,
    query_terms=st.lists(st.integers(0, 59), min_size=1, max_size=3),
    budget=st.integers(1, 64),
    degree=st.sampled_from([2, 4, 7]),
)
@settings(max_examples=25, deadline=None)
def test_budget_parallel_dominates_sequential_everywhere(
    params, query_terms, budget, degree
):
    seed, n_docs, vocab, chunk_size = params
    corpus_index, _, _ = _build(seed, n_docs, vocab, chunk_size)
    engine = Engine(
        corpus_index,
        EngineConfig(termination=TerminationConfig(match_budget=budget)),
    )
    query = Query.of([t % vocab for t in query_terms], k=10)
    trace = engine.trace(query)
    sequential = engine.execute_trace(trace, 1)
    parallel = engine.execute_trace(trace, degree)
    # Parallel evaluates a superset of chunks: ranked scores dominate and
    # work never shrinks.
    assert parallel.chunks_evaluated >= sequential.chunks_evaluated
    for p_score, s_score in zip(parallel.scores, sequential.scores):
        assert p_score >= s_score - 1e-12


class _ReferenceTrace:
    """What the executors read from a trace, with every chunk scored on
    its own by the reference ``QueryPlan.score_chunk``."""

    def __init__(self, plan, cost_model):
        self.plan = plan
        self.cost_model = cost_model
        self._entries = {}

    def get(self, position):
        if position not in self._entries:
            outcome = self.plan.score_chunk(position)
            self._entries[position] = (outcome, self.cost_model.chunk_time(outcome))
        return self._entries[position]


@given(
    params=corpus_params,
    query_terms=st.lists(st.integers(0, 59), min_size=1, max_size=4),
    k=st.integers(1, 15),
    mode=st.sampled_from([MatchMode.ALL, MatchMode.ANY]),
    budget=st.sampled_from([None, 3, 256]),
    use_score_bound=st.booleans(),
    degree=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_block_filled_trace_executes_identically_to_per_chunk_reference(
    params, query_terms, k, mode, budget, use_score_bound, degree,
):
    seed, n_docs, vocab, chunk_size = params
    index, _, _ = _build(seed, n_docs, vocab, chunk_size)
    engine = Engine(
        index,
        EngineConfig(
            termination=TerminationConfig(
                match_budget=budget,
                use_score_bound=use_score_bound,
            )
        ),
    )
    query = Query.of([t % vocab for t in query_terms], k=k, mode=mode)
    trace = engine.trace(query)
    reference = _ReferenceTrace(engine.plan(query), engine.config.cost_model)
    # Dataclass equality: results, latency, cpu_time, worker_busy, every
    # work counter and the fired rule.
    assert engine.execute_trace(trace, degree) == engine.execute_trace(reference, degree)
    # A second degree on the shared, already filled trace is exact too.
    assert engine.execute_trace(trace, 4) == engine.execute_trace(reference, 4)


def test_threads_missing_in_one_block_all_observe_reference_entries():
    index, exhaustive, _ = _build(seed=7, n_docs=250, vocab=12, chunk_size=5)
    query = Query.of([0, 1, 2], k=10, mode=MatchMode.ANY)
    trace = exhaustive.trace(query)
    n_positions = trace.n_positions
    assert n_positions > 28, "need positions in at least four blocks"
    reference = _ReferenceTrace(exhaustive.plan(query), trace.cost_model)
    observed = [[] for _ in range(8)]
    start = threading.Barrier(8)

    def reader(slot):
        start.wait(timeout=30)
        # Overlapping walks: every thread reads every position, each
        # starting in a different place, so misses collide inside blocks.
        for step in range(n_positions):
            position = (slot * 5 + step) % n_positions
            observed[slot].append((position, trace.get(position)))

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert trace.n_evaluated == n_positions
    for entries in observed:
        assert len(entries) == n_positions
        for position, (outcome, cost) in entries:
            expected, expected_cost = reference.get(position)
            assert outcome.chunk_id == expected.chunk_id
            assert np.array_equal(outcome.doc_ids, expected.doc_ids)
            assert list(outcome.scores) == list(expected.scores)
            assert outcome.postings_scanned == expected.postings_scanned
            assert outcome.n_matched == expected.n_matched
            assert cost == expected_cost
