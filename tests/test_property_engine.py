"""Property-based differential testing of the engine on random corpora.

Hypothesis generates miniature corpora and queries; on every one, the
engine (exhaustive and safe-termination, sequential and parallel) must
agree with the brute-force reference searcher, and an execution whose
chunks were scored a block at a time through the batched kernel must
equal — whole ``ExecutionResult`` — one whose chunks were scored one at a
time by the reference scorer.

The parallel protocol is correct only if its answer does not depend on
the order in which workers finish. Two oracles draw that order instead of
waiting for a host scheduler to produce it: drawn chunk costs reorder the
parallel executor's completion events, and a drawn list of worker ids
interleaves ``ChunkScan`` claims and merges directly.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.engine.executor import Engine, EngineConfig
from repro.engine.query import Query
from repro.engine.reference import brute_force_search
from repro.engine.scan import ChunkScan
from repro.engine.termination import TerminationConfig
from repro.engine.trace import ChunkTrace
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
    degree=st.sampled_from([1, 2, 3, 5, 8]),
)
@settings(max_examples=30, deadline=None)
def test_engine_agrees_with_brute_force_everywhere(params, query_terms, k, degree):
    seed, n_docs, vocab, chunk_size = params
    index, exhaustive, safe = _build(seed, n_docs, vocab, chunk_size)
    query = Query.of([t % vocab for t in query_terms], k=k)
    expected = brute_force_search(index, query)
    expected_ids = [d for d, _ in expected]
    expected_scores = [s for _, s in expected]

    for engine in (exhaustive, safe):
        result = engine.execute(query, degree)
        assert result.doc_ids == expected_ids
        assert np.allclose(result.scores, expected_scores)


EXHAUSTIVE = TerminationConfig(match_budget=None, use_score_bound=False)
SCORE_BOUND = TerminationConfig(match_budget=None, use_score_bound=True)
#: Exhaustive and score-bound-only runs are exact at every degree; a
#: small match budget lets extra chunks in, the speculative waste.
terminations = st.one_of(
    st.sampled_from([EXHAUSTIVE, SCORE_BOUND]),
    st.builds(TerminationConfig, match_budget=st.integers(1, 64)),
)


class _DrawnCostTrace(ChunkTrace):
    """The real outcomes at drawn virtual costs, cycled over positions:
    the parallel executor's workers finish in the order the draw says."""

    def __init__(self, plan, cost_model, costs):
        super().__init__(plan, cost_model)
        self._costs = costs

    def get(self, position):
        outcome, _ = super().get(position)
        return outcome, self._costs[position % len(self._costs)]


def _assert_matches_sequential(result, sequential, trace, termination):
    """Exact under exhaustive and score-bound-only termination; under a
    budget, scores dominate and work never shrinks. Either way the work
    counters are those of the claimed prefix of positions."""
    if termination.match_budget is None:
        assert result.doc_ids == sequential.doc_ids
        assert result.scores == sequential.scores
    else:
        assert result.chunks_evaluated >= sequential.chunks_evaluated
        assert len(result.scores) >= len(sequential.scores)
        for p_score, s_score in zip(result.scores, sequential.scores):
            assert p_score >= s_score
    outcomes = [trace.get(p)[0] for p in range(result.chunks_evaluated)]
    assert result.postings_scanned == sum(o.postings_scanned for o in outcomes)
    assert result.docs_matched == sum(o.n_matched for o in outcomes)


@given(
    params=corpus_params,
    query_terms=st.lists(st.integers(0, 59), min_size=1, max_size=3),
    termination=terminations,
    degree=st.integers(2, 8),
    # None keeps the cost model's own schedule; 0 and repeats draw ties.
    costs=st.none() | st.lists(st.sampled_from([0.0, 1e-6, 3e-6, 1e-5, 1e-4]), min_size=1),
)
@settings(max_examples=150, deadline=None)
def test_budget_parallel_dominates_sequential_everywhere(
    params, query_terms, termination, degree, costs
):
    """Drawn chunk costs reorder the parallel workers' completions; the
    answer stays the sequential one, or dominates it under a budget."""
    seed, n_docs, vocab, chunk_size = params
    index, _, _ = _build(seed, n_docs, vocab, chunk_size)
    engine = Engine(index, EngineConfig(termination=termination))
    query = Query.of([t % vocab for t in query_terms], k=10)
    trace = engine.trace(query)
    if costs is not None:
        trace = _DrawnCostTrace(trace.plan, trace.cost_model, costs)
    sequential = engine.execute_trace(trace, 1)
    parallel = engine.execute_trace(trace, degree)
    _assert_matches_sequential(parallel, sequential, trace, termination)


def _rule_due(trace, termination, merged, position):
    """The stop rule a claim of ``position`` must fire, recounted from the
    outcomes merged so far, or None when the claim must be granted."""
    if position >= trace.n_positions:
        return "exhausted"
    k = trace.plan.query.k
    outcomes = [trace.get(p)[0] for p in merged]
    budget = termination.match_budget
    if budget is not None and sum(o.n_matched for o in outcomes) >= max(budget, k):
        return "match_budget"
    scores = sorted((s for o in outcomes for s in o.scores.tolist()), reverse=True)
    if termination.use_score_bound and len(scores) >= k:
        if trace.plan.bounds_from[position] <= scores[k - 1]:
            return "score_bound"
    return None


@given(
    params=corpus_params,
    query_terms=st.lists(st.integers(0, 59), min_size=1, max_size=3),
    k=st.integers(1, 15),
    termination=terminations,
    workers=st.integers(2, 8),
    schedule=st.lists(st.integers(0, 7), min_size=16, max_size=64),
)
@settings(max_examples=300, deadline=None)
def test_chunk_scan_is_order_independent_under_drawn_interleavings(
    params, query_terms, k, termination, workers, schedule
):
    """A drawn list of worker ids, repeated until the scan drains, says who
    acts next: an idle worker claims, a worker holding a position merges
    it. Its first 64 steps can follow any order that a driver serialising
    claim and merge produces. Each claim is granted exactly when no stop
    rule is due, and the grants run 0, 1, 2, … in order."""
    seed, n_docs, vocab, chunk_size = params
    index, _, _ = _build(seed, n_docs, vocab, chunk_size)
    engine = Engine(index, EngineConfig(termination=termination))
    query = Query.of([t % vocab for t in query_terms], k=k)
    trace = engine.trace(query)
    scan = ChunkScan(trace.plan, termination)
    holding = [None] * workers
    merged, granted = [], []
    fired = None
    # Every worker that holds a position is named in the schedule, so the
    # loop ends once the scan has stopped and every held position merged.
    for worker in itertools.cycle(w % workers for w in schedule):
        if fired is not None and holding == [None] * workers:
            break
        if holding[worker] is not None:
            scan.merge(trace.get(holding[worker])[0])
            merged.append(holding[worker])
            holding[worker] = None
            continue
        due = fired or _rule_due(trace, termination, merged, len(granted))
        position = scan.claim()
        assert (position < 0) == (due is not None)
        if position < 0:
            fired = due
            assert scan.state.fired_rule == fired
        else:
            assert position == len(granted)
            granted.append(position)
            holding[worker] = position

    assert sorted(merged) == granted
    result = scan.result(degree=workers, latency=0.0, cpu_time=0.0, worker_busy=())
    sequential = engine.execute_trace(trace, 1)
    _assert_matches_sequential(result, sequential, trace, termination)


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
    budget=st.sampled_from([None, 3, 256]),
    use_score_bound=st.booleans(),
    degree=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_block_filled_trace_executes_identically_to_per_chunk_reference(
    params, query_terms, k, budget, use_score_bound, degree,
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
    query = Query.of([t % vocab for t in query_terms], k=k)
    trace = engine.trace(query)
    reference = _ReferenceTrace(engine.plan(query), engine.config.cost_model)
    # Dataclass equality: results, latency, cpu_time, worker_busy, every
    # work counter and the fired rule.
    assert engine.execute_trace(trace, degree) == engine.execute_trace(reference, degree)
    # A second degree on the shared, already filled trace is exact too.
    assert engine.execute_trace(trace, 4) == engine.execute_trace(reference, 4)
