"""Property-based differential testing of the engine on random corpora.

Hypothesis generates miniature corpora and queries; on every one, the
engine (exhaustive and safe-termination, sequential and parallel) must
agree with the brute-force reference searcher, and an execution whose
chunks were scored a block at a time through the batched kernel and
merged a run at a time must equal — whole ``ExecutionResult`` — a
sequential scan spelled out here, one claim, one reference-scored chunk
and one merge per step.

The parallel protocol is correct only if its answer does not depend on
the order in which workers finish. Two oracles draw that order instead of
waiting for a host scheduler to produce it: drawn chunk costs reorder the
parallel executor's completion events, and a drawn list of worker ids
interleaves ``ChunkScan`` claims and merges directly.
"""

import itertools

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.engine.executor import Engine, EngineConfig
from repro.engine.query import Query
from repro.engine.reference import brute_force_search
from repro.engine.scan import ChunkScan
from repro.engine.termination import TerminationConfig
from repro.engine.trace import ChunkTrace, ScoredBlock, _block
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
    """The real blocks at drawn virtual costs, cycled over positions:
    the parallel executor's workers finish in the order the draw says."""

    def __init__(self, plan, cost_model, costs):
        super().__init__(plan, cost_model)
        self._costs = costs

    def block(self, position):
        block = super().block(position)
        positions = range(block.start, block.start + len(block.costs))
        return block._replace(
            costs=[self._costs[p % len(self._costs)] for p in positions]
        )


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
    outcomes = [trace.plan.score_chunk(p) for p in range(result.chunks_evaluated)]
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


def _rule_due(trace, termination, chunks, merged, position):
    """The stop rule a claim of ``position`` must fire, recounted from the
    reference outcomes ``chunks`` merged so far, or None when the claim
    must be granted."""
    if position >= trace.n_positions:
        return "exhausted"
    k = trace.plan.query.k
    outcomes = [chunks[p] for p in merged]
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
    chunks = [trace.plan.score_chunk(p) for p in range(trace.n_positions)]
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
            scan.merge(trace.block(holding[worker]), holding[worker])
            merged.append(holding[worker])
            holding[worker] = None
            continue
        due = fired or _rule_due(trace, termination, chunks, merged, len(granted))
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


def _one_chunk_block(plan, cost_model, position):
    """The chunk at ``position``, scored on its own by the reference
    ``QueryPlan.score_chunk``, as a block of one position."""
    outcome = plan.score_chunk(position)
    scanned, matched = [outcome.postings_scanned], [outcome.n_matched]
    return ScoredBlock(
        position,
        outcome.doc_ids,
        outcome.scores,
        [0, outcome.n_matched],
        scanned,
        matched,
        cost_model.chunk_times(scanned, matched),
    )


def _reference_sequential(plan, cost_model, termination):
    """Degree 1 one chunk per step, written out here rather than taken
    from the driver: claim, score the claimed chunk on its own, merge it
    into the scan's heap and counters, charge its cost."""
    scan = ChunkScan(plan, termination)
    elapsed = cost_model.query_fixed_cost
    position = scan.claim()
    while position >= 0:
        outcome = plan.score_chunk(position)
        [cost] = cost_model.chunk_times([outcome.postings_scanned], [outcome.n_matched])
        elapsed += cost
        scan.chunks_evaluated += 1
        scan.postings_scanned += outcome.postings_scanned
        scan.docs_matched += outcome.n_matched
        scan.topk.offer_many(outcome.scores, outcome.doc_ids)
        scan.state.record_matches(outcome.n_matched)
        position = scan.claim()
    return scan.result(
        degree=1,
        latency=elapsed,
        cpu_time=elapsed,
        worker_busy=(elapsed - cost_model.query_fixed_cost,),
    )


def _stopped_inside_a_run(result):
    """True when a sequential run stopped on the score bound strictly
    inside a block: the one case in which ``ChunkScan.merge_run`` finds
    the bound due at its run's last position, puts the heap back and
    merges one chunk at a time."""
    stop = result.chunks_evaluated
    return result.termination_rule == "score_bound" and _block(stop)[0] != stop


class _ReferenceTrace:
    """What the executors read from a trace, with every chunk scored on
    its own by the reference ``QueryPlan.score_chunk`` and kept as a block
    of one position."""

    def __init__(self, plan, cost_model):
        self.plan = plan
        self.cost_model = cost_model
        self._blocks = {}

    def block(self, position):
        if position not in self._blocks:
            self._blocks[position] = _one_chunk_block(
                self.plan, self.cost_model, position
            )
        return self._blocks[position]


@given(
    params=corpus_params,
    query_terms=st.lists(st.integers(0, 59), min_size=1, max_size=4),
    k=st.integers(1, 15),
    budget=st.sampled_from([None, 1, 3, 256]),
    use_score_bound=st.booleans(),
    degree=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=100, deadline=None)
def test_block_filled_trace_executes_identically_to_per_chunk_reference(
    params, query_terms, k, budget, use_score_bound, degree,
):
    seed, n_docs, vocab, chunk_size = params
    index, _, _ = _build(seed, n_docs, vocab, chunk_size)
    termination = TerminationConfig(
        match_budget=budget, use_score_bound=use_score_bound
    )
    engine = Engine(index, EngineConfig(termination=termination))
    cost_model = engine.config.cost_model
    query = Query.of([t % vocab for t in query_terms], k=k)
    trace = engine.trace(query)
    # Dataclass equality: results, latency, cpu_time, worker_busy, every
    # work counter and the fired rule.
    sequential = engine.execute_trace(trace, 1)
    assert sequential == _reference_sequential(
        engine.plan(query), cost_model, termination
    )
    if _stopped_inside_a_run(sequential):
        event("score bound fired inside a run")
    # The drivers over blocks of one reference-scored chunk each, at a
    # drawn degree and again at 4 on the shared, already filled trace.
    reference = _ReferenceTrace(engine.plan(query), cost_model)
    assert engine.execute_trace(trace, degree) == engine.execute_trace(reference, degree)
    assert engine.execute_trace(trace, 4) == engine.execute_trace(reference, 4)


def test_score_bound_inside_a_run_rolls_back_exactly(
    small_engine, sample_queries, monkeypatch
):
    """The small workbench's sample under the score bound alone, at several
    ``k``: some runs find the bound due inside them, and those go through
    the roll-back, and still equal the one-chunk-per-step reference."""
    rollbacks = []
    merge_to_bound = ChunkScan._merge_to_bound

    def spy(scan, block, position, last):
        rollbacks.append(position)
        return merge_to_bound(scan, block, position, last)

    monkeypatch.setattr(ChunkScan, "_merge_to_bound", spy)
    cost_model = small_engine.config.cost_model
    engine = Engine(small_engine.index, EngineConfig(termination=SCORE_BOUND))
    inside = 0
    for k in (1, 3, 10):
        for query in sample_queries:
            query = Query.of(list(query.term_ids), k=k)
            before = len(rollbacks)
            result = engine.execute(query, 1)
            assert result == _reference_sequential(
                engine.plan(query), cost_model, SCORE_BOUND
            )
            assert _stopped_inside_a_run(result) == (len(rollbacks) > before)
            inside += _stopped_inside_a_run(result)
    assert inside >= 3, inside
