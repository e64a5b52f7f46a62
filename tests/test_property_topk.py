"""Property-based tests for the TopK heap (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.topk import TopK

offers = st.lists(
    st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=200,
)


def _reference_topk(pairs, k):
    """Oracle: full sort under (score desc, doc_id asc), dedup not needed."""
    ranked = sorted(pairs, key=lambda p: (-p[0], p[1]))
    return [(doc, score) for score, doc in ranked[:k]]


@given(pairs=offers, k=st.integers(min_value=1, max_value=20))
@settings(max_examples=200, deadline=None)
def test_topk_matches_full_sort(pairs, k):
    topk = TopK(k)
    for score, doc in pairs:
        topk.offer(score, doc)
    assert topk.results() == _reference_topk(pairs, k)


@given(pairs=offers, k=st.integers(min_value=1, max_value=20))
@settings(max_examples=100, deadline=None)
def test_topk_insensitive_to_offer_order(pairs, k):
    forward = TopK(k)
    backward = TopK(k)
    for score, doc in pairs:
        forward.offer(score, doc)
    for score, doc in reversed(pairs):
        backward.offer(score, doc)
    assert forward.results() == backward.results()


@given(pairs=offers, k=st.integers(min_value=1, max_value=20))
@settings(max_examples=100, deadline=None)
def test_offer_many_equals_offer_loop(pairs, k):
    looped = TopK(k)
    for score, doc in pairs:
        looped.offer(score, doc)
    batched = TopK(k)
    if pairs:
        scores = np.asarray([p[0] for p in pairs])
        docs = np.asarray([p[1] for p in pairs])
        batched.offer_many(scores, docs)
    assert batched.results() == looped.results()


@given(pairs=offers, k=st.integers(min_value=1, max_value=20))
@settings(max_examples=100, deadline=None)
def test_threshold_is_weakest_retained(pairs, k):
    topk = TopK(k)
    for score, doc in pairs:
        topk.offer(score, doc)
    if topk.full:
        assert topk.threshold == topk.results()[-1][1]
    else:
        assert topk.threshold == float("-inf")


# Scores on a coarse grid, so equal scores are common.
grid_pairs = st.tuples(
    st.integers(min_value=-4, max_value=4).map(lambda i: i * 0.5),
    st.integers(min_value=0, max_value=40),
)


@given(
    k=st.integers(min_value=1, max_value=10),
    prefill=st.lists(grid_pairs, min_size=10, max_size=30),
    batches=st.lists(
        st.lists(st.tuples(st.booleans(), grid_pairs), max_size=30),
        min_size=2,
        max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_offer_many_batches_on_a_full_heap_equal_offer_loop(k, prefill, batches):
    """The replace phase: several ``offer_many`` calls on a heap that is
    already full, with candidates whose score ties the root's exactly
    (a drawn ``True`` replaces the score with the root's at that batch),
    so the doc-id tie-break decides. Results and the summed admitted
    counts match an ``offer`` loop."""
    looped = TopK(k)
    batched = TopK(k)
    for score, doc in prefill:
        looped.offer(score, doc)
        batched.offer(score, doc)
    assert batched.full
    admitted_looped = admitted_batched = 0
    for batch in batches:
        root = batched.threshold
        pairs = [(root if tie else score, doc) for tie, (score, doc) in batch]
        admitted_looped += sum(looped.offer(score, doc) for score, doc in pairs)
        admitted_batched += batched.offer_many(
            np.asarray([score for score, _ in pairs], dtype=np.float64),
            np.asarray([doc for _, doc in pairs], dtype=np.int64),
        )
    assert batched.results() == looped.results()
    assert admitted_batched == admitted_looped
