"""Tripwires on the engine's per-chunk cost.

A merged chunk costs what the interpreter does for it: its share of a
claim, a stop-rule probe, a block lookup and a merge into the top-k, and
a share of the kernel call that scored its block. These count that work
exactly (the counts repeat run to run) instead of timing it, so a change
that puts a numpy mask, a dataclass, a per-chunk object or a
per-chunk recomputation back on the merge loop fails here before a
benchmark could resolve it.
"""

import sys

import pytest

#: Python-level calls per merged chunk for ``sample_queries`` at each
#: degree; the bound leaves 10 % for incidental growth. Before scored
#: blocks were kept as columns and the sequential driver merged a run of
#: positions per claim, the same queries cost 15.3 (degree 1) and 16.3
#: (degree 4) calls a merged chunk: one claim, stop-rule probe, trace
#: lookup and merge per chunk, two trace lookups per chunk at degree 4,
#: and a named tuple per scored chunk. Earlier still, 29.8 and 33.2, when
#: every merge masked the candidates with numpy and offered them one
#: ``TopK.offer`` call each, every scored chunk built a frozen dataclass,
#: every stop-rule probe re-read the candidate count through a property
#: and recomputed its budget, and a chunk without matches still went
#: through the heap.
CALLS_PER_MERGED_CHUNK = {1: 9.9, 4: 13.7}


@pytest.mark.parametrize("degree", sorted(CALLS_PER_MERGED_CHUNK))
def test_python_calls_per_merged_chunk(small_engine, sample_queries, degree):
    """``sys.setprofile`` ``"call"`` events (Python frames only; C calls
    are not counted) over ``Engine.execute`` of every sample query, plan
    build included, per chunk evaluated."""
    for query in sample_queries:
        # The first touch of a term builds its posting-list view; keep
        # that out of the count.
        small_engine.execute(query, degree)
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call":
            calls[0] += 1

    results = []
    sys.setprofile(profiler)
    try:
        for query in sample_queries:
            results.append(small_engine.execute(query, degree))
    finally:
        sys.setprofile(None)
    per_chunk = calls[0] / sum(result.chunks_evaluated for result in results)
    assert per_chunk <= CALLS_PER_MERGED_CHUNK[degree] * 1.1, per_chunk
