"""Property-based tests on core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.engine.query import Query
from repro.index.chunks import ChunkMap
from repro.index.postings import PostingList
from repro.policies.adaptive import ThresholdTable
from repro.sim.engine import Simulator
from repro.text.zipf import ZipfMandelbrot


# ---------------------------------------------------------------------------
# ChunkMap
# ---------------------------------------------------------------------------

@given(n_docs=st.integers(1, 5_000), chunk_size=st.integers(1, 600))
@settings(max_examples=150, deadline=None)
def test_chunkmap_partitions_exactly(n_docs, chunk_size):
    cm = ChunkMap(n_docs, chunk_size)
    lengths = np.diff(cm.bounds)
    assert lengths.sum() == n_docs
    assert np.all(lengths >= 1)
    assert np.all(lengths <= chunk_size)


# ---------------------------------------------------------------------------
# PostingList
# ---------------------------------------------------------------------------

posting_sets = st.lists(st.integers(0, 999), min_size=1, max_size=80,
                        unique=True).map(sorted)


@given(doc_ids=posting_sets, data=st.data())
@settings(max_examples=100, deadline=None)
def test_posting_chunk_metadata_consistent(doc_ids, data):
    chunk_size = data.draw(st.integers(1, 200))
    cm = ChunkMap(1000, chunk_size)
    doc_arr = np.asarray(doc_ids, dtype=np.int64)
    impacts = data.draw(
        arrays(np.float64, len(doc_ids),
               elements=st.floats(0.001, 100.0, allow_nan=False)))
    plist = PostingList(0, doc_arr, np.ones_like(doc_arr), impacts, cm)

    # Slices tile the postings and respect chunk ranges.
    seen = []
    for chunk_id in range(cm.n_chunks):
        ids, imp = plist.chunk_slice(chunk_id)
        start, end = cm.chunk_range(chunk_id)
        assert np.all((ids >= start) & (ids < end))
        seen.extend(ids.tolist())
        # Chunk maximum matches the slice maximum; absent chunks have
        # no entry.
        recorded = plist.chunk_max_impact[plist.chunk_ids == chunk_id]
        assert recorded.tolist() == ([imp.max()] if ids.shape[0] else [])
    assert seen == doc_ids


# ---------------------------------------------------------------------------
# Zipf sampler
# ---------------------------------------------------------------------------

@given(size=st.integers(1, 2000),
       exponent=st.floats(0.2, 3.0, allow_nan=False),
       shift=st.floats(0.0, 10.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_zipf_pmf_valid_distribution(size, exponent, shift):
    z = ZipfMandelbrot(size, exponent, shift)
    pmf = z.pmf_array()
    assert np.isclose(pmf.sum(), 1.0)
    assert np.all(pmf > 0)
    assert np.all(np.diff(pmf) <= 1e-18)


# ---------------------------------------------------------------------------
# Query normalization
# ---------------------------------------------------------------------------

@given(terms=st.lists(st.integers(0, 10_000), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_query_terms_sorted_unique(terms):
    q = Query.of(terms)
    assert list(q.term_ids) == sorted(set(terms))


# ---------------------------------------------------------------------------
# ThresholdTable monotone lookup
# ---------------------------------------------------------------------------

@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_threshold_table_lookup_monotone(data):
    n_entries = data.draw(st.integers(1, 5))
    limits = sorted(data.draw(
        st.lists(st.integers(1, 50), min_size=n_entries, max_size=n_entries,
                 unique=True)))
    degrees = sorted(data.draw(
        st.lists(st.integers(1, 64), min_size=n_entries, max_size=n_entries,
                 unique=True)), reverse=True)
    table = ThresholdTable.from_pairs(list(zip(limits, degrees)))
    picks = [table.degree_for(n) for n in range(1, max(limits) + 5)]
    assert picks == sorted(picks, reverse=True)
    assert picks[-1] == 1 or limits[-1] >= len(picks)


# ---------------------------------------------------------------------------
# Simulator event ordering
# ---------------------------------------------------------------------------

@given(times=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                      max_size=60))
@settings(max_examples=100, deadline=None)
def test_simulator_fires_in_nondecreasing_time(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule_at(t, lambda t=t: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)
