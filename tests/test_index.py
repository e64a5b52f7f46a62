"""Tests for the inverted index: chunks, postings, lexicon, builder."""

import hashlib
import inspect

import numpy as np
import pytest

from repro.corpus.documents import Corpus
from repro.errors import IndexError_
from repro.index.builder import IndexConfig, build_index
from repro.index.chunks import ChunkMap
from repro.index.io import ARRAY_NAMES, load_index, save_index
from repro.index.lexicon import Lexicon
from repro.index.postings import PostingList
from repro.ranking.bm25 import BM25Params, bm25_score_document


class TestChunkMap:
    def test_partition_covers_all_docs(self):
        cm = ChunkMap(n_docs=1000, chunk_size=64)
        assert cm.bounds[0] == 0 and cm.bounds[-1] == 1000
        assert np.diff(cm.bounds).sum() == 1000

    def test_last_chunk_may_be_short(self):
        cm = ChunkMap(n_docs=100, chunk_size=30)
        assert cm.n_chunks == 4
        assert cm.chunk_range(3) == (90, 100)

    def test_iteration(self):
        cm = ChunkMap(n_docs=10, chunk_size=4)
        assert list(cm) == [(0, 4), (4, 8), (8, 10)]

    def test_exact_division(self):
        cm = ChunkMap(n_docs=12, chunk_size=4)
        assert cm.n_chunks == 3

    def test_out_of_range_rejected(self):
        cm = ChunkMap(n_docs=10, chunk_size=4)
        with pytest.raises(Exception):
            cm.chunk_range(3)


def _make_plist(doc_ids, impacts, chunk_map, term_id=0):
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    return PostingList(
        term_id=term_id,
        doc_ids=doc_ids,
        freqs=np.ones_like(doc_ids),
        impacts=np.asarray(impacts, dtype=np.float64),
        chunk_map=chunk_map,
    )


class TestPostingList:
    def test_chunk_slices_partition_postings(self):
        cm = ChunkMap(n_docs=100, chunk_size=10)
        plist = _make_plist([1, 5, 11, 55, 99], [1.0, 2.0, 3.0, 4.0, 5.0], cm)
        total = 0
        for chunk_id in range(cm.n_chunks):
            ids, impacts = plist.chunk_slice(chunk_id)
            total += ids.shape[0]
            start, end = cm.chunk_range(chunk_id)
            assert np.all((ids >= start) & (ids < end))
        assert total == 5

    def test_chunk_max_impact(self):
        # Per-chunk maxima, one entry per chunk the term occurs in — an
        # absent chunk has no entry at all.
        cm = ChunkMap(n_docs=40, chunk_size=10)
        plist = _make_plist([0, 5, 15, 25], [1.0, 3.0, 2.0, 9.0], cm)
        assert plist.chunk_ids.tolist() == [0, 1, 2]
        assert plist.chunk_max_impact.tolist() == [3.0, 2.0, 9.0]
        assert plist.max_impact == 9.0

    def test_impact_of(self):
        cm = ChunkMap(n_docs=20, chunk_size=10)
        plist = _make_plist([3, 12], [1.5, 2.5], cm)
        assert plist.impact_of(3) == 1.5
        assert plist.impact_of(4) == 0.0

    def test_non_ascending_doc_ids_rejected(self):
        cm = ChunkMap(n_docs=20, chunk_size=10)
        with pytest.raises(IndexError_):
            _make_plist([5, 5], [1.0, 1.0], cm)

    def test_empty_posting_list(self):
        cm = ChunkMap(n_docs=20, chunk_size=10)
        plist = _make_plist([], [], cm)
        assert plist.doc_frequency == 0
        assert plist.max_impact == 0.0
        assert plist.chunk_ids.shape == (0,)


def _make_lexicon(postings, vocab_size=4, chunk_map=None, **overrides):
    """A lexicon over ``{term_id: [doc ids]}`` (impact = doc id + 1)."""
    term_ids = sorted(postings)
    lengths = [len(postings[t]) for t in term_ids]
    doc_ids = np.asarray(
        [d for t in term_ids for d in postings[t]], dtype=np.int64
    )
    columns = dict(
        vocab_size=vocab_size,
        term_ids=np.asarray(term_ids, dtype=np.int64),
        term_offsets=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        doc_ids=doc_ids,
        freqs=np.ones_like(doc_ids),
        impacts=doc_ids + 1.0,
        chunk_map=chunk_map or ChunkMap(n_docs=10, chunk_size=5),
    )
    columns.update(overrides)
    return Lexicon(**columns)


class TestLexicon:
    def test_lookup(self):
        lex = _make_lexicon({2: [1, 2]})
        assert 2 in lex and 1 not in lex
        assert len(lex) == 1 and list(lex) == [2]
        assert lex.doc_frequency(2) == 2
        assert lex.doc_frequency(1) == 0
        plist = lex.postings(2)
        assert plist.doc_ids.tolist() == [1, 2]
        assert plist.max_impact == 3.0
        assert lex.postings_or_none(2) is plist
        assert lex.postings_or_none(1) is None

    def test_duplicate_rejected(self):
        with pytest.raises(IndexError_, match="duplicate"):
            _make_lexicon(
                {0: [1], 1: [2]}, term_ids=np.asarray([0, 0], dtype=np.int64)
            )

    def test_missing_term_raises(self):
        with pytest.raises(IndexError_):
            _make_lexicon({}).postings(0)

    def test_posting_lists_skips_absent(self):
        lex = _make_lexicon({3: [1]})
        assert [p.term_id for p in lex.posting_lists([0, 3])] == [3]

    def test_bad_offsets_rejected(self):
        with pytest.raises(IndexError_, match="entries"):
            _make_lexicon(
                {1: [0, 1], 2: [2]},
                term_offsets=np.asarray([0, 3], dtype=np.int64),  # needs 3
            )

    def test_out_of_range_term_rejected(self):
        with pytest.raises(IndexError_, match="outside"):
            _make_lexicon({5: [1]}, vocab_size=2)

class TestBuilder:
    def test_index_covers_corpus(self, tiny_corpus, tiny_index):
        assert tiny_index.n_docs == tiny_corpus.n_docs
        assert tiny_index.n_postings == tiny_corpus.n_postings

    def test_df_matches_corpus(self, tiny_corpus, tiny_index):
        corpus_df = tiny_corpus.document_frequencies()
        index_df = tiny_index.lexicon.document_frequencies()
        assert np.array_equal(corpus_df, index_df)

    def test_posting_lists_sorted(self, tiny_index):
        for term_id in list(tiny_index.lexicon)[:50]:
            plist = tiny_index.lexicon.postings(term_id)
            assert np.all(np.diff(plist.doc_ids) > 0)

    def test_impacts_match_reference_bm25(self, tiny_corpus, tiny_index):
        """Precomputed impacts equal the reference scorer's idf*tf."""
        params = tiny_index.bm25_params
        df = tiny_corpus.document_frequencies()
        for doc_id in (0, 100, 500):
            doc = tiny_corpus.document(doc_id)
            terms = doc.term_ids[:5]
            expected = bm25_score_document(
                term_freqs=[doc.term_frequency(int(t)) for t in terms],
                doc_freqs=[df[int(t)] for t in terms],
                doc_length=doc.length,
                n_docs=tiny_corpus.n_docs,
                avg_doc_length=tiny_corpus.average_doc_length,
                params=params,
            )
            total = sum(
                tiny_index.lexicon.postings(int(t)).impact_of(doc_id) for t in terms
            )
            assert total == pytest.approx(expected, rel=1e-9)

    def test_memory_footprint_positive(self, tiny_index):
        assert tiny_index.memory_footprint_bytes() > 0

    def test_chunk_size_config(self, tiny_corpus):
        index = build_index(tiny_corpus, IndexConfig(chunk_size=200))
        assert index.chunk_map.chunk_size == 200

    def test_custom_bm25_params_propagate(self, tiny_corpus):
        index = build_index(
            tiny_corpus, IndexConfig(chunk_size=100, bm25=BM25Params(k1=2.0, b=0.5))
        )
        assert index.bm25_params.k1 == 2.0


class TestOneLexicon:
    """One lexicon from ``build_index`` to the mmap: the index a test
    builds in memory is the thing a worker maps."""

    #: sha256 over the seven columns of ``tiny_corpus``'s shard, computed
    #: with the per-term builder loop (commit 05b58ea) before it went.
    TINY_SHARD_SHA256 = (
        "3c4b827c625acd074204988e84d8e3fa0bf3724dc36c4102201053b0fb1579f2"
    )

    def test_module_defines_exactly_one_class(self):
        import repro.index.lexicon as module

        classes = [
            name
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
        assert classes == ["Lexicon"]
        assert not hasattr(Lexicon, "add")

    def test_built_and_loaded_share_the_type(self, tiny_index, tmp_path):
        loaded = load_index(save_index(tiny_index, tmp_path / "shard"))
        assert type(tiny_index.lexicon) is type(loaded.lexicon) is Lexicon
        assert list(inspect.signature(load_index).parameters) == ["path"]

    def test_build_materializes_nothing(self, tiny_corpus):
        index = build_index(tiny_corpus, IndexConfig(chunk_size=64))
        assert index.n_postings == tiny_corpus.n_postings
        assert "materialized=0" in repr(index.lexicon)

    def test_empty_corpus_builds_and_roundtrips(self, tmp_path):
        corpus = Corpus(
            doc_lengths=np.zeros(3, dtype=np.int64),
            static_ranks=np.asarray([3.0, 2.0, 1.0]),
            offsets=np.zeros(4, dtype=np.int64),
            terms=np.empty(0, dtype=np.int64),
            freqs=np.empty(0, dtype=np.int64),
            vocab_size=5,
        )
        for index in (
            build_index(corpus),
            load_index(save_index(build_index(corpus), tmp_path / "shard")),
        ):
            assert index.n_terms == 0 and index.n_postings == 0
            assert index.lexicon.posting_lists([0, 4]) == []
            assert not index.lexicon.document_frequencies().any()

    def test_shard_bytes_pinned(self, tiny_corpus, tmp_path):
        index = build_index(tiny_corpus, IndexConfig(chunk_size=64))
        path = save_index(index, tmp_path / "shard")
        digest = hashlib.sha256()
        for name in ARRAY_NAMES:
            digest.update((path / f"{name}.npy").read_bytes())
        assert digest.hexdigest() == self.TINY_SHARD_SHA256
