"""Tests for the inverted index: chunks, postings, lexicon, builder."""

import hashlib
import inspect

import numpy as np
import pytest

from repro.corpus import generator
from repro.corpus.documents import Corpus
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.errors import IndexError_
from repro.index import builder
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


def _lexsort_invert(corpus):
    """The inversion as one ``lexsort`` over (term, doc) plus
    ``np.unique`` for the term starts, as it was before the packed key:
    the oracle."""
    doc_ids_flat = np.repeat(
        np.arange(corpus.n_docs, dtype=np.int64), np.diff(corpus.offsets)
    )
    order = np.lexsort((doc_ids_flat, corpus.terms))
    term_ids, term_starts = np.unique(corpus.terms[order], return_index=True)
    term_offsets = np.append(term_starts, order.shape[0])
    return term_ids, term_offsets, doc_ids_flat[order], corpus.freqs[order]


def _corpus(per_doc, vocab_size):
    """A corpus from ``[[(term, freq), ...] per doc]``, terms ascending."""
    n_docs = len(per_doc)
    pairs = [pair for doc in per_doc for pair in doc]
    return Corpus(
        doc_lengths=np.asarray([sum(f for _, f in doc) for doc in per_doc], dtype=np.int64),
        static_ranks=np.linspace(1.0, 0.5, n_docs),
        offsets=np.cumsum([0] + [len(doc) for doc in per_doc]).astype(np.int64),
        terms=np.asarray([t for t, _ in pairs], dtype=np.int64),
        freqs=np.asarray([f for _, f in pairs], dtype=np.int64),
        vocab_size=vocab_size,
    )


def _many_batches_corpus():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "BATCH_DOCS", 7)
        return generate_corpus(CorpusConfig(n_docs=100, vocab_size=300, seed=9))


class TestOneIntegerSort:
    """The inverter sorts one packed int64 key and builds exactly the
    columns the ``lexsort`` + ``np.unique`` inversion built."""

    #: sha256 over the small workbench's five corpus arrays and five
    #: lexicon columns (name, dtype, shape and bytes of each), computed
    #: with the two-``lexsort`` generator and inverter (commit 766f892).
    SMALL_WORKBENCH_SHA256 = (
        "90eace69b565f744bf461d5b611eb4cfa32709b96603323b12010472ba91c582"
    )

    CORPORA = {
        "tiny_corpus": lambda: generate_corpus(
            CorpusConfig(n_docs=800, vocab_size=1_500, mean_doc_length=120, seed=11)
        ),
        "many_batches": _many_batches_corpus,
        "vocab_size_1": lambda: generate_corpus(
            CorpusConfig(n_docs=50, vocab_size=1, seed=4)
        ),
        "one_term_doc": lambda: _corpus(
            [[(0, 2), (3, 1)], [(2, 9)], [(0, 1), (2, 4), (3, 3)], [(3, 8)]], 4
        ),
        "empty": lambda: _corpus([[], [], []], 5),
    }

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_equals_lexsort(self, monkeypatch, name):
        corpus = self.CORPORA[name]()
        packed = build_index(corpus).lexicon.columns()
        monkeypatch.setattr(builder, "_invert", _lexsort_invert)
        oracle = build_index(corpus).lexicon.columns()
        assert list(packed) == list(oracle)
        for column in packed:
            assert packed[column].dtype == oracle[column].dtype, column
            assert np.array_equal(packed[column], oracle[column]), column

    def test_small_workbench_pinned(self, small_workbench):
        corpus = small_workbench.corpus
        columns = {
            "doc_lengths": corpus.doc_lengths,
            "static_ranks": corpus.static_ranks,
            "offsets": corpus.offsets,
            "terms": corpus.terms,
            "freqs": corpus.freqs,
        }
        digest = hashlib.sha256()
        for name, array in columns.items():
            digest.update(f"corpus.{name}:{array.dtype.str}:{array.shape}".encode())
            digest.update(array.tobytes())
        for name, array in sorted(small_workbench.index.lexicon.columns().items()):
            digest.update(f"lexicon.{name}:{array.dtype.str}:{array.shape}".encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.SMALL_WORKBENCH_SHA256

    def test_key_must_fit_int64(self):
        # 2**40 terms x 3 docs needs 42 bits; a frequency of 2**30 adds 31.
        assert build_index(_corpus([[(0, 1)], [], []], 2**40)).n_postings == 1
        with pytest.raises(IndexError_, match=r"vocab_size 1099511627776 x n_docs 3 << 31"):
            build_index(_corpus([[(0, 2**30)], [], []], 2**40))
        with pytest.raises(IndexError_, match=r"vocab_size 4611686018427387904 x n_docs 3 << 0"):
            build_index(_corpus([[], [], []], 2**62))

    def test_negative_frequency_rejected(self):
        with pytest.raises(IndexError_, match="non-negative"):
            build_index(_corpus([[(0, 1), (1, -1)]], 2))
