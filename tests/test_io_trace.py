"""Tests for index persistence (the v2 shard and the lexicon over it)."""

import numpy as np
import pytest

from repro.engine.executor import Engine
from repro.errors import IndexError_
from repro.index.io import load_index, save_index
from repro.workloads.queries import QueryGenerator, QueryWorkloadConfig


class TestIndexPersistence:
    def test_roundtrip_structure(self, tiny_index, tmp_path):
        path = save_index(tiny_index, tmp_path / "shard")
        loaded = load_index(path)
        assert loaded.n_docs == tiny_index.n_docs
        assert loaded.n_terms == tiny_index.n_terms
        assert loaded.chunk_map.chunk_size == tiny_index.chunk_map.chunk_size
        assert loaded.bm25_params == tiny_index.bm25_params
        assert np.array_equal(loaded.doc_lengths, tiny_index.doc_lengths)
        assert np.allclose(loaded.static_ranks, tiny_index.static_ranks)

    def test_roundtrip_posting_lists(self, tiny_index, tmp_path):
        loaded = load_index(save_index(tiny_index, tmp_path / "shard"))
        for term_id in list(tiny_index.lexicon)[:25]:
            original = tiny_index.lexicon.postings(term_id)
            restored = loaded.lexicon.postings(term_id)
            assert np.array_equal(original.doc_ids, restored.doc_ids)
            assert np.array_equal(original.freqs, restored.freqs)
            assert np.allclose(original.impacts, restored.impacts)
            assert np.array_equal(original.chunk_ids, restored.chunk_ids)

    def test_loaded_index_executes_identically(
        self, tiny_index, tmp_path, small_workbench
    ):
        loaded = load_index(save_index(tiny_index, tmp_path / "shard"))
        original_engine = Engine(tiny_index)
        loaded_engine = Engine(loaded)
        generator = QueryGenerator(
            QueryWorkloadConfig(vocab_size=tiny_index.lexicon.vocab_size, seed=3)
        )
        for query in generator.sample_many(10):
            a = original_engine.execute(query, 2)
            b = loaded_engine.execute(query, 2)
            assert a.doc_ids == b.doc_ids
            assert a.latency == b.latency

    def test_version_check_v2(self, tiny_index, tmp_path):
        import json

        path = save_index(tiny_index, tmp_path / "shard_v2")
        meta_path = path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexError_):
            load_index(path)

    def test_large_vocab_roundtrip(self, tmp_path):
        # Regression for the vectorized columnar flatten: a vocabulary
        # much larger than the document count produces thousands of
        # short posting lists, the worst case for the old per-term copy
        # loop and the easiest place for an offsets off-by-one to hide.
        from repro.corpus.generator import CorpusConfig, generate_corpus
        from repro.index.builder import IndexConfig, build_index

        corpus = generate_corpus(
            CorpusConfig(n_docs=400, vocab_size=6_000, mean_doc_length=80, seed=5)
        )
        index = build_index(corpus, IndexConfig(chunk_size=64))
        loaded = load_index(save_index(index, tmp_path / "big"))
        assert np.array_equal(
            loaded.lexicon.document_frequencies(),
            index.lexicon.document_frequencies(),
        )
        for term_id in list(index.lexicon)[:: max(1, len(index.lexicon) // 50)]:
            original = index.lexicon.postings(term_id)
            restored = loaded.lexicon.postings(term_id)
            assert np.array_equal(original.doc_ids, restored.doc_ids)
            assert np.array_equal(original.impacts, restored.impacts)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(IndexError_):
            load_index(tmp_path / "nothing_here")

    def test_regular_file_rejected_as_removed_v1_archive(self, tmp_path):
        archive = tmp_path / "shard.npz"
        archive.write_bytes(b"PK\x03\x04")
        with pytest.raises(IndexError_, match="v1 .npz archives"):
            load_index(archive)


class TestFormatV2:
    """The memory-mappable directory container."""

    def _queries(self, index, n=15):
        from repro.workloads.queries import QueryGenerator, QueryWorkloadConfig

        generator = QueryGenerator(
            QueryWorkloadConfig(vocab_size=index.lexicon.vocab_size, seed=7)
        )
        return generator.sample_many(n)

    def test_mmap_columns_are_memory_mapped(self, tiny_index, tmp_path):
        path = save_index(tiny_index, tmp_path / "shard")
        columns = load_index(path).lexicon.columns()
        assert isinstance(columns["posting_doc_ids"], np.memmap)

    def test_loaded_shard_resaves_identically(self, tiny_index, tmp_path):
        # Saving a loaded shard writes the mapped columns verbatim.
        first = save_index(tiny_index, tmp_path / "first")
        loaded = load_index(first)
        second = save_index(loaded, tmp_path / "second")
        for name in ("posting_doc_ids", "posting_impacts", "term_offsets"):
            a = np.load(first / f"{name}.npy")
            b = np.load(second / f"{name}.npy")
            assert np.array_equal(a, b)

    def test_missing_array_rejected(self, tiny_index, tmp_path):
        path = save_index(tiny_index, tmp_path / "shard")
        (path / "posting_freqs.npy").unlink()
        with pytest.raises(IndexError_):
            load_index(path)

    def test_truncated_array_rejected(self, tiny_index, tmp_path):
        path = save_index(tiny_index, tmp_path / "shard")
        (path / "posting_doc_ids.npy").write_bytes(b"\x93NUMPY")
        with pytest.raises(IndexError_):
            load_index(path)

    def test_missing_meta_rejected(self, tiny_index, tmp_path):
        path = save_index(tiny_index, tmp_path / "shard")
        (path / "meta.json").unlink()
        with pytest.raises(IndexError_):
            load_index(path)

    def test_malformed_meta_rejected(self, tiny_index, tmp_path):
        path = save_index(tiny_index, tmp_path / "shard")
        (path / "meta.json").write_text("{not json")
        with pytest.raises(IndexError_):
            load_index(path)

    def test_meta_missing_field_rejected(self, tiny_index, tmp_path):
        import json

        path = save_index(tiny_index, tmp_path / "shard")
        meta = json.loads((path / "meta.json").read_text())
        del meta["bm25"]
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IndexError_):
            load_index(path)


class TestLoadedLexicon:
    def test_df_answered_without_materializing(self, tiny_index, tmp_path):
        loaded = load_index(save_index(tiny_index, tmp_path / "shard"))
        lexicon = loaded.lexicon
        df = lexicon.document_frequencies()
        assert np.array_equal(df, tiny_index.lexicon.document_frequencies())
        some_term = next(iter(lexicon))
        assert lexicon.doc_frequency(some_term) == df[some_term]
        # Statistics come straight from the offsets: nothing materialized.
        assert "materialized=0" in repr(lexicon)
        lexicon.postings(some_term)
        assert "materialized=1" in repr(lexicon)

    def test_materialized_postings_cached(self, tiny_index, tmp_path):
        loaded = load_index(save_index(tiny_index, tmp_path / "shard"))
        term = next(iter(loaded.lexicon))
        assert loaded.lexicon.postings(term) is loaded.lexicon.postings(term)

    def test_len_iter_contains(self, tiny_index, tmp_path):
        loaded = load_index(save_index(tiny_index, tmp_path / "shard"))
        assert len(loaded.lexicon) == len(tiny_index.lexicon)
        assert list(loaded.lexicon) == list(tiny_index.lexicon)
        present = next(iter(tiny_index.lexicon))
        assert present in loaded.lexicon
        assert loaded.lexicon.vocab_size + 1 not in loaded.lexicon
        absent_df = loaded.lexicon.doc_frequency(loaded.lexicon.vocab_size + 1)
        assert absent_df == 0
        assert loaded.lexicon.postings_or_none(loaded.lexicon.vocab_size + 1) is None

    def test_n_postings_does_not_materialize(self, tiny_index, tmp_path):
        loaded = load_index(save_index(tiny_index, tmp_path / "shard"))
        assert loaded.n_postings == tiny_index.n_postings
        assert "materialized=0" in repr(loaded.lexicon)


class TestShardErrorPaths:
    """Typed errors for every way a shard's columns can be corrupt.

    Each tampering mode must surface as :class:`IndexError_` naming the
    offending file (so an operator can tell *which* column is bad), not
    as a raw ``OSError``/``ValueError`` from numpy or a silent
    mis-assembled lexicon.
    """

    def test_missing_column_file_names_the_column(self, tiny_index, tmp_path):
        path = save_index(tiny_index, tmp_path / "shard")
        (path / "term_ids.npy").unlink()
        with pytest.raises(IndexError_, match="term_ids.npy"):
            load_index(path)

    def test_truncated_npy_names_the_column(self, tiny_index, tmp_path):
        path = save_index(tiny_index, tmp_path / "shard")
        column = path / "posting_impacts.npy"
        column.write_bytes(column.read_bytes()[:16])
        with pytest.raises(IndexError_, match="posting_impacts.npy"):
            load_index(path)

    def test_meta_columns_length_mismatch_rejected(self, tiny_index, tmp_path):
        # term_offsets must have exactly len(term_ids) + 1 entries; a
        # shard whose offsets column was swapped for a shorter array
        # parses as valid .npy files but must fail lexicon assembly.
        path = save_index(tiny_index, tmp_path / "shard")
        offsets = np.load(path / "term_offsets.npy")
        np.save(path / "term_offsets.npy", offsets[:-2])
        with pytest.raises(IndexError_, match="entries"):
            load_index(path)

    def test_term_id_outside_vocab_rejected(self, tiny_index, tmp_path):
        # meta.json's vocab_size and the term_ids column disagree: the
        # lexicon refuses rather than indexing out of bounds later.
        import json

        path = save_index(tiny_index, tmp_path / "shard")
        meta = json.loads((path / "meta.json").read_text())
        meta["vocab_size"] = 1
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IndexError_, match="outside"):
            load_index(path)

    def test_mmap_loaded_shard_queries_match_original(
        self, tiny_index, tmp_path
    ):
        path = save_index(tiny_index, tmp_path / "shard")
        mapped = load_index(path)
        original = Engine(tiny_index)
        loaded = Engine(mapped)
        generator = QueryGenerator(
            QueryWorkloadConfig(vocab_size=tiny_index.lexicon.vocab_size, seed=11)
        )
        for query in generator.sample_many(8):
            a = original.execute(query, 2)
            b = loaded.execute(query, 2)
            assert a.doc_ids == b.doc_ids
