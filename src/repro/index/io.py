"""Index persistence: memory-mappable columnar shards.

Production ISNs memory-map prebuilt shards rather than re-inverting the
corpus on every start; this module provides the equivalent for the
reproduction (and lets experiments share one build across processes).
A shard stores a columnar layout — one flat array per posting-list
field, with per-term offsets, exactly what
:class:`~repro.index.lexicon.Lexicon` is backed by — so a save writes
the lexicon's columns verbatim, a load wraps them in O(1), and posting
lists materialize as zero-copy slices on first touch.

The container (format v2) is a *directory* of uncompressed ``.npy``
files plus a ``meta.json`` manifest. Each column loads with
``mmap_mode="r"``, so opening a shard is O(1) regardless of size, only
the pages queries actually touch become resident, and shards larger
than RAM serve fine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.errors import IndexError_
from repro.index.chunks import ChunkMap
from repro.index.inverted import InvertedIndex
from repro.index.lexicon import Lexicon
from repro.ranking.bm25 import BM25Params

FORMAT_VERSION = 2

META_FILE = "meta.json"
#: Columnar arrays of a shard (one .npy file each).
ARRAY_NAMES = (
    "doc_lengths",
    "static_ranks",
    "term_ids",
    "term_offsets",
    "posting_doc_ids",
    "posting_freqs",
    "posting_impacts",
)


def save_index(index: InvertedIndex, path: Union[str, Path]) -> Path:
    """Serialize ``index`` to the shard directory ``path``."""
    path = Path(path)
    columns = {
        **index.lexicon.columns(),
        "doc_lengths": index.doc_lengths,
        "static_ranks": index.static_ranks,
    }
    path.mkdir(parents=True, exist_ok=True)
    for name in ARRAY_NAMES:
        np.save(path / f"{name}.npy", np.ascontiguousarray(columns[name]))
    meta = {
        "format_version": FORMAT_VERSION,
        "vocab_size": index.lexicon.vocab_size,
        "chunk_size": index.chunk_map.chunk_size,
        "bm25": {"k1": index.bm25_params.k1, "b": index.bm25_params.b},
        "arrays": list(ARRAY_NAMES),
    }
    (path / META_FILE).write_text(json.dumps(meta, indent=2) + "\n")
    return path


def _assemble(
    vocab_size: int,
    chunk_size: int,
    k1: float,
    b: float,
    arrays: Dict[str, np.ndarray],
) -> InvertedIndex:
    """Build an index over loaded columns."""
    doc_lengths = arrays["doc_lengths"]
    chunk_map = ChunkMap(int(doc_lengths.shape[0]), chunk_size)
    lexicon = Lexicon(
        vocab_size=vocab_size,
        term_ids=np.asarray(arrays["term_ids"], dtype=np.int64),
        term_offsets=np.asarray(arrays["term_offsets"], dtype=np.int64),
        doc_ids=arrays["posting_doc_ids"],
        freqs=arrays["posting_freqs"],
        impacts=arrays["posting_impacts"],
        chunk_map=chunk_map,
    )
    return InvertedIndex(
        lexicon=lexicon,
        chunk_map=chunk_map,
        doc_lengths=doc_lengths,
        static_ranks=arrays["static_ranks"],
        bm25_params=BM25Params(k1=k1, b=b),
    )


def load_index(path: Union[str, Path]) -> InvertedIndex:
    """Load a shard directory previously written by :func:`save_index`.

    Columns are memory-mapped and posting lists materialize per term on
    first touch, so loading is O(1) in index size.
    """
    path = Path(path)
    if path.is_file():
        raise IndexError_(
            f"{path} is a file, not a shard directory: v1 .npz archives "
            "are no longer readable; rebuild the index and save_index it"
        )
    if not path.is_dir():
        raise IndexError_(f"no index found at {path}")
    meta_path = path / META_FILE
    if not meta_path.is_file():
        raise IndexError_(f"not an index shard: {path} has no {META_FILE}")
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError) as exc:
        raise IndexError_(f"corrupt index shard {path}: bad {META_FILE}: {exc}") from exc
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexError_(
            f"unsupported shard format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        vocab_size = int(meta["vocab_size"])
        chunk_size = int(meta["chunk_size"])
        k1 = float(meta["bm25"]["k1"])
        b = float(meta["bm25"]["b"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexError_(
            f"corrupt index shard {path}: bad {META_FILE} field: {exc}"
        ) from exc
    arrays = {}
    for name in ARRAY_NAMES:
        array_path = path / f"{name}.npy"
        if not array_path.is_file():
            raise IndexError_(f"corrupt index shard {path}: missing {name}.npy")
        try:
            arrays[name] = np.load(array_path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise IndexError_(
                f"corrupt index shard {path}: cannot read {name}.npy: {exc}"
            ) from exc
    return _assemble(vocab_size, chunk_size, k1, b, arrays)
