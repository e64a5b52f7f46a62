"""Document-space chunking: the unit of parallel work.

The paper parallelizes a query by partitioning the index's document space
(which is laid out in static-rank order) into contiguous *chunks* and
having worker threads claim chunks dynamically. Chunks are also the
granularity of early-termination checks: after finishing a chunk, the
executor compares the best possible score of the remaining chunks with
the current top-k threshold.

A :class:`ChunkMap` describes a fixed partition of ``[0, n_docs)`` into
``n_chunks`` contiguous ranges of ``chunk_size`` documents (the last chunk
may be short).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.util.validation import require_int_in_range


class ChunkMap:
    """Fixed-size contiguous partition of the document space."""

    def __init__(self, n_docs: int, chunk_size: int) -> None:
        require_int_in_range(n_docs, "n_docs", low=1)
        require_int_in_range(chunk_size, "chunk_size", low=1)
        self.n_docs = n_docs
        self.chunk_size = chunk_size
        self.n_chunks = (n_docs + chunk_size - 1) // chunk_size
        # bounds[i] is the first doc id of chunk i; bounds[n_chunks] == n_docs.
        self.bounds = np.minimum(
            np.arange(self.n_chunks + 1, dtype=np.int64) * chunk_size, n_docs
        )

    def chunk_range(self, chunk_id: int) -> Tuple[int, int]:
        """Half-open doc-id range ``[start, end)`` of ``chunk_id``."""
        require_int_in_range(chunk_id, "chunk_id", low=0, high=self.n_chunks - 1)
        return int(self.bounds[chunk_id]), int(self.bounds[chunk_id + 1])

    def __len__(self) -> int:
        return self.n_chunks

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for chunk_id in range(self.n_chunks):
            yield self.chunk_range(chunk_id)

    def __repr__(self) -> str:
        return (
            f"ChunkMap(n_docs={self.n_docs}, chunk_size={self.chunk_size}, "
            f"n_chunks={self.n_chunks})"
        )
