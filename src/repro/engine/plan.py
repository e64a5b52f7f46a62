"""Query planning: posting-list selection, candidate chunks, score bounds.

A :class:`QueryPlan` is built once per (query, index) pair and captures
everything both the sequential and the parallel executor need:

* the posting lists of the query's terms;
* the **candidate chunk list** — the intersection of the terms' chunk
  lists: a document matches only if it contains every term, so only
  chunks in which every term occurs can hold a match, and the executor
  walks that (often short) list instead of the whole document space.
  Passing over the other chunks is metadata-only in a real ISN, and is
  modeled as free here;
* **suffix score bounds** — for each position in the candidate list, an
  upper bound on the composite score of any document in the remaining
  chunks. Bounds combine per-term per-chunk max impacts (suffix maxima)
  with the static-rank prior at the chunk boundary, which is
  non-increasing in doc id by index construction;
* the scoring kernel, :meth:`QueryPlan.score_chunks`, which scores many
  candidate chunks in one set of numpy dispatches and returns their
  matches as flat :class:`ChunkColumns`. Every executor scores through
  it, a block of positions at a time. :meth:`QueryPlan.score_chunk` is the
  straightforward one-chunk scorer the kernel is pinned bit-identical
  to; tests compare against it and nothing in the package calls it.
"""

from __future__ import annotations

from functools import reduce
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.engine.query import Query
from repro.errors import ExecutionError
from repro.index.inverted import InvertedIndex
from repro.index.postings import PostingList
from repro.ranking.composite import RELEVANCE_WEIGHT, STATIC_WEIGHT


class ChunkOutcome(NamedTuple):
    """Result of evaluating one chunk on its own (:meth:`QueryPlan.score_chunk`):
    matches, scores, work counters."""

    chunk_id: int
    doc_ids: np.ndarray  # matched documents (ascending)
    scores: np.ndarray  # composite scores, parallel to doc_ids
    postings_scanned: int
    n_matched: int


class ChunkColumns(NamedTuple):
    """What :meth:`QueryPlan.score_chunks` returns for ``n`` positions: the
    matches of all of them as two flat arrays, cut per position.

    The ``i``-th position's matches are ``doc_ids[cuts[i]:cuts[i + 1]]``
    (ascending) with their composite ``scores`` alongside, so ``cuts``
    has ``n + 1`` entries and its differences are the match counts.
    """

    doc_ids: np.ndarray
    scores: np.ndarray
    cuts: List[int]
    postings_scanned: List[int]


def _no_columns() -> ChunkColumns:
    """The columns of an empty selection."""
    return ChunkColumns(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), [0], []
    )


def _range_indices(starts: np.ndarray, sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The indices ``starts[i] : starts[i] + sizes[i]`` for all ``i``,
    concatenated (one vectorized expression, no per-range Python loop),
    and the ``len(sizes) + 1`` offsets at which each range begins in them."""
    offsets = np.empty(sizes.shape[0] + 1, dtype=np.int64)
    offsets[0] = 0
    sizes.cumsum(out=offsets[1:])
    total = int(offsets[-1])
    indices = np.arange(total, dtype=np.int64) + (starts - offsets[:-1]).repeat(sizes)
    return indices, offsets


class QueryPlan:
    """Planned execution state for one query over one index."""

    def __init__(self, query: Query, index: InvertedIndex) -> None:
        self.query = query
        self.index = index

        found = index.lexicon.posting_lists(list(query.term_ids))
        # A query with an unindexed term matches nothing.
        self.posting_lists: List[PostingList] = (
            found if len(found) == len(query.term_ids) else []
        )

        self.candidate_chunks = self._candidate_chunks()
        self.n_candidate_chunks = int(self.candidate_chunks.shape[0])
        # Each term's chunk max impacts and posting offsets at the
        # candidate chunks. A one-term plan's candidates are its term's
        # chunks, so those are the term's own arrays as stored; otherwise
        # one exact binary search per term locates them (every candidate
        # is one of the term's chunks).
        if len(self.posting_lists) == 1:
            plist = self.posting_lists[0]
            per_term = [(plist.chunk_max_impact, plist.chunk_offsets)]
        else:
            per_term = []
            for plist in self.posting_lists:
                idx = plist.chunk_ids.searchsorted(self.candidate_chunks)
                per_term.append((plist.chunk_max_impact[idx], plist.chunk_offsets[idx]))
        self.bounds_from = self._suffix_bounds([maxima for maxima, _ in per_term])
        # Built here, not on first use: every executed plan scores through
        # score_chunks.
        self._slice_starts, self._slice_sizes = self._chunk_slices(
            [offsets for _, offsets in per_term]
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _candidate_chunks(self) -> np.ndarray:
        """Chunks in which every term occurs, in document order.

        ``PostingList.chunk_ids`` arrays are sorted-unique by
        construction (``np.nonzero`` output over chunk sizes), so the
        intersection runs with ``assume_unique=True`` — skipping the
        per-operand ``np.unique`` sort. One term needs no intersection:
        its chunk list is the answer.
        """
        if not self.posting_lists:
            return np.empty(0, dtype=np.int64)
        if len(self.posting_lists) == 1:
            return self.posting_lists[0].chunk_ids
        combined = reduce(
            lambda a, b: np.intersect1d(a, b, assume_unique=True),
            [plist.chunk_ids for plist in self.posting_lists],
        )
        return combined.astype(np.int64)

    def _suffix_bounds(self, chunk_maxima: List[np.ndarray]) -> np.ndarray:
        """``bounds_from[i]``: max composite score achievable by any doc in
        candidate chunks ``i..end``. Length ``n_candidate_chunks + 1``; the
        final entry is ``-inf`` (nothing remains). ``chunk_maxima[t]`` is
        term ``t``'s max impact in each candidate chunk."""
        n = self.n_candidate_chunks
        bounds = np.full(n + 1, -np.inf, dtype=np.float64)
        if n == 0:
            return bounds
        relevance = np.zeros(n, dtype=np.float64)
        for per_chunk in chunk_maxima:
            # Suffix max over the candidate list, then sum across terms:
            # any remaining doc scores at most the sum of the remaining
            # per-term maxima.
            relevance += np.maximum.accumulate(per_chunk[::-1])[::-1]
        chunk_starts = self.index.chunk_map.bounds[self.candidate_chunks]
        prior = self.index.static_ranks[chunk_starts]
        bounds[:n] = RELEVANCE_WEIGHT * relevance + STATIC_WEIGHT * prior
        return bounds

    # ------------------------------------------------------------------
    # Chunk evaluation
    # ------------------------------------------------------------------

    def score_chunk(self, position: int) -> ChunkOutcome:
        """Evaluate the candidate chunk at ``position`` on its own.

        The reference implementation of chunk scoring (with
        :meth:`_intersect`): one chunk, one slice per term, no batching.
        Tests hold :meth:`score_chunks` bit-identical to it; production
        code scores through :meth:`score_chunks` only.
        """
        if not 0 <= position < self.n_candidate_chunks:
            raise ExecutionError(
                f"position {position} outside [0, {self.n_candidate_chunks})"
            )
        chunk_id = int(self.candidate_chunks[position])
        slices = [plist.chunk_slice(chunk_id) for plist in self.posting_lists]
        postings_scanned = int(sum(ids.shape[0] for ids, _ in slices))

        doc_ids, relevance = self._intersect(slices)
        scores = (
            RELEVANCE_WEIGHT * relevance
            + STATIC_WEIGHT * self.index.static_ranks[doc_ids]
            if doc_ids.shape[0]
            else np.empty(0, dtype=np.float64)
        )
        return ChunkOutcome(
            chunk_id=chunk_id,
            doc_ids=doc_ids,
            scores=scores,
            postings_scanned=postings_scanned,
            n_matched=int(doc_ids.shape[0]),
        )

    def score_chunks(self, positions: Sequence[int]) -> ChunkColumns:
        """Evaluate several candidate chunks in one batch of numpy calls.

        ``positions`` must be strictly ascending plan positions; a
        unit-step ``range`` (what the trace passes) is checked at its two
        ends and selected with basic slices, any other sequence is
        validated whole and gathered. Returns
        their matches as :class:`ChunkColumns`, position ``i``'s cut
        **bit-identical** to ``self.score_chunk(positions[i])``: the matched doc-id
        sets are recovered exactly (chunks partition the doc space, so
        intersecting the concatenated slices equals doing so chunk by
        chunk), and relevance is accumulated per document in the
        same term order and left-to-right grouping the per-chunk scorer
        uses, so the float64 sums agree to the last bit.

        The point is dispatch amortization: scoring one chunk costs
        ~O(terms) numpy calls on arrays of a few dozen elements, so chunk
        by chunk the interpreter sets the pace; this kernel pays one set
        of numpy calls on arrays the size of the whole wave (≈ 7× less
        time per posting in waves of 64), and splits nothing back into
        per-chunk objects. Its one caller is
        :meth:`repro.engine.trace.ChunkTrace.block`.
        """
        n_positions = self.n_candidate_chunks
        select: Union[slice, np.ndarray]
        if type(positions) is range and positions.step == 1:
            # The production call (a trace block): ascending by
            # construction, so its two ends are the whole check, and a
            # basic slice selects views instead of gathering copies.
            if not positions:
                return _no_columns()
            if positions.start < 0 or positions.stop > n_positions:
                raise ExecutionError(
                    f"positions must lie within [0, {n_positions}), "
                    f"got {positions!r}"
                )
            select = slice(positions.start, positions.stop)
        else:
            select = np.asarray(positions, dtype=np.int64)
            if select.shape[0] == 0:
                return _no_columns()
            if (
                int(select[0]) < 0
                or int(select[-1]) >= n_positions
                or bool((select[:-1] >= select[1:]).any())
            ):
                raise ExecutionError(
                    f"positions must be strictly ascending within "
                    f"[0, {n_positions}), got {select.tolist()}"
                )

        starts = self._slice_starts[:, select]
        sizes = self._slice_sizes[:, select]
        if len(self.posting_lists) == 1:
            # One term: every posting matches, relevance is its impact,
            # and each chunk's matches are exactly its posting slice.
            plist = self.posting_lists[0]
            at, offsets = _range_indices(starts[0], sizes[0])
            doc_ids = plist.doc_ids[at]
            relevance = plist.impacts[at]
            cuts = offsets.tolist()
            postings_scanned = sizes[0].tolist()
        else:
            doc_starts = self.index.chunk_map.bounds[self.candidate_chunks[select]]
            doc_ids, relevance = self._intersect_many(starts, sizes, doc_starts)
            # Matched ids are ascending and all lie in the selected chunks,
            # which are disjoint doc-id ranges: a chunk's matches end
            # where the next chunk's begin, the last chunk's at the end.
            cuts = doc_ids.searchsorted(doc_starts).tolist()
            cuts.append(int(doc_ids.shape[0]))
            postings_scanned = np.add.reduce(sizes, axis=0).tolist()

        if doc_ids.shape[0]:
            scores = (
                RELEVANCE_WEIGHT * relevance
                + STATIC_WEIGHT * self.index.static_ranks[doc_ids]
            )
        else:
            scores = np.empty(0, dtype=np.float64)
        return ChunkColumns(doc_ids, scores, cuts, postings_scanned)

    def _chunk_slices(
        self, chunk_offsets: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-(term, plan position) posting-slice starts and sizes.

        Row ``t``, column ``i`` locates term ``t``'s postings for the
        candidate chunk at position ``i`` (never empty: every term occurs
        in every candidate chunk); ``chunk_offsets[t]`` holds term ``t``'s
        ``[start, end)`` per candidate chunk. Built once per plan; every
        wave then selects its columns with one fancy index instead of
        per-term binary searches.
        """
        n = self.n_candidate_chunks
        n_terms = len(self.posting_lists)
        starts = np.empty((n_terms, n), dtype=np.int64)
        sizes = np.empty((n_terms, n), dtype=np.int64)
        for t, offsets in enumerate(chunk_offsets):
            starts[t] = offsets[:, 0]
            sizes[t] = offsets[:, 1] - offsets[:, 0]
        return starts, sizes

    def _intersect_many(
        self, starts: np.ndarray, sizes: np.ndarray, doc_starts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched conjunctive match over the selected chunks (two or
        more terms; :meth:`score_chunks` handles one itself).

        The matched doc-id *set* is order-independent, so membership is
        narrowed starting from the term with the fewest gathered
        postings. Relevance is then re-accumulated per document in each
        chunk's own slice-length term order (stable ascending — exactly
        ``_intersect``'s ordering) as a left-to-right fold, which makes
        the float64 sums bit-identical to per-chunk scoring. Two terms
        need no order: their one addition commutes.
        """
        totals = np.add.reduce(sizes, axis=1)
        order = totals.argsort(kind="stable")
        base = int(order[0])
        base_plist = self.posting_lists[base]
        doc_ids = base_plist.doc_ids[_range_indices(starts[base], sizes[base])[0]]
        for t in order[1:].tolist():
            if doc_ids.shape[0] == 0:
                break
            other_ids = self.posting_lists[t].doc_ids
            at = other_ids.searchsorted(doc_ids)
            at_clipped = np.minimum(at, other_ids.shape[0] - 1)
            doc_ids = doc_ids[other_ids[at_clipped] == doc_ids]
        if doc_ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if len(self.posting_lists) == 2:
            # IEEE addition commutes: either fold order gives these bits.
            first, second = self.posting_lists
            return doc_ids, (
                first.impacts[first.doc_ids.searchsorted(doc_ids)]
                + second.impacts[second.doc_ids.searchsorted(doc_ids)]
            )

        # impacts[t, d]: impact of term t for matched doc d (every term
        # matches every matched doc).
        n_docs = doc_ids.shape[0]
        impacts = np.empty((len(self.posting_lists), n_docs), dtype=np.float64)
        for t, plist in enumerate(self.posting_lists):
            at = plist.doc_ids.searchsorted(doc_ids)
            impacts[t] = plist.impacts[at]
        # Each doc folds its terms in its own chunk's slice-length order.
        term_order = sizes.argsort(axis=0, kind="stable")
        row = doc_starts.searchsorted(doc_ids, side="right") - 1
        ordered = term_order[:, row]
        columns = np.arange(n_docs)
        relevance = impacts[ordered[0], columns]
        for j in range(1, len(self.posting_lists)):
            relevance += impacts[ordered[j], columns]
        return doc_ids, relevance

    @staticmethod
    def _intersect(
        slices: List[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Conjunctive match: intersect doc ids, summing impacts."""
        # Start from the shortest slice to keep the working set small.
        order = sorted(range(len(slices)), key=lambda i: slices[i][0].shape[0])
        base_ids, base_impacts = slices[order[0]]
        doc_ids = base_ids
        relevance = base_impacts.astype(np.float64, copy=True)
        for i in order[1:]:
            other_ids, other_impacts = slices[i]
            if doc_ids.shape[0] == 0 or other_ids.shape[0] == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            pos = np.searchsorted(other_ids, doc_ids)
            pos_clipped = np.minimum(pos, other_ids.shape[0] - 1)
            present = other_ids[pos_clipped] == doc_ids
            doc_ids = doc_ids[present]
            relevance = relevance[present] + other_impacts[pos_clipped[present]]
        return doc_ids, relevance
