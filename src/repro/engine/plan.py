"""Query planning: posting-list selection, candidate chunks, score bounds.

A :class:`QueryPlan` is built once per (query, index) pair and captures
everything both the sequential and the parallel executor need:

* the posting lists of the query's terms;
* the **candidate chunk list** — for conjunctive queries, only chunks in
  which *every* term occurs can contain a match, so the executor walks
  that (often short) list instead of the whole document space. Chunk
  skipping is metadata-only in a real ISN, and is modeled as free here;
* **suffix score bounds** — for each position in the candidate list, an
  upper bound on the composite score of any document in the remaining
  chunks. Bounds combine per-term per-chunk max impacts (suffix maxima)
  with the static-rank prior at the chunk boundary, which is
  non-increasing in doc id by index construction;
* the scoring kernel, :meth:`QueryPlan.score_chunks`, which produces the
  :class:`ChunkOutcome` values of many candidate chunks in one set of
  numpy dispatches. Every executor scores through it, a wave of
  positions at a time. :meth:`QueryPlan.score_chunk` is the
  straightforward one-chunk scorer the kernel is pinned bit-identical
  to; tests compare against it and nothing in the package calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List, Sequence, Tuple

import numpy as np

from repro.engine.query import MatchMode, Query
from repro.errors import ExecutionError
from repro.index.inverted import InvertedIndex
from repro.index.postings import PostingList
from repro.ranking.composite import RELEVANCE_WEIGHT, STATIC_WEIGHT


@dataclass(frozen=True)
class ChunkOutcome:
    """Result of evaluating one chunk: matches, scores, work counters."""

    chunk_id: int
    doc_ids: np.ndarray  # matched documents (ascending)
    scores: np.ndarray  # composite scores, parallel to doc_ids
    postings_scanned: int
    n_matched: int

    @property
    def empty(self) -> bool:
        return self.n_matched == 0


def _take_ranges(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Gather ``values[starts[i] : starts[i] + sizes[i]]`` for all ``i``,
    concatenated, in one vectorized fancy-index (no per-range Python loop)."""
    offsets = np.empty(sizes.shape[0] + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    indices = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets[:-1], sizes)
    return values[indices]


class QueryPlan:
    """Planned execution state for one query over one index."""

    def __init__(self, query: Query, index: InvertedIndex) -> None:
        self.query = query
        self.index = index

        found = index.lexicon.posting_lists(list(query.term_ids))
        missing = len(query.term_ids) - len(found)
        if query.mode is MatchMode.ALL and missing > 0:
            # A conjunctive query with an unindexed term matches nothing.
            self.posting_lists: List[PostingList] = []
        else:
            self.posting_lists = found

        self.candidate_chunks = self._candidate_chunks()
        self.bounds_from = self._suffix_bounds()
        # Built here, not on first use: every executed plan scores through
        # score_chunks, and a plan shared by threads must not be mutated.
        self._slice_starts, self._slice_sizes = self._chunk_slices()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    @property
    def n_candidate_chunks(self) -> int:
        return int(self.candidate_chunks.shape[0])

    def _candidate_chunks(self) -> np.ndarray:
        """Chunks that can contain a match, in document order.

        ``PostingList.chunk_ids`` arrays are sorted-unique by
        construction (``np.nonzero`` output over chunk sizes), so the
        intersection runs with ``assume_unique=True`` — skipping the
        per-operand ``np.unique`` sort — and the union is one
        ``np.unique`` over the concatenation instead of a pairwise
        reduce.
        """
        if not self.posting_lists:
            return np.empty(0, dtype=np.int64)
        chunk_sets = [plist.chunk_ids for plist in self.posting_lists]
        if self.query.mode is MatchMode.ALL:
            combined = reduce(
                lambda a, b: np.intersect1d(a, b, assume_unique=True), chunk_sets
            )
        else:
            combined = np.unique(np.concatenate(chunk_sets))
        return combined.astype(np.int64)

    def _suffix_bounds(self) -> np.ndarray:
        """``bounds_from[i]``: max composite score achievable by any doc in
        candidate chunks ``i..end``. Length ``n_candidate_chunks + 1``; the
        final entry is ``-inf`` (nothing remains)."""
        n = self.n_candidate_chunks
        bounds = np.full(n + 1, -np.inf, dtype=np.float64)
        if n == 0:
            return bounds
        relevance = np.zeros(n, dtype=np.float64)
        # Shared all-zeros row for terms with no chunks at all (ANY mode
        # only); read-only below, so one allocation serves every term.
        absent = np.zeros(n, dtype=np.float64)
        for plist in self.posting_lists:
            # Max impact of this term within each candidate chunk (0 when
            # the term is absent — possible in ANY mode only).
            idx = np.searchsorted(plist.chunk_ids, self.candidate_chunks)
            idx_clipped = np.minimum(idx, max(plist.chunk_ids.shape[0] - 1, 0))
            if plist.chunk_ids.shape[0]:
                present = plist.chunk_ids[idx_clipped] == self.candidate_chunks
                per_chunk = np.where(present, plist.chunk_max_impact[idx_clipped], 0.0)
            else:
                per_chunk = absent
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
        :meth:`_intersect` and :meth:`_accumulate`): one chunk, one slice
        per term, no batching. Tests hold :meth:`score_chunks` bit-identical
        to it; production code scores through :meth:`score_chunks` only.
        """
        if not 0 <= position < self.n_candidate_chunks:
            raise ExecutionError(
                f"position {position} outside [0, {self.n_candidate_chunks})"
            )
        chunk_id = int(self.candidate_chunks[position])
        slices = [plist.chunk_slice(chunk_id) for plist in self.posting_lists]
        postings_scanned = int(sum(ids.shape[0] for ids, _ in slices))

        if self.query.mode is MatchMode.ALL:
            doc_ids, relevance = self._intersect(slices)
        else:
            doc_ids, relevance = self._accumulate(slices, chunk_id)

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

    def score_chunks(self, positions: Sequence[int]) -> List[ChunkOutcome]:
        """Evaluate several candidate chunks in one batch of numpy calls.

        ``positions`` must be strictly ascending plan positions. Returns
        one :class:`ChunkOutcome` per position, **bit-identical** to
        ``[self.score_chunk(p) for p in positions]``: the matched doc-id
        sets are recovered exactly (chunks partition the doc space, so
        intersecting/accumulating the concatenated slices equals doing so
        chunk by chunk), and relevance is accumulated per document in the
        same term order and left-to-right grouping the per-chunk scorer
        uses, so the float64 sums agree to the last bit.

        The point is dispatch amortization: scoring one chunk costs
        ~O(terms) numpy calls on arrays of a few dozen elements, so chunk
        by chunk the interpreter sets the pace; this kernel pays one set
        of numpy calls on arrays the size of the whole wave (≈ 7× less
        time per posting in waves of 64). Its one caller is
        :meth:`repro.engine.trace.ChunkTrace.get`.
        """
        pos = np.asarray(positions, dtype=np.int64)
        n_sel = int(pos.shape[0])
        if n_sel == 0:
            return []
        if (
            int(pos[0]) < 0
            or int(pos[-1]) >= self.n_candidate_chunks
            or bool(np.any(pos[:-1] >= pos[1:]))
        ):
            raise ExecutionError(
                f"positions must be strictly ascending within "
                f"[0, {self.n_candidate_chunks}), got {pos.tolist()}"
            )

        chunk_ids = self.candidate_chunks[pos]
        starts = self._slice_starts[:, pos]
        sizes = self._slice_sizes[:, pos]
        postings_scanned = sizes.sum(axis=0)

        doc_starts = self.index.chunk_map.bounds[chunk_ids]
        doc_ends = self.index.chunk_map.bounds[chunk_ids + 1]
        if self.query.mode is MatchMode.ALL:
            doc_ids, relevance = self._intersect_many(starts, sizes, doc_starts)
        else:
            doc_ids, relevance = self._accumulate_many(
                starts, sizes, doc_starts, doc_ends
            )

        if doc_ids.shape[0]:
            scores = (
                RELEVANCE_WEIGHT * relevance
                + STATIC_WEIGHT * self.index.static_ranks[doc_ids]
            )
        else:
            scores = np.empty(0, dtype=np.float64)

        # Split the batch-wide match arrays back into per-chunk outcomes:
        # matched ids are ascending, chunks are disjoint doc-id ranges.
        cuts_lo = np.searchsorted(doc_ids, doc_starts)
        cuts_hi = np.searchsorted(doc_ids, doc_ends)
        outcomes = []
        for i in range(n_sel):
            lo = int(cuts_lo[i])
            hi = int(cuts_hi[i])
            outcomes.append(
                ChunkOutcome(
                    chunk_id=int(chunk_ids[i]),
                    doc_ids=doc_ids[lo:hi],
                    scores=scores[lo:hi],
                    postings_scanned=int(postings_scanned[i]),
                    n_matched=hi - lo,
                )
            )
        return outcomes

    def _chunk_slices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-(term, plan position) posting-slice starts and sizes.

        Row ``t``, column ``i`` locates term ``t``'s postings for the
        candidate chunk at position ``i`` (0-length when the term misses
        the chunk — possible in ANY mode only). Built once per plan;
        every wave then selects its columns with one fancy index instead
        of per-term binary searches.
        """
        n = self.n_candidate_chunks
        n_terms = len(self.posting_lists)
        starts = np.zeros((n_terms, n), dtype=np.int64)
        sizes = np.zeros((n_terms, n), dtype=np.int64)
        for t, plist in enumerate(self.posting_lists):
            if plist.chunk_ids.shape[0] == 0:
                continue
            idx = np.searchsorted(plist.chunk_ids, self.candidate_chunks)
            idx_clipped = np.minimum(idx, plist.chunk_ids.shape[0] - 1)
            present = plist.chunk_ids[idx_clipped] == self.candidate_chunks
            offsets = plist.chunk_offsets[idx_clipped]
            starts[t] = np.where(present, offsets[:, 0], 0)
            sizes[t] = np.where(present, offsets[:, 1] - offsets[:, 0], 0)
        return starts, sizes

    def _intersect_many(
        self, starts: np.ndarray, sizes: np.ndarray, doc_starts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched conjunctive match over the selected chunks.

        The matched doc-id *set* is order-independent, so membership is
        narrowed starting from the term with the fewest gathered
        postings. Relevance is then re-accumulated per document in each
        chunk's own slice-length term order (stable ascending — exactly
        ``_intersect``'s ordering) as a left-to-right fold, which makes
        the float64 sums bit-identical to per-chunk scoring.
        """
        totals = sizes.sum(axis=1)
        order = np.argsort(totals, kind="stable")
        base = int(order[0])
        base_plist = self.posting_lists[base]
        doc_ids = _take_ranges(base_plist.doc_ids, starts[base], sizes[base])
        for t in order[1:].tolist():
            if doc_ids.shape[0] == 0:
                break
            other_ids = self.posting_lists[t].doc_ids
            if other_ids.shape[0] == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            at = np.searchsorted(other_ids, doc_ids)
            at_clipped = np.minimum(at, other_ids.shape[0] - 1)
            doc_ids = doc_ids[other_ids[at_clipped] == doc_ids]
        if doc_ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

        # impacts[t, d]: impact of term t for matched doc d (every term
        # matches every doc in ALL mode).
        n_docs = doc_ids.shape[0]
        impacts = np.empty((len(self.posting_lists), n_docs), dtype=np.float64)
        for t, plist in enumerate(self.posting_lists):
            at = np.searchsorted(plist.doc_ids, doc_ids)
            impacts[t] = plist.impacts[at]
        # Each doc folds its terms in its own chunk's slice-length order.
        term_order = np.argsort(sizes, axis=0, kind="stable")
        row = np.searchsorted(doc_starts, doc_ids, side="right") - 1
        ordered = term_order[:, row]
        columns = np.arange(n_docs)
        relevance = impacts[ordered[0], columns]
        for j in range(1, len(self.posting_lists)):
            relevance += impacts[ordered[j], columns]
        return doc_ids, relevance

    def _accumulate_many(
        self,
        starts: np.ndarray,
        sizes: np.ndarray,
        doc_starts: np.ndarray,
        doc_ends: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched disjunctive match: one dense accumulator covering the
        selected chunks' concatenated doc ranges, filled per term in
        posting-list order — the same per-document addition order as the
        per-chunk accumulator, hence bit-identical sums."""
        lengths = doc_ends - doc_starts
        acc_offsets = np.empty(lengths.shape[0] + 1, dtype=np.int64)
        acc_offsets[0] = 0
        np.cumsum(lengths, out=acc_offsets[1:])
        accumulator = np.zeros(int(acc_offsets[-1]), dtype=np.float64)
        n_sel = doc_starts.shape[0]
        for t, plist in enumerate(self.posting_lists):
            ids_t = _take_ranges(plist.doc_ids, starts[t], sizes[t])
            if ids_t.shape[0] == 0:
                continue
            impacts_t = _take_ranges(plist.impacts, starts[t], sizes[t])
            rows_t = np.repeat(np.arange(n_sel), sizes[t])
            local = ids_t - doc_starts[rows_t] + acc_offsets[rows_t]
            accumulator[local] += impacts_t
        local_nz = np.nonzero(accumulator > 0.0)[0]
        row = np.searchsorted(acc_offsets, local_nz, side="right") - 1
        doc_ids = (local_nz - acc_offsets[row] + doc_starts[row]).astype(np.int64)
        return doc_ids, accumulator[local_nz]

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

    def _accumulate(
        self, slices: List[Tuple[np.ndarray, np.ndarray]], chunk_id: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Disjunctive match: dense accumulator over the chunk's doc range."""
        start, end = self.index.chunk_map.chunk_range(chunk_id)
        accumulator = np.zeros(end - start, dtype=np.float64)
        for ids, impacts in slices:
            if ids.shape[0]:
                accumulator[ids - start] += impacts
        local = np.nonzero(accumulator > 0.0)[0]
        return (local + start).astype(np.int64), accumulator[local]
