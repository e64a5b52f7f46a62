"""The harness's own spans: recorded around calls *into* each layer.

A span is ``(id, name, start_s, end_s, parent id or None, op id)``.
Spans stay in memory during the run and are written as JSON lines when
it ends. Spans inside ``src/`` are a later issue; these are taken from
outside, at the boundaries the harness can see.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], int]


class SpanRecorder:
    """Append-only span store."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self, name: str, start_s: float, end_s: float,
        parent: Optional[int], op: int,
    ) -> int:
        """Record one closed span; returns its id (for children)."""
        span_id = len(self.spans)
        self.spans.append((span_id, name, start_s, end_s, parent, op))
        return span_id

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, start_s, end_s, parent, op in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_s": start_s,
                    "end_s": end_s, "parent": parent, "op": op,
                }) + "\n")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover
    (children are clipped to the parent's interval)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    bounds = {span[0]: (span[2], span[3]) for span in spans}
    for _, _, start_s, end_s, parent, _ in spans:
        if parent in bounds:
            low, high = bounds[parent]
            clipped = (max(start_s, low), min(end_s, high))
            if clipped[1] > clipped[0]:
                children[parent].append(clipped)
    return {
        span_id: (end_s - start_s) - _covered(children.get(span_id, []))
        for span_id, _, start_s, end_s, _, _ in spans
    }


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name, in seconds."""
    totals: Dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for span_id, name, *_ in spans:
        totals[name] += own[span_id]
    return dict(totals)


def check_tree(spans: List[Span]) -> List[str]:
    """Violations of the span algebra (empty = well formed): every
    parent exists, self times are non-negative, and the self times under
    the roots sum to the roots' total duration within 1 %."""
    problems: List[str] = []
    ids = {span[0] for span in spans}
    for span_id, name, start_s, end_s, parent, _ in spans:
        if parent is not None and parent not in ids:
            problems.append(f"span {span_id} ({name}) has unknown parent {parent}")
        if end_s < start_s:
            problems.append(f"span {span_id} ({name}) runs backwards")
    own = self_times(spans)
    negative = [span_id for span_id, value in own.items() if value < -1e-9]
    if negative:
        problems.append(f"{len(negative)} spans have negative self time")
    roots = sum(end - start for _, _, start, end, parent, _ in spans if parent is None)
    total = sum(own.values())
    if roots > 0 and abs(total - roots) > 0.01 * roots:
        problems.append(f"self times sum to {total:.6f}s, roots to {roots:.6f}s")
    return problems
