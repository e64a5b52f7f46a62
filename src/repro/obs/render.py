"""Terminal rendering of traces and timelines.

``python -m repro trace <id>`` uses these to show a per-query waterfall
(one bar row per span, indented by depth, scaled to the query's
lifetime) and a timeline summary (queue depth and busy cores over
virtual time via :mod:`repro.util.ascii_chart`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.obs.spans import QueryTrace, Span
from repro.util.ascii_chart import line_chart


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def _attr_summary(attrs: Mapping[str, Any]) -> str:
    if not attrs:
        return ""
    parts = [f"{key}={value}" for key, value in attrs.items()]
    return " {" + ", ".join(parts) + "}"


def _waterfall_rows(
    span: Span, t0_s: float, window_s: float, width: int, depth: int,
    rows: List[str],
) -> None:
    lo = round((span.start_s - t0_s) / window_s * (width - 1))
    hi = round((span.end_s - t0_s) / window_s * (width - 1))
    bar = [" "] * width
    if hi == lo:
        bar[lo] = "|"
    else:
        bar[lo] = "["
        bar[hi] = "]"
        for col in range(lo + 1, hi):
            bar[col] = "="
    label = "  " * depth + span.name
    rows.append(
        f"{label:<24}{''.join(bar)}  {_fmt_ms(span.duration_s)}"
        f"{_attr_summary(span.attrs)}"
    )
    for child in span.children:
        _waterfall_rows(child, t0_s, window_s, width, depth + 1, rows)


def render_waterfall(trace: QueryTrace, width: int = 60) -> str:
    """One query's span tree as an indented bar waterfall."""
    if width < 10:
        raise ConfigurationError("waterfall width must be >= 10")
    root = trace.root
    window_s = max(root.duration_s, 1e-12)
    header = (
        f"trace {trace.trace_id} (query_index={trace.query_index}"
        + (f", server={trace.server_id}" if trace.server_id else "")
        + f") — {trace.outcome}, {_fmt_ms(trace.latency_s)} "
        f"[{root.start_s:.6f}s .. {root.end_s:.6f}s]"
    )
    rows: List[str] = [header]
    _waterfall_rows(root, root.start_s, window_s, width, 0, rows)
    events = [e for e in root.events]
    if events:
        rows.append("  events: " + ", ".join(
            f"{e.name}@{_fmt_ms(e.time_s - root.start_s)}"
            + (_attr_summary(e.attrs) if e.attrs else "")
            for e in events
        ))
    return "\n".join(rows)


def render_timeline(
    rows: Sequence[Mapping[str, Any]],
    fields: Sequence[str] = ("queue_depth", "busy_cores"),
) -> str:
    """Timeline samples as a multi-series ASCII chart over virtual time."""
    if len(rows) < 2:
        return "(timeline has fewer than two samples; nothing to chart)"
    x = [float(row["t_s"]) for row in rows]
    series: Dict[str, List[float]] = {}
    for field in fields:
        if any(field in row for row in rows):
            series[field] = [float(row.get(field, 0.0)) for row in rows]
    if not series:
        raise ConfigurationError(
            f"none of {tuple(fields)} present in timeline rows"
        )
    return line_chart(
        x, series, width=64, height=12,
        title="timeline", x_label="virtual time (s)", y_label="value",
    )


def summarize_traces(traces: Sequence[QueryTrace]) -> Dict[str, Any]:
    """Counts and span-derived aggregates over a batch of traces."""
    completed = [t for t in traces if t.completed]
    shed: Dict[str, int] = {}
    for trace in traces:
        reason = trace.shed_reason
        if reason is not None:
            shed[reason] = shed.get(reason, 0) + 1
    queue = [t.queue_delay_s() for t in completed]
    service = [t.service_s() for t in completed]
    n = len(completed)
    return {
        "n_traces": len(traces),
        "n_completed": n,
        "shed_by_reason": shed,
        "mean_queue_delay_s": sum(queue) / n if n else float("nan"),
        "mean_service_s": sum(service) / n if n else float("nan"),
        "mean_latency_s": (
            sum(t.latency_s for t in completed) / n if n else float("nan")
        ),
    }


def render_trace_report(
    traces: Sequence[QueryTrace],
    timeline_rows: Sequence[Mapping[str, Any]],
    n_waterfalls: int = 3,
) -> str:
    """The ``repro trace`` output: summary, timeline, picked waterfalls.

    Waterfalls show the most informative completed queries: the slowest,
    the median, and the fastest (deduplicated when fewer exist).
    """
    lines: List[str] = []
    summary = summarize_traces(traces)
    lines.append(
        f"{summary['n_traces']} traces: {summary['n_completed']} completed"
        + (
            ", shed " + ", ".join(
                f"{count} ({reason})"
                for reason, count in sorted(summary["shed_by_reason"].items())
            )
            if summary["shed_by_reason"]
            else ""
        )
    )
    if summary["n_completed"]:
        lines.append(
            f"span-derived means: latency {_fmt_ms(summary['mean_latency_s'])} "
            f"= queue {_fmt_ms(summary['mean_queue_delay_s'])} "
            f"+ service {_fmt_ms(summary['mean_service_s'])}"
        )
    lines.append("")
    if timeline_rows:
        lines.append(render_timeline(timeline_rows))
        lines.append("")
    completed = sorted(
        (t for t in traces if t.answered), key=lambda t: t.latency_s
    )
    if completed:
        picks: List[QueryTrace] = [completed[-1]]  # slowest first
        if len(completed) > 2:
            picks.append(completed[len(completed) // 2])
        if len(completed) > 1:
            picks.append(completed[0])
        for trace in picks[:n_waterfalls]:
            lines.append(render_waterfall(trace))
            lines.append("")
    return "\n".join(lines)
