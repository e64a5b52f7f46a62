"""Query-lifecycle observability: spans, metric timelines, export, render.

See docs/architecture.md §10 for the span taxonomy and the overhead
budget. The subsystem is strictly opt-in: with the default
:data:`~repro.obs.spans.NULL_TRACER`, instrumented code allocates
nothing and simulated results are bit-identical to the pre-obs code.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunObserver,
)
from repro.obs.spans import (
    NULL_TRACER,
    ClusterTraceBuilder,
    NullTracer,
    QueryTrace,
    QueryTraceBuilder,
    RecordingTracer,
    Span,
    SpanEvent,
    TraceRun,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunObserver",
    "NULL_TRACER",
    "ClusterTraceBuilder",
    "NullTracer",
    "QueryTrace",
    "QueryTraceBuilder",
    "RecordingTracer",
    "Span",
    "SpanEvent",
    "TraceRun",
    "Tracer",
]
