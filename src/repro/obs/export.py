"""Exporting traces, timelines, and run manifests.

Traces and timelines are written as JSONL (one JSON object per line)
next to the experiment's result JSON, so a run's observability output
can be archived, diffed, and re-analyzed without re-simulating. The run
manifest records provenance — seed, scale, configuration hash, git
revision — and deliberately contains no wall-clock timestamp, so two
identical runs produce byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.obs.spans import QueryTrace, Span, SpanEvent
from repro.util.serde import to_jsonable

#: Where the revision is looked up: the package's own checkout, not the
#: process's working directory.
_PACKAGE_DIR = Path(__file__).resolve().parent.parent


def span_to_jsonable(span: Span) -> Dict[str, Any]:
    """Serialize one span subtree to plain JSON types."""
    payload: Dict[str, Any] = {
        "name": span.name,
        "start_s": span.start_s,
        "end_s": span.end_s,
    }
    if span.attrs:
        payload["attrs"] = to_jsonable(dict(span.attrs))
    if span.events:
        payload["events"] = [_event_to_jsonable(e) for e in span.events]
    if span.children:
        payload["children"] = [span_to_jsonable(c) for c in span.children]
    return payload


def _event_to_jsonable(event: SpanEvent) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"name": event.name, "time_s": event.time_s}
    if event.attrs:
        payload["attrs"] = to_jsonable(dict(event.attrs))
    return payload


def trace_to_jsonable(trace: QueryTrace) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "trace_id": trace.trace_id,
        "query_index": trace.query_index,
        "outcome": trace.outcome,
        "root": span_to_jsonable(trace.root),
    }
    if trace.server_id is not None:
        payload["server_id"] = trace.server_id
    return payload


def _write_jsonl(objects: Iterable[Mapping[str, Any]], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for obj in objects:
            handle.write(json.dumps(obj, sort_keys=True))
            handle.write("\n")
    return path


def export_traces_jsonl(
    traces: Iterable[QueryTrace], path: Union[str, Path]
) -> Path:
    """Write one trace per line."""
    return _write_jsonl((trace_to_jsonable(t) for t in traces), path)


def export_timeline_jsonl(
    rows: Iterable[Mapping[str, Any]], path: Union[str, Path]
) -> Path:
    """Write one timeline sample row per line."""
    return _write_jsonl((to_jsonable(dict(r)) for r in rows), path)


def load_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a JSONL file back into a list of dicts."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def config_hash(config: Any) -> str:
    """Stable short hash of any serializable configuration object."""
    canonical = json.dumps(to_jsonable(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_revision() -> str:
    """Revision of the checkout the package was imported from, or
    ``"unknown"`` when it is not in one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=str(_PACKAGE_DIR),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def run_manifest(
    *,
    seed: int,
    scale: str,
    config: Any = None,
    experiments: Optional[List[str]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the provenance manifest for one harness run."""
    manifest: Dict[str, Any] = {
        "seed": seed,
        "scale": scale,
        "config_hash": config_hash(config) if config is not None else None,
        "git_rev": git_revision(),
    }
    if experiments is not None:
        manifest["experiments"] = list(experiments)
    if extra:
        manifest.update(to_jsonable(dict(extra)))
    return manifest


def write_manifest(manifest: Mapping[str, Any], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(to_jsonable(dict(manifest)), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
