"""Markdown report generation from saved experiment results.

``python -m repro --all --json-dir out/`` leaves one JSON file per
experiment; :func:`generate_report` folds a directory of those into a
single self-contained markdown report (tables + check status), so a run
can be archived or diffed without re-simulating.

Also exposed through the CLI: ``python -m repro --all --json-dir out/
--report report.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ConfigurationError
from repro.util.serde import load_json


def _render_manifest_md(manifest: Dict) -> List[str]:
    """Provenance block from a run manifest (see repro.obs.export)."""
    lines = ["**Provenance**", ""]
    for key in ("seed", "scale", "config_hash", "git_rev", "traced"):
        if manifest.get(key) is not None:
            lines.append(f"- {key}: `{manifest[key]}`")
    experiments = manifest.get("experiments")
    if experiments:
        lines.append(f"- experiments: {', '.join(experiments)}")
    lines.append("")
    return lines


def _render_table_md(table: Dict) -> List[str]:
    """Render one serialized Table as markdown."""
    lines: List[str] = []
    if table.get("title"):
        lines.append(f"**{table['title']}**")
        lines.append("")
    columns = table["columns"]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in table["rows"]:
        lines.append("| " + " | ".join(str(row[c]) for c in columns) + " |")
    lines.append("")
    return lines


def _render_experiment_md(payload: Dict) -> List[str]:
    lines = [f"## {payload['experiment_id'].upper()} — {payload['title']}", ""]
    if payload.get("description"):
        lines.append(payload["description"])
        lines.append("")
    for table in payload.get("tables", []):
        lines.extend(_render_table_md(table))
    for chart in payload.get("charts", []):
        lines.append("```text")
        lines.append(chart)
        lines.append("```")
        lines.append("")
    checks = payload.get("checks", [])
    if checks:
        lines.append("**Shape checks**")
        lines.append("")
        for check in checks:
            status = "✅" if check["passed"] else "❌"
            detail = f" — {check['detail']}" if check.get("detail") else ""
            lines.append(f"- {status} {check['name']}{detail}")
        lines.append("")
    return lines


def load_results_dir(results_dir: Union[str, Path]) -> List[Dict]:
    """Load every ``e*.json`` result in a directory, sorted by id."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise ConfigurationError(f"{results_dir} is not a directory")
    payloads = []
    for path in sorted(results_dir.glob("e*.json")):
        payload = load_json(path)
        if not isinstance(payload, dict) or "experiment_id" not in payload:
            raise ConfigurationError(f"{path} is not an experiment result")
        payloads.append(payload)
    if not payloads:
        raise ConfigurationError(f"no experiment results found in {results_dir}")
    return payloads


def generate_report(
    results_dir: Union[str, Path],
    output: Optional[Union[str, Path]] = None,
) -> str:
    """Build the markdown report; optionally write it to ``output``."""
    payloads = load_results_dir(results_dir)
    total_checks = sum(len(p.get("checks", [])) for p in payloads)
    failed = [
        (p["experiment_id"], c["name"])
        for p in payloads
        for c in p.get("checks", [])
        if not c["passed"]
    ]

    lines: List[str] = [
        "# Reproduction report — Adaptive Parallelism for Web Search", ""
    ]
    lines.append(
        f"{len(payloads)} experiments, {total_checks} shape checks, "
        f"{total_checks - len(failed)} passed / {len(failed)} failed."
    )
    lines.append("")
    manifest_path = Path(results_dir) / "manifest.json"
    if manifest_path.is_file():
        manifest = load_json(manifest_path)
        if isinstance(manifest, dict):
            lines.extend(_render_manifest_md(manifest))
    if failed:
        lines.append("**Failed checks:**")
        lines.append("")
        for experiment_id, name in failed:
            lines.append(f"- {experiment_id}: {name}")
        lines.append("")
    lines.append("---")
    lines.append("")
    for payload in payloads:
        lines.extend(_render_experiment_md(payload))

    text = "\n".join(lines)
    if output is not None:
        output = Path(output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text, encoding="utf-8")
    return text
