"""Finding reporters: human-readable text and stable JSON.

The JSON document is a stable machine interface (``schema_version`` is
bumped on any breaking shape change; see ``tests/test_reprolint.py``'s
schema-shape test).
"""

from __future__ import annotations

import json
from typing import Dict, List

from tools.reprolint.core import Finding, LintResult, all_rules

#: Bumped on breaking changes to the JSON document shape.
JSON_SCHEMA_VERSION = 3


def render_text(result: LintResult, verbose_summary: bool = True) -> str:
    """One ``path:line:col: RULE message`` line per finding + a summary."""
    lines: List[str] = [finding.format() for finding in result.all_findings]
    if verbose_summary:
        counts = result.counts_by_rule()
        if counts:
            breakdown = ", ".join(f"{rule}: {n}" for rule, n in counts.items())
            lines.append("")
            lines.append(
                f"{sum(counts.values())} finding(s) in "
                f"{len({f.path for f in result.all_findings})} file(s) "
                f"({result.files_scanned} scanned) [{breakdown}]"
            )
        else:
            lines.append(f"clean: 0 findings in {result.files_scanned} file(s)")
    return "\n".join(lines)


def _finding_dict(finding: Finding) -> Dict[str, object]:
    return {
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "rule": finding.rule_id,
        "message": finding.message,
    }


def render_json(result: LintResult) -> str:
    """Stable JSON document for CI artifacts / downstream tooling."""
    registry = all_rules()
    rules: Dict[str, object] = {}
    for rule_id in result.rules_run or sorted(registry):
        rule_cls = registry.get(rule_id)
        if rule_cls is None:  # parse-error pseudo rules (E999)
            continue
        rules[rule_id] = {
            "summary": rule_cls.summary,
            "rationale": rule_cls.rationale,
            "project_rule": rule_cls.project_rule,
        }
    payload: Dict[str, object] = {
        "schema_version": JSON_SCHEMA_VERSION,
        "files_scanned": result.files_scanned,
        "rules": rules,
        "counts_by_rule": result.counts_by_rule(),
        "findings": [_finding_dict(finding) for finding in result.all_findings],
        "suppressed_by_rule": result.suppressed_by_rule(),
        "suppressed_total": len(result.suppressed),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
