"""Command-line interface for reprolint.

Exit codes: 0 = clean, 1 = findings (or parse errors), 2 = usage error,
3 = internal analyzer error (a rule crashed — a reprolint bug, not a
finding). CI treats 1 as "fix your code" and 3 as "fix the linter";
conflating them (the pre-R014 behavior) made analyzer regressions look
like tree regressions. ``--exit-zero`` keeps the report but always
exits 0 (report-only mode, used when surveying a tree before gating
it); it does NOT mask exit 3 — a crashed analyzer produced no report
worth trusting.

Every run is from scratch: read, parse, run the selected rules, report.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import List, Optional

from tools.reprolint.core import all_rules, lint_paths
from tools.reprolint.reporter import render_json, render_text


def _split_rule_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description=(
            "AST-based determinism & simulation-correctness linter for "
            "this repository (per-file rules R001-R008 and whole-program "
            "analyses R011-R017; see CONTRIBUTING.md). Exit codes: "
            "0 clean, 1 findings, 2 usage error, 3 internal analyzer "
            "error."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--exit-zero", action="store_true",
        help="report findings but exit 0 (report-only mode)",
    )
    parser.add_argument(
        "--no-default-excludes", action="store_true",
        help="descend into fixture/cache directories normally skipped",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule with its rationale and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule_cls in sorted(all_rules().items()):
            scope = "project" if rule_cls.project_rule else "file"
            print(f"{rule_id}  [{scope}]  {rule_cls.summary}")
            print(f"      {rule_cls.rationale}")
        return 0

    try:
        result = lint_paths(
            args.paths,
            select=_split_rule_list(args.select),
            ignore=_split_rule_list(args.ignore),
            use_default_excludes=not args.no_default_excludes,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - analyzer crash, not a finding
        # A rule blew up on valid input: that is a reprolint bug. Exit 3
        # so CI can tell "fix the linter" from "fix the tree" (exit 1).
        print(f"reprolint: internal error: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3

    if args.format == "json":
        report = render_json(result)
    else:
        report = render_text(result)

    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)

    if args.exit_zero:
        return 0
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
