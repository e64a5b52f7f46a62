"""reprolint — AST-based determinism & simulation-correctness linter.

The reproduction's headline claims (adaptive vs fixed tail latency,
bit-identical fault-free replays) rest on deterministic, seeded
simulation. ``reprolint`` machine-checks the conventions that make that
true: no global or unseeded RNGs, child streams derived through
``repro.util.rng`` (never ``rng.integers(...)``), no wall-clock reads in
simulated-time code, no float equality on latencies, no mutable default
arguments, no swallowed exceptions in sim hot paths, and fully annotated
public simulation APIs.

The whole-program analyses (R011+) add cross-module checks: typed
config consumption (R011), thread safety (R012), architectural layering
+ kernel clock discipline driven by the declarative map in
``layers.toml`` (R014), and policy-kernel purity (R017). A rule stays
only while it catches a mutant nothing else does (CONTRIBUTING.md,
"What each rule costs and catches").

Every run is from scratch — read, parse, run the rules, report.

Usage::

    python -m tools.reprolint src tests tools
    python -m tools.reprolint --format json src
    python -m tools.reprolint --list-rules

Findings can be suppressed per line with a justification::

    t = time.time()  # reprolint: disable=R003 -- harness-side timing

or per file with ``# reprolint: disable-file=R011`` on any line.
"""

from tools.reprolint.core import (  # noqa: F401
    Finding,
    LintResult,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
)

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
]
