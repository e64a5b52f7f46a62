"""Where things are, and what BENCHMARK.json declares."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List

PERF_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = PERF_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
#: Everything a run writes (shards, span files, child results) goes here.
OUT_DIR = PERF_DIR / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"


def load_spec() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def workload_names(spec: Dict[str, Any]) -> List[str]:
    return [row["name"] for row in spec["workloads"]]


def require_program() -> None:
    """Put ``src/`` on the import path, or exit 2 when the program is
    not there (the harness alone measures nothing)."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: {SRC_DIR / 'repro'} not found: nothing to measure",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def program_env() -> Dict[str, str]:
    """The environment for child processes that import ``repro``."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + inherited if inherited else "")
    return env
