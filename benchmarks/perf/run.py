#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads, every named metric.

    python3 benchmarks/perf/run.py                      # all workloads
    python3 benchmarks/perf/run.py --workload sim-sweep --seed 1
    python3 benchmarks/perf/run.py --trace 1 --out set.json
    python3 benchmarks/perf/run.py --compare A.json B.json

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Without it every workload runs in
its own fresh child process. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfharness import spec as specs
from perfharness.stats import verdict

#: ``failed_share`` may rise by this much (absolute) before it counts
#: as a regression.
FAILED_SHARE_BOUND = 0.001


def _declared(spec: Dict[str, Any], trace: int) -> Dict[str, Dict[str, Any]]:
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row for row in rows}


def print_table(result: Dict[str, Any], declared: Dict[str, Dict[str, Any]]) -> None:
    """``workload  metric  value  unit`` (+ quartiles and sample count)."""
    name = result["workload"]
    for metric, row in result["metrics"].items():
        unit = declared[metric]["unit"]
        line = f"{name:<15} {metric:<40} {row['value']:>14.6g} {unit:<6}"
        if row["n"] > 1:
            line += f" [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n {row['n']}]"
        print(line)
    share = result["failed"] / max(result["attempted"], 1)
    print(f"{name:<15} {'failed_share':<40} {share:>14.6g} {'ratio':<6}"
          f" [{result['failed']} of {result['attempted']} operations;"
          f" one operation = one {result['operation']}]")
    for key, value in result.get("rounds", {}).items():
        print(f"{name:<15} {'rounds.' + key:<40} {value:>14.6g}")
    for label, digest in result["digests"].items():
        print(f"{name:<15} digest {label:<33} {digest}")
    spans = result.get("spans")
    if spans:
        print(f"{name:<15} spans {spans['count']} -> {spans['file']}")
        for span, ms in spans["self_ms_per_op"].items():
            print(f"{name:<15} {'self_ms_per_op.' + span:<40} {ms:>14.6g} ms")
        for problem in spans["problems"]:
            print(f"{name:<15} SPAN PROBLEM: {problem}")


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Run one workload here; the driver's contract."""
    specs.require_program()
    from perfharness import runner

    if args.trace:
        result = runner.run_traced(args.workload, args.seed)
    else:
        result = runner.run_untraced(args.workload, args.seed, args.seconds)
    declared = _declared(spec, args.trace)
    missing = set(declared) - set(result["metrics"])
    unknown = set(result["metrics"]) - set(declared)
    if missing or unknown:
        raise SystemExit(f"metric names out of step with BENCHMARK.json: "
                         f"missing {sorted(missing)}, unknown {sorted(unknown)}")
    print_table(result, declared)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    correct = result["failed"] == 0 and not result.get("spans", {}).get("problems")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": row["value"], "unit": declared[name]["unit"]}
            for name, row in result["metrics"].items()
        },
    }))
    return 0


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload, each in a fresh child process; ``--trace 1``
    adds the traced run after the untraced one."""
    import numpy

    specs.require_program()
    specs.OUT_DIR.mkdir(parents=True, exist_ok=True)
    full: Dict[str, Any] = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": {},
    }
    status = 0
    for name in specs.workload_names(spec):
        for trace in ((0, 1) if args.trace else (0,)):
            part = specs.OUT_DIR / f"result-{name}-{trace}.json"
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", str(part)],
                stdout=subprocess.PIPE, text=True, cwd=specs.REPO_ROOT,
            )
            # The child's table, without its machine-readable last line.
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1] if child.returncode == 0 else lines), flush=True)
            if child.returncode != 0:
                print(f"{name}: exited with {child.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(part.read_text())
            merged = full["workloads"].setdefault(name, result)
            if merged is not result:
                merged["metrics"].update(result["metrics"])
                merged["spans"] = result["spans"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
            if result["failed"] or result.get("spans", {}).get("problems"):
                status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    return status


def load_set(path: str) -> Dict[str, Any]:
    """A full set as ``--out`` writes it (for BASELINE.json, which
    holds several, the last one)."""
    document = json.loads(Path(path).read_text())
    return document["sets"][-1] if "sets" in document else document


def _cell(row: Dict[str, float]) -> str:
    return f"{row['value']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}]"


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """Row per workload x end-to-end metric: both values with their
    quartiles over rounds, ratio B/A, the bound, and ok / worse /
    unresolved."""
    set_a, set_b = load_set(path_a), load_set(path_b)
    worse = 0
    print(f"{'workload':<15} {'metric':<16} {'A value [q1, q3]':>34} "
          f"{'B value [q1, q3]':>34} {'B/A':>7} {'bound':>6}  verdict")
    for name in specs.workload_names(spec):
        a, b = set_a["workloads"].get(name), set_b["workloads"].get(name)
        if a is None or b is None:
            continue
        rows: List[Any] = [
            (row["name"], a["metrics"][row["name"]], b["metrics"][row["name"]],
             row["better"], row["bound"], False)
            for row in spec["end_to_end"]
        ]
        shares = [
            {"value": s, "q1": s, "q3": s}
            for s in (r["failed"] / max(r["attempted"], 1) for r in (a, b))
        ]
        rows.append(("failed_share", shares[0], shares[1], "lower",
                     FAILED_SHARE_BOUND, True))
        for metric, row_a, row_b, better, bound, absolute in rows:
            ratio, word = verdict(row_a, row_b, better, bound, absolute)
            worse += word == "worse"
            print(f"{name:<15} {metric:<16} {_cell(row_a):>34} {_cell(row_b):>34} "
                  f"{ratio:>7.3f} {bound:>6}  {word}")
    print(f"{worse} worse" if worse else "no metric is worse than its bound allows")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = specs.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=specs.workload_names(spec))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1: traced run (spans, per-layer metrics)")
    parser.add_argument("--out", help="write the detailed result as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply the bounds to two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
