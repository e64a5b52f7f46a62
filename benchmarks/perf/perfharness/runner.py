"""Runs one workload, untraced (end-to-end metrics) or traced
(per-layer metrics and the span file)."""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Type

from perfharness import layers
from perfharness.engine_workloads import EngineBatch, EngineSingle
from perfharness.serve_workloads import ServePaced, ServeSaturate
from perfharness.sim_workload import SimSweep
from perfharness.spans import SpanRecorder, check_tree, self_time_by_name
from perfharness.spec import OUT_DIR, REPO_ROOT
from perfharness.stats import (
    Prober,
    RoundSample,
    guard_keep,
    measure_rounds,
    quartiles,
    reduce_rounds,
    summarize,
)
from perfharness.workload import Workload

WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (EngineSingle, EngineBatch, ServePaced, ServeSaturate, SimSweep)
}

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rounds of each kind (untraced, then traced) in a traced run.
TRACE_ROUNDS = 3


def _count(rounds: List[RoundSample]) -> Dict[str, int]:
    valid = [sample for sample in rounds if sample.valid]
    return {
        "attempted": sum(sample.ops for sample in valid),
        "failed": sum(sample.failed for sample in valid),
    }


def run_untraced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Set up :data:`SETUP_REPEATS` times, measure rounds for
    ``seconds``, check outputs; returns the end-to-end metrics."""
    workload = WORKLOADS[name](seed)
    setups: List[float] = []
    prober = Prober()
    is_up = False
    try:
        for _ in range(SETUP_REPEATS):
            if is_up:
                is_up = False
                workload.teardown()
                gc.collect()
            started = time.perf_counter()
            workload.setup()
            is_up = True
            setups.append(time.perf_counter() - started)
        workload.warmup()
        rounds, keep = measure_rounds(lambda: workload.run_round(prober), seconds)
        counts = _count(rounds)
        counts["failed"] += workload.verify()
        rss = workload.peak_rss_mb()
    finally:
        if is_up:
            workload.teardown()
    metrics = reduce_rounds(rounds, keep)
    metrics["setup_s"] = summarize(setups)
    metrics["peak_rss_mb"] = summarize([rss])
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "operation": workload.operation,
        **counts,
        "metrics": metrics,
        "uncalibrated": {
            key: row["value"]
            for key, row in reduce_rounds(rounds, keep, calibrated=False).items()
        },
        "digests": workload.digests,
        "rounds": {
            "run": len(rounds),
            "invalid": sum(1 for sample in rounds if not sample.valid),
            "discarded": sum(
                1 for sample, flag in zip(rounds, keep) if sample.valid and not flag
            ),
            "calibration_ms_best": prober.best_s * 1e3,
            "calibration_ms_mean": prober.mean_s * 1e3,
        },
    }


def run_traced(name: str, seed: int) -> Dict[str, Any]:
    """The layer ledger, then :data:`TRACE_ROUNDS` untraced and as many
    traced rounds of the workload (span file, tracing overhead). The
    ledger goes first so that its shard build is the first large
    allocation of the process whatever the workload."""
    values = layers.measure_layers(seed)
    gc.collect()
    workload = WORKLOADS[name](seed)
    prober = Prober()
    recorder = SpanRecorder()
    workload.setup()
    try:
        workload.warmup()
        plain = [workload.run_round(prober) for _ in range(TRACE_ROUNDS)]
        traced = [workload.run_round(prober, recorder) for _ in range(TRACE_ROUNDS)]
        counts = _count(plain + traced)
        counts["failed"] += workload.verify()
    finally:
        workload.teardown()
    span_path = OUT_DIR / f"trace-{name}.jsonl"
    recorder.write_jsonl(span_path)
    problems = check_tree(recorder.spans)
    if traced[0].digest != plain[0].digest:
        problems.append("traced rounds produced different outputs")

    def per_op_s(samples: List[RoundSample]) -> float:
        return quartiles(
            [s.wall_s / s.factor / max(s.ops - s.failed, 1) for s in samples]
        )[1]

    # No round is dropped here (three of each kind are too few to
    # choose among); the count says how noisy the box was meanwhile.
    every = plain + traced
    values["bench.rounds_discarded"] = float(
        sum(1 for sample in every if not sample.valid)
        + guard_keep([s.probe_s for s in every if s.valid and s.guarded]).count(False)
    )
    values["bench.trace_overhead_ratio"] = per_op_s(traced) / per_op_s(plain)
    values["bench.calibration_ms_best"] = prober.best_s * 1e3
    values["bench.failed_share"] = counts["failed"] / max(counts["attempted"], 1)
    n_ops = sum(sample.ops for sample in traced)
    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "operation": workload.operation,
        **counts,
        "metrics": {key: summarize([value]) for key, value in values.items()},
        "digests": workload.digests,
        "spans": {
            "file": str(span_path.relative_to(REPO_ROOT)),
            "count": len(recorder.spans),
            "problems": problems,
            "self_ms_per_op": {
                span: total * 1e3 / n_ops
                for span, total in sorted(self_time_by_name(recorder.spans).items())
            },
        },
    }
