"""E10 — Extensions ablation: predictive, incremental, oracle.

Beyond the paper: per-query length awareness. The oracle (true length)
upper-bounds it, the predictor approximates it from pre-execution
features, and incremental (few-to-many) gets most of the benefit with no
prediction at all. The interesting metric is CPU spent per query at
equal tail latency — length-aware policies stop wasting parallelism on
short queries.
"""

from __future__ import annotations

import numpy as np

from repro.core.controller import PREDICTOR_TRAIN_FRACTION
from repro.harness.context import ExperimentContext
from repro.harness.result import ExperimentResult
from repro.policies.predictor import QueryLatencyPredictor
from repro.util.tables import Table

EXPERIMENT_ID = "e10"
TITLE = "Extensions: predictive / incremental / oracle vs adaptive"

POLICIES = ("adaptive", "predictive", "incremental", "oracle")


def run(ctx: ExperimentContext) -> ExperimentResult:
    system = ctx.system
    utilizations = [u for u in ctx.utilization_grid if 0.05 <= u <= 0.7] or list(
        ctx.utilization_grid
    )
    comparison = system.sweep(
        POLICIES, utilizations, duration=ctx.sim_duration, warmup=ctx.sim_warmup
    )
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        description=(
            "P99 latency and mean granted degree across loads for the "
            "length-aware policy variants; plus the latency predictor's "
            "accuracy."
        ),
    )

    names = [system.policy(p).name for p in POLICIES]
    p99 = {name: comparison.p99(name) for name in names}
    table = Table(["utilization"] + names, title="P99 latency (ms)")
    for i, u in enumerate(utilizations):
        table.add_row([u] + [p99[name][i] * 1e3 for name in names])
    result.add_table(table)

    degree_table = Table(["utilization"] + names, title="Mean granted degree")
    for i, u in enumerate(utilizations):
        degree_table.add_row(
            [u]
            + [comparison.summaries[name][i].mean_degree for name in names]
        )
    result.add_table(degree_table)

    # Predictor accuracy on the held-out half of the profiling sample.
    t1 = system.cost_table.sequential_latencies()
    n_train = max(2, int(system.cost_table.n_queries * PREDICTOR_TRAIN_FRACTION))
    holdout_queries = system.cost_table.queries[n_train:]
    holdout_actual = t1[n_train:]
    predicted = system.predictor.predict_many(system.workbench.engine, holdout_queries)
    r2 = QueryLatencyPredictor.r_squared(predicted, holdout_actual)
    cutoff = system.long_query_cutoff
    actual_long = holdout_actual >= cutoff
    predicted_long = predicted >= cutoff
    recall = float(predicted_long[actual_long].mean()) if actual_long.any() else 1.0
    precision = (
        float(actual_long[predicted_long].mean()) if predicted_long.any() else 1.0
    )
    predictor_table = Table(["metric", "value"], title="Latency predictor (holdout)")
    predictor_table.add_row(["R^2 (log space)", r2])
    predictor_table.add_row(["long-query recall", recall])
    predictor_table.add_row(["long-query precision", precision])
    result.add_table(predictor_table)

    mean_deg = {
        name: np.asarray(
            [comparison.summaries[name][i].mean_degree for i in range(len(utilizations))]
        )
        for name in names
    }
    result.add_check(
        "length-aware policies use fewer cores on average than plain adaptive",
        bool(
            np.all(mean_deg["oracle"] <= mean_deg["adaptive"] + 1e-9)
            and np.all(mean_deg["predictive"] <= mean_deg["adaptive"] + 1e-9)
        ),
    )
    result.add_check(
        "oracle's P99 stays in adaptive's band (<= 25% above) while "
        "spending less CPU",
        bool(np.all(p99["oracle"] <= 1.25 * p99["adaptive"])),
    )
    result.add_check(
        "predictor is informative (R^2 >= 0.4, long-query recall >= 0.6)",
        r2 >= 0.4 and recall >= 0.6,
        f"R^2 {r2:.2f}, recall {recall:.2f}",
    )
    result.data = {
        "utilizations": utilizations,
        "p99_ms": {n: (p99[n] * 1e3).tolist() for n in names},
        "mean_degree": {n: mean_deg[n].tolist() for n in names},
        "predictor": {"r2": r2, "recall": recall, "precision": precision},
    }
    return result
