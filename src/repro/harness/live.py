"""Harness for the live serving mode: smoke points, reports, assembly.

Everything that needs both a profiled
:class:`~repro.core.controller.AdaptiveSearchSystem` *and* the
wall-clock runtime lives here, on the harness layer, so the runtime
package itself stays free of system/harness imports (the layer table in
``tests/test_source_rules.py``):

* :func:`engine_search_for` — adapt a system's engine + profiled query
  pool into the :class:`~repro.runtime.node.ServingNode` search hook;
* :func:`smoke_points` — the matched load points for sim-vs-live
  validation: two E05-shaped points (below and near saturation, no
  shedding) and E19's overload point (deadline + admission cap past
  saturation, the e19 experiment's constants);
* :func:`run_live_smoke` — for each point, build the seeded arrival
  script once, run it through the simulator
  (:func:`~repro.sim.script.run_scripted_point`) and through the real
  asyncio server over localhost TCP
  (:func:`~repro.runtime.smoke.run_live_point`), and compare with
  :func:`~repro.runtime.parity.tolerance_report`. The combined
  machine-readable report is written with the provenance-grade JSON
  writer and uploaded as a CI artifact.

Validation methodology (also in EXPERIMENTS.md): the arrival script
is *identical* on both sides, so tolerance-band misses indicate
hosting divergence, not workload noise. The smoke runs in real time on
a *time-scaled* system (:func:`scaled_smoke_system`): the test-scale
engine finishes queries in fractions of a millisecond, which would put
matched-utilization rates in the tens of thousands of QPS — beyond
what one TCP load generator can pace, and small enough that the host's
stalls rival the latencies being compared. Multiplying every cost
table entry by a common factor preserves every speedup ratio and
utilization level, so a queueing system scaled this way makes the same
decisions (``tests/test_runtime_livesmoke.py`` pins it) while the
stalls shrink next to its service times; sim and live both run the
scaled system, so the comparison stays exact. This scale is the only
time stretch: one model second is one wall second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.controller import AdaptiveSearchSystem
from repro.engine.results import ExecutionResult
from repro.harness.context import ExperimentContext
from repro.harness.experiments import e19_overload as e19
from repro.profiles.measurement import QueryCostTable
from repro.runtime.node import RankedResults
from repro.runtime.parity import DEFAULT_TOLERANCES, tolerance_report
from repro.runtime.serve import run_live
from repro.runtime.smoke import run_live_point
from repro.sim.experiment import LoadPointConfig
from repro.sim.script import build_arrival_script, run_scripted_point
from repro.util.serde import dump_json, to_jsonable

__all__ = [
    "SmokePoint",
    "engine_search_for",
    "scaled_smoke_system",
    "smoke_points",
    "run_live_smoke",
]

#: Mean sequential service time the smoke scales the system up to.
#: It must dwarf the host's stalls, not just timer lateness: on a
#: 2-vCPU KVM guest a 1 ms sleep on the live loop woke p99 2.5-3.8 ms
#: late (max 7-37 ms) when idle and p99 4-10.5 ms late (max 10-31 ms)
#: inside the e05-heavy point. At a 25 ms mean those stalls pushed a
#: median or p99 out of its band in 3 of 42 runs. A 9-second horizon
#: still observes hundreds of queries per point.
_TARGET_MEAN_SERVICE_S = 0.150


def scaled_smoke_system(
    system: AdaptiveSearchSystem,
) -> Tuple[AdaptiveSearchSystem, float]:
    """Rebuild ``system`` with all cost-table times scaled by a common
    factor so mean sequential service hits ``_TARGET_MEAN_SERVICE_S``.

    Returns ``(scaled_system, factor)``. Rebuilding (rather than
    patching the oracle) re-derives the threshold table, percentile
    cutoffs, and latency predictor on the scaled table, so policy
    decisions are self-consistent at the new time scale. Systems
    already at or above the target are returned unchanged (factor 1.0):
    scaling only ever slows queries down.
    """
    table = system.cost_table
    mean_t1 = float(np.mean(table.sequential_latencies()))
    factor = _TARGET_MEAN_SERVICE_S / mean_t1
    if factor <= 1.0:
        return system, 1.0
    scaled = QueryCostTable(
        table.queries,
        table.degrees,
        table.latency * factor,
        table.cpu * factor,
        table.chunks,
    )
    return AdaptiveSearchSystem(system.workbench, scaled, system.config), factor


def engine_search_for(system: AdaptiveSearchSystem):
    """Search hook over the system's engine and profiled query pool.

    The granted degree is honored up to the engine's configured
    ``max_degree``; results are the query's top-k ``(doc_id, score)``
    pairs, best first.
    """
    engine = system.workbench.engine
    queries = system.cost_table.queries
    max_degree = engine.config.max_degree

    def search(query_index: int, degree: int) -> RankedResults:
        result: ExecutionResult = engine.execute(
            queries[query_index], degree=max(1, min(degree, max_degree))
        )
        return tuple((doc.doc_id, doc.score) for doc in result.results)

    return search


@dataclass(frozen=True)
class SmokePoint:
    """One matched sim-vs-live load point."""

    name: str
    policy: str
    config: LoadPointConfig


def smoke_points(
    system: AdaptiveSearchSystem,
    duration_s: float,
    warmup_s: float,
    seed: int = 0,
) -> List[SmokePoint]:
    """The validation points: E05-shaped light/heavy load plus E19's
    overload point (its load, deadline and admission cap)."""
    slo = e19.SLO_MULTIPLE * float(system.service_distribution.percentile(99))
    points = []
    for name, utilization in (("e05-light", 0.3), ("e05-heavy", 0.7)):
        points.append(
            SmokePoint(
                name=name,
                policy="adaptive",
                config=LoadPointConfig(
                    rate=system.rate_for_utilization(utilization),
                    duration=duration_s,
                    warmup=warmup_s,
                    n_cores=system.n_cores,
                    seed=seed,
                ),
            )
        )
    points.append(
        SmokePoint(
            name="e19-overload",
            policy="adaptive",
            config=LoadPointConfig(
                rate=system.rate_for_utilization(e19.OVER_SATURATION),
                duration=duration_s,
                warmup=warmup_s,
                n_cores=system.n_cores,
                seed=seed,
                deadline=slo,
                max_queue_length=e19.QUEUE_CAP_PER_CORE * system.n_cores,
            ),
        )
    )
    return points


def run_live_smoke(
    context: Optional[ExperimentContext] = None,
    duration_s: float = 12.0,
    seed: int = 0,
    output: Optional[str] = None,
    engine_results: bool = False,
) -> Tuple[Dict[str, Any], bool]:
    """Run the sim-vs-live validation suite; returns (report, ok).

    Wall cost is about ``len(points) × duration_s`` seconds, plus each
    point's drain.
    Each live point runs on its own :func:`~repro.runtime.serve.run_live`
    loop, the one ``repro serve`` runs on, whose timers fire within the
    host's wake-up latency of their due time rather than up to a
    millisecond late.
    ``engine_results`` additionally runs the real engine per served
    query, inside its last phase (off by default: the smoke validates
    *timing* parity against the simulator, which runs no engine, and an
    engine run longer than its phase delays the phase's end — see
    :mod:`repro.runtime.node`).
    """
    context = context if context is not None else ExperimentContext()
    system, time_scale = scaled_smoke_system(context.system)
    warmup_s = duration_s / 4.0
    bands = dict(DEFAULT_TOLERANCES)
    search = engine_search_for(system) if engine_results else None

    entries: List[Dict[str, Any]] = []
    ok = True
    for point in smoke_points(system, duration_s, warmup_s, seed=seed):
        policy_sim = system.policy(point.policy)
        policy_live = system.policy(point.policy)
        script = build_arrival_script(
            system.oracle.n_queries, point.config
        )
        sim_summary, _ = run_scripted_point(
            system.oracle, policy_sim, point.config, script
        )
        live_summary, _ = run_live(
            run_live_point(
                system.oracle,
                policy_live,
                point.config,
                script,
                engine_search=search,
            )
        )
        entry = tolerance_report(sim_summary, live_summary, bands)
        entry["point"] = point.name
        entry["n_arrivals"] = len(script)
        entry["sim_summary"] = to_jsonable(sim_summary)
        entry["live_summary"] = to_jsonable(live_summary)
        ok = ok and entry["ok"]
        entries.append(entry)

    report: Dict[str, Any] = {
        "ok": ok,
        "scale": context.scale.value,
        "duration_s": duration_s,
        "time_scale": time_scale,
        "seed": seed,
        "tolerances": bands,
        "points": entries,
    }
    if output is not None:
        dump_json(report, output)
    return report, ok
