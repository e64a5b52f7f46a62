"""E20 (extension) — Regime shifts: online control vs offline thresholds.

The paper's adaptive policy is calibrated *offline* from a stationary
profile, and the strong deployed baseline adds predictive deadline
shedding: at dispatch, a query whose queue wait plus *predicted* cost
already exceeds the deadline is dropped. That admission check makes the
offline stack nearly optimal against overload it can *price* — a
legitimate flash crowd, or a flood of queries the cost model knows are
expensive, both self-stabilize.

Its blind spot is calibration: the cost predictor underestimates the
most expensive tail queries by 50-60%, so traffic built from those
queries sails through the deadline check at its predicted (cheap) cost
and then eats the node's cores at its true cost. This experiment
subjects both stacks to exactly that — regime-based traffic
(:mod:`repro.sim.traffic`) with attack flows drawn from the predictor's
underprediction residual — and compares the offline stack against the
online one: the same threshold table steered at runtime by windowed
tail-latency/shed-rate feedback (:mod:`repro.policies.online`) plus the
anomaly-guarded degradation ladder (:mod:`repro.sim.anomaly`), which
sheds *labeled* attack classes at the front door without consulting the
cost model at all.

Four scenarios, both policies on identically seeded arrival and query
streams:

* **stationary** — flat background, no bursts. The online controller
  treats the offline calibration as its ceiling (``max_scale = 1``) and
  the guard requires an anomaly alarm *and* an SLA violation in the
  same window to escalate, so the online stack must *match* the offline
  one within noise: no regression on the traffic the paper tuned for.
* **flash crowd** — a legitimate surge past sequential saturation.
  Cost-visible overload: deadline shedding absorbs it for both stacks,
  and the guard stays out (the SLA holds). Parity expected — the point
  is that the guard distinguishes absorbable surges from attacks.
* **slow-query flood** — extra traffic drawn from the top decile of the
  underprediction residual ``t1 - predicted``. The offline deadline
  check admits these at their predicted cost; served floods finish late
  and crowd out background queries. The guard's class shedding refuses
  them at arrival, preserving background goodput.
* **query of death** — one maximally underpredicted query repeated at
  high rate; same mechanism, single-query flavor.

Per-run span traces provide the windowed view: background ("legit")
SLO attainment and goodput *during* each burst window — attack queries
are excluded from the windowed metric on both sides, so refusing attack
traffic is not itself penalized — and the measured recovery time after
the burst (time until windowed P99 is back under the SLO with no
shedding).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.controller import AdaptiveSearchSystem
from repro.harness.context import ExperimentContext
from repro.harness.result import ExperimentResult
from repro.obs.registry import RunObserver
from repro.obs.spans import QueryTrace, RecordingTracer, TraceRun
from repro.policies.online import (
    OnlineAdaptivePolicy,
    OnlineControllerConfig,
    OnlineDegreeController,
)
from repro.sim.anomaly import AnomalyGuard, AnomalyGuardConfig, DegradationLevel
from repro.sim.experiment import LoadPointSummary
from repro.sim.traffic import (
    FLASH_CROWD,
    QUERY_OF_DEATH,
    SLOW_QUERY_FLOOD,
    Burst,
    ClassAwareQuerySampler,
    DiurnalProfile,
    RegimeTraffic,
    TrafficConfig,
)
from repro.util.rng import RngFactory
from repro.util.tables import Table

EXPERIMENT_ID = "e20"
TITLE = "Regime shifts: online tail-feedback control vs offline thresholds"

#: Scenario horizon as a multiple of the per-scale sim duration (regime
#: shifts need room for onset, dwell, and recovery).
HORIZON_MULTIPLE = 1.5
#: SLO budget as a multiple of the idle sequential P99 (E8/E19 convention).
SLO_MULTIPLE = 2.5
#: Baseline admission cap per core (same as E19).
QUEUE_CAP_PER_CORE = 32
#: Background load (x sequential saturation) common to all scenarios.
BACKGROUND_UTILIZATION = 0.45
#: Extra load the flash crowd adds at its plateau (x saturation) — the
#: total during the burst exceeds sequential capacity.
FLASH_UTILIZATION = 0.55
#: Extra *labeled attack* arrival rate (x saturation). Attack queries
#: draw from the underpredicted expensive tail, so their true work is
#: several times what the admission check prices them at.
FLOOD_UTILIZATION = 0.30
DEATH_UTILIZATION = 0.25

OFFLINE = "adaptive (offline)"
ONLINE = "online-adaptive"

ATTACK_SCENARIOS = ("slow-query flood", "query of death")
PARITY_TOLERANCE = 0.10


def traffic_scenarios(saturation: float, horizon_s: float) -> Dict[str, TrafficConfig]:
    """The four regimes, by label, at ``saturation`` qps over ``horizon_s``."""
    base = BACKGROUND_UTILIZATION * saturation
    return {
        "stationary": TrafficConfig(
            background=DiurnalProfile(base_rate=1.2 * base, amplitude=0.0),
        ),
        "flash crowd": TrafficConfig(
            background=DiurnalProfile(
                base_rate=base, amplitude=0.15, period_s=horizon_s
            ),
            bursts=(
                Burst(
                    kind=FLASH_CROWD,
                    start_s=0.30 * horizon_s,
                    duration_s=0.25 * horizon_s,
                    peak_rate=FLASH_UTILIZATION * saturation,
                ),
            ),
        ),
        "slow-query flood": TrafficConfig(
            background=DiurnalProfile(base_rate=base, amplitude=0.0),
            bursts=(
                Burst(
                    kind=SLOW_QUERY_FLOOD,
                    start_s=0.30 * horizon_s,
                    duration_s=0.25 * horizon_s,
                    peak_rate=FLOOD_UTILIZATION * saturation,
                ),
            ),
        ),
        "query of death": TrafficConfig(
            background=DiurnalProfile(base_rate=base, amplitude=0.0),
            bursts=(
                Burst(
                    kind=QUERY_OF_DEATH,
                    start_s=0.30 * horizon_s,
                    duration_s=0.20 * horizon_s,
                    peak_rate=DEATH_UTILIZATION * saturation,
                ),
            ),
        ),
    }


def run_scenario(
    system: AdaptiveSearchSystem,
    sim_duration: float,
    label: str,
    seed: int,
    online: bool,
    tracer: Optional[RecordingTracer],
) -> Tuple[LoadPointSummary, Optional[TraceRun], Optional[OnlineDegreeController],
           Optional[AnomalyGuard]]:
    """One regime (``label`` of :func:`traffic_scenarios`) under the
    offline or the online stack; with a ``tracer`` the run is recorded
    and its bucket returned."""
    horizon_s = HORIZON_MULTIPLE * sim_duration
    window_s = horizon_s / 40.0
    slo_s = SLO_MULTIPLE * float(system.service_distribution.percentile(99))
    scenario = traffic_scenarios(system.saturation_rate, horizon_s)[label]
    streams = RngFactory(seed)
    traffic = RegimeTraffic(scenario, streams, horizon_s=horizon_s)
    sampler = ClassAwareQuerySampler(
        system.cost_table.sequential_latencies(), streams,
        predicted_latencies=system.oracle.predicted,
    )
    controller: Optional[OnlineDegreeController] = None
    guard: Optional[AnomalyGuard] = None
    if online:
        policy: object = OnlineAdaptivePolicy(system.threshold_table)
        controller_config = OnlineControllerConfig(
            target_p99_s=slo_s,
            window_s=window_s,
            step=0.3,
            deadband=0.1,
            min_scale=0.25,
            # The offline calibration is the ceiling: the controller only
            # tightens under distress and relaxes back to scale 1, so on
            # stationary traffic it cannot do worse than the paper's policy.
            max_scale=1.0,
            shed_rate_high=0.02,
            min_samples=5,
        )
        guard_config = AnomalyGuardConfig(
            slo_s=slo_s,
            window_s=window_s,
            sla_epsilon=0.05,
            degraded_degree_cap=max(2, system.threshold_table.max_degree // 4),
            shedding_queue_cap=4 * system.n_cores,
            shed_classes=(SLOW_QUERY_FLOOD, QUERY_OF_DEATH),
            recovery_windows=2,
        )
        controller = OnlineDegreeController(policy, controller_config, tracer=tracer)
        guard = AnomalyGuard(guard_config, policy=policy, tracer=tracer)
        controllers: Tuple[object, ...] = (controller, guard)
    else:
        policy = system.policy("adaptive")
        controllers = ()
    n_runs_before = len(tracer.runs) if tracer is not None else 0
    summary = system.run_point(
        policy,
        scenario.background.base_rate,
        duration=horizon_s,
        warmup=horizon_s / 10.0,
        seed=seed,
        arrivals=traffic,
        deadline=slo_s,
        max_queue_length=QUEUE_CAP_PER_CORE * system.n_cores,
        slo=slo_s,
        observer=RunObserver(tracer=tracer) if tracer is not None else None,
        controllers=controllers,
        query_sampler=sampler,
    )
    run_bucket = tracer.runs[n_runs_before] if tracer is not None else None
    return summary, run_bucket, controller, guard


def _window_stats(
    traces: List[QueryTrace],
    start_s: float,
    end_s: float,
    slo_s: float,
    exclude: FrozenSet[int] = frozenset(),
) -> Dict[str, float]:
    """Demand / SLO attainment / goodput for arrivals in [start, end).

    ``exclude`` drops query indices (the attack population) from the
    windowed accounting so both policies are judged on what they did
    for *legitimate* traffic during the burst.
    """
    demand = [
        t
        for t in traces
        if start_s <= t.arrival_s < end_s and t.query_index not in exclude
    ]
    in_slo = sum(1 for t in demand if t.completed and t.latency_s <= slo_s)
    n_shed = sum(1 for t in demand if t.shed_reason is not None)
    n = len(demand)
    return {
        "demand": float(n),
        "attainment": in_slo / n if n else float("nan"),
        "goodput": in_slo / (end_s - start_s),
        "shed": float(n_shed),
    }


def _recovery_s(
    traces: List[QueryTrace],
    burst_end_s: float,
    horizon_s: float,
    slo_s: float,
    bucket_s: float,
) -> float:
    """Time after ``burst_end_s`` until the tail is back under the SLO.

    Buckets arrivals after the burst into ``bucket_s`` windows; the node
    has recovered at the start of the first of two consecutive buckets
    with no shedding and bucket P99 <= SLO (empty buckets pass — an
    idle node is a recovered node). Returns the remaining horizon when
    recovery never happens.
    """
    n_buckets = max(1, int(math.floor((horizon_s - burst_end_s) / bucket_s)))
    ok: List[bool] = []
    for k in range(n_buckets):
        lo = burst_end_s + k * bucket_s
        hi = lo + bucket_s
        window = [t for t in traces if lo <= t.arrival_s < hi]
        shed = any(t.shed_reason is not None for t in window)
        latencies = [t.latency_s for t in window if t.completed]
        tail_ok = (
            not latencies
            or float(np.percentile(np.asarray(latencies), 99)) <= slo_s
        )
        ok.append(not shed and tail_ok)
    for k in range(len(ok) - 1):
        if ok[k] and ok[k + 1]:
            return k * bucket_s
    return horizon_s - burst_end_s


def run(ctx: ExperimentContext) -> ExperimentResult:
    system = ctx.system
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        description=(
            "Offline-calibrated thresholds with predictive deadline "
            "shedding vs the online-adaptive stack (tail-feedback "
            "threshold scaling + anomaly-guarded degradation) under "
            "four traffic regimes: stationary, a legitimate flash "
            "crowd, a slow-query flood, and a query-of-death "
            "repetition. Attack flows draw from the cost predictor's "
            "underprediction residual — traffic the offline admission "
            "check cannot price. Both policies see identically seeded "
            "arrival and query streams; burst-window metrics count "
            "legitimate traffic only."
        ),
    )

    horizon_s = HORIZON_MULTIPLE * ctx.sim_duration
    slo_s = SLO_MULTIPLE * float(system.service_distribution.percentile(99))
    window_s = horizon_s / 40.0
    # The attack population (and its exclusion set for windowed metrics)
    # is a deterministic function of the profile: top residual decile.
    reference_sampler = ClassAwareQuerySampler(
        system.cost_table.sequential_latencies(), RngFactory(0),
        predicted_latencies=system.oracle.predicted,
    )
    attack_population = frozenset(
        int(i) for i in reference_sampler.attack_indices
    ) | {reference_sampler.death_index}

    # One tracer for the burst scenarios: the CLI's --trace tracer when
    # it is a RecordingTracer (so spans export as usual), a local one
    # otherwise — E20 needs recorded spans for its windowed statistics.
    # Stationary runs go untraced; their checks use run summaries and
    # the guard's own transition log.
    tracer = (
        ctx.tracer
        if isinstance(ctx.tracer, RecordingTracer)
        else RecordingTracer()
    )

    scenarios = traffic_scenarios(system.saturation_rate, horizon_s)
    summaries: Dict[Tuple[str, str], object] = {}
    run_buckets: Dict[Tuple[str, str], TraceRun] = {}
    burst_stats: Dict[Tuple[str, str], List[Dict[str, float]]] = {}
    recoveries: Dict[Tuple[str, str], List[float]] = {}
    guards: Dict[Tuple[str, str], AnomalyGuard] = {}
    class_shed_counts: Dict[Tuple[str, str], int] = {}

    main_table = Table(
        ["scenario", "policy", "goodput (qps)", "SLO attainment",
         "shed rate", "P99 (ms)"],
        title=f"Regime-shift comparison (SLO = {slo_s*1e3:.1f} ms, "
              f"horizon {horizon_s:.0f} s)",
    )
    burst_table = Table(
        ["scenario", "burst", "policy", "legit attainment in burst",
         "legit goodput in burst (qps)", "legit shed in burst",
         "recovery (s)"],
        title="Per-burst windows (legitimate traffic only) and recovery time",
    )

    for i, (label, scenario) in enumerate(scenarios.items()):
        seed = 200 + i
        traced = bool(scenario.bursts)
        exclude = attack_population if label in ATTACK_SCENARIOS else frozenset()
        for policy_label, online in ((OFFLINE, False), (ONLINE, True)):
            summary, run_bucket, controller, guard = run_scenario(
                system, ctx.sim_duration, label, seed, online,
                tracer if traced else None,
            )
            key = (label, policy_label)
            summaries[key] = summary
            if guard is not None:
                guards[key] = guard
            main_table.add_row(
                [label, policy_label, summary.goodput,
                 summary.slo_attainment, summary.shed_rate,
                 summary.p99_latency * 1e3]
            )
            if run_bucket is None:
                continue
            run_buckets[key] = run_bucket
            class_shed_counts[key] = sum(
                t.shed_reason == "class" for t in run_bucket.traces
            )
            stats: List[Dict[str, float]] = []
            recs: List[float] = []
            for burst in scenario.bursts:
                stat = _window_stats(
                    run_bucket.traces, burst.start_s, burst.end_s, slo_s,
                    exclude=exclude,
                )
                recovery = _recovery_s(
                    run_bucket.traces, burst.end_s, horizon_s, slo_s,
                    bucket_s=window_s,
                )
                stats.append(stat)
                recs.append(recovery)
                burst_table.add_row(
                    [label, burst.kind, policy_label, stat["attainment"],
                     stat["goodput"], int(stat["shed"]), recovery]
                )
            burst_stats[key] = stats
            recoveries[key] = recs

    result.add_table(main_table)
    result.add_table(burst_table)

    # ---------------------------------------------------------------
    # Shape checks.
    # ---------------------------------------------------------------
    st_off = summaries[("stationary", OFFLINE)]
    st_on = summaries[("stationary", ONLINE)]
    parity = abs(st_on.goodput - st_off.goodput) <= max(
        PARITY_TOLERANCE * st_off.goodput, 1.0
    )
    result.add_check(
        "stationary traffic: online matches offline within noise "
        "(goodput within 10%)",
        parity,
        f"{st_on.goodput:.1f} vs {st_off.goodput:.1f} qps",
    )

    flash_on = burst_stats[("flash crowd", ONLINE)][0]
    flash_off = burst_stats[("flash crowd", OFFLINE)][0]
    flash_parity = abs(flash_on["goodput"] - flash_off["goodput"]) <= max(
        PARITY_TOLERANCE * flash_off["goodput"], 1.0
    )
    result.add_check(
        "flash crowd (legitimate, cost-visible surge): online matches "
        "offline within 10% goodput in the burst window",
        flash_parity,
        f"goodput {flash_on['goodput']:.1f} vs {flash_off['goodput']:.1f} "
        f"qps, attainment {flash_on['attainment']:.3f} vs "
        f"{flash_off['attainment']:.3f}",
    )

    for label in ATTACK_SCENARIOS:
        on = burst_stats[(label, ONLINE)][0]
        off = burst_stats[(label, OFFLINE)][0]
        better = (
            on["attainment"] > off["attainment"]
            and on["goodput"] > off["goodput"]
        )
        result.add_check(
            f"{label}: online beats offline for legitimate traffic in the "
            "burst window (SLO attainment and goodput)",
            better,
            f"attainment {on['attainment']:.3f} vs {off['attainment']:.3f}, "
            f"goodput {on['goodput']:.1f} vs {off['goodput']:.1f} qps",
        )

    recovery_ok = True
    recovery_details: List[str] = []
    for label in ATTACK_SCENARIOS:
        rec_on = recoveries[(label, ONLINE)][0]
        rec_off = recoveries[(label, OFFLINE)][0]
        recovery_ok = recovery_ok and rec_on <= rec_off + window_s
        recovery_details.append(f"{label}: {rec_on:.2f} vs {rec_off:.2f} s")
    result.add_check(
        "online recovers from attack bursts at least as fast as offline "
        "(within one control window)",
        recovery_ok,
        "; ".join(recovery_details),
    )

    guard_engaged = all(
        any(level >= DegradationLevel.SHEDDING
            for _, level in guards[(label, ONLINE)].transitions)
        and class_shed_counts.get((label, ONLINE), 0) > 0
        for label in ATTACK_SCENARIOS
    )
    result.add_check(
        "the anomaly guard escalated to class shedding under both attacks "
        "(labeled attack traffic refused at arrival)",
        guard_engaged,
        ", ".join(
            f"{label}: {len(guards[(label, ONLINE)].transitions)} "
            f"transitions, {class_shed_counts.get((label, ONLINE), 0)} "
            "class sheds"
            for label in ATTACK_SCENARIOS
        ),
    )

    quiet_ok = not guards[("stationary", ONLINE)].transitions and not (
        guards[("flash crowd", ONLINE)].transitions
    )
    result.add_check(
        "the guard never degrades on stationary traffic or the legitimate "
        "flash crowd (no false-positive escalation)",
        quiet_ok,
        f"stationary: {guards[('stationary', ONLINE)].transitions}, "
        f"flash crowd: {guards[('flash crowd', ONLINE)].transitions}",
    )

    result.data = {
        "slo_ms": slo_s * 1e3,
        "horizon_s": horizon_s,
        "window_s": window_s,
        "saturation_qps": system.saturation_rate,
        "attack_population_size": len(attack_population),
        "goodput_qps": {
            f"{s}/{p}": summaries[(s, p)].goodput for s, p in summaries
        },
        "slo_attainment": {
            f"{s}/{p}": summaries[(s, p)].slo_attainment for s, p in summaries
        },
        "shed_rate": {
            f"{s}/{p}": summaries[(s, p)].shed_rate for s, p in summaries
        },
        "burst_legit_attainment": {
            f"{s}/{p}": [b["attainment"] for b in stats]
            for (s, p), stats in burst_stats.items()
        },
        "burst_legit_goodput": {
            f"{s}/{p}": [b["goodput"] for b in stats]
            for (s, p), stats in burst_stats.items()
        },
        "recovery_s": {f"{s}/{p}": r for (s, p), r in recoveries.items()},
        "class_sheds": {
            f"{s}/{p}": c for (s, p), c in class_shed_counts.items()
        },
        "guard_transitions": {
            f"{s}/{p}": [
                [when, int(level)] for when, level in guard.transitions
            ]
            for (s, p), guard in guards.items()
        },
    }
    return result
