"""The per-layer ledger: one number per layer boundary, measured by
timing calls into public functions of ``src/repro`` from outside.

The ledger is the same whatever workload was traced, so every traced
run reports every per-layer metric. Times are calibrated like the
end-to-end ones (see ``stats``), with a probe before and after each
timed call. Which end-to-end metric each number should move, and on
which workload, is tabulated in README.md.
"""

from __future__ import annotations

import asyncio
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Tuple, TypeVar

from perfharness.engine_workloads import EngineBatch, EngineShard, EngineSingle
from perfharness.inputs import DEGREE_CYCLE, PACED_RATE, query_stream
from perfharness.serve_workloads import ServePaced
from perfharness.sim_workload import build_small_system
from perfharness.spec import program_env
from perfharness.stats import (
    PROBE_REFERENCE_S,
    Prober,
    calibration_probe,
    percentile,
)

from repro.core.controller import AdaptiveSearchSystem
from repro.engine import Engine
from repro.harness.live import engine_search_for
from repro.index.io import load_index
from repro.obs.registry import RunObserver
from repro.policies.base import QueryInfo, SystemState
from repro.policies.derivation import derive_threshold_table
from repro.profiles.measurement import MeasurementConfig, measure_cost_table
from repro.runtime.clock import FakeClock
from repro.runtime.loadgen import replay_open_loop
from repro.runtime.node import ServingConfig, ServingNode
from repro.sim.engine import Simulator
from repro.sim.experiment import LoadPointConfig, run_load_point
from repro.sim.script import build_arrival_script, run_scripted_point

T = TypeVar("T")

#: Queries whose chunk kernel is timed (the longest of the stream).
LONGEST = 100
#: Model seconds of the load points the sim probes run.
SIM_PROBE_S = 0.5
#: Events of the bare simulator tick loop.
TICKS = 200_000
#: Arrivals of the script ``replay_open_loop`` is timed on.
REPLAY_ARRIVALS = 1_000
#: Sequential pings timed for the front-door round trip.
PINGS = 2_000


def _with_factor(work: Callable[[], T]) -> Tuple[T, float]:
    """Run ``work`` between two probes; returns its result and how slow
    the box was running (divide raw times by it)."""
    before = calibration_probe()
    result = work()
    after = calibration_probe()
    return result, (before + after) / 2.0 / PROBE_REFERENCE_S


def _timed(work: Callable[[], Any], repeats: int = 3) -> float:
    """Median calibrated wall seconds of ``work()`` over ``repeats``."""
    def once() -> float:
        started = time.perf_counter()
        work()
        return time.perf_counter() - started

    samples: List[float] = []
    for _ in range(repeats):
        elapsed, factor = _with_factor(once)
        samples.append(elapsed / factor)
    return statistics.median(samples)


# ---------------------------------------------------------------------
# corpus / workloads / index / engine
# ---------------------------------------------------------------------


def _engine_layers(seed: int) -> Dict[str, float]:
    shard, factor = _with_factor(EngineShard)
    try:
        values = {
            "workloads.build_workbench_s": shard.build_s / factor,
            "index.save_v2_s": shard.save_s / factor,
            "index.disk_mb": shard.disk_mb(),
            "index.open_mmap_ms": _timed(lambda: load_index(shard.path), 5) * 1e3,
        }
        queries = query_stream(shard.workbench, EngineSingle.stream,
                               EngineSingle.n_queries, seed)
        values.update(_first_touch(shard, queries))
        values.update(_plan_and_execute(shard.engine, queries))
        values.update(_batch_counts(shard, seed))
    finally:
        shard.remove()
    return values


def _first_touch(shard: EngineShard, queries: List[Any]) -> Dict[str, float]:
    """First pass over a freshly opened mmap minus the second pass."""
    engine = Engine(load_index(shard.path))
    head = queries[:320]

    def one_pass() -> None:
        for i, query in enumerate(head):
            engine.execute(query, DEGREE_CYCLE[i % 4])

    first = _timed(one_pass, 1)
    second = _timed(one_pass, 1)
    return {"index.first_touch_ms": (first - second) * 1e3}


def _plan_and_execute(engine: Engine, queries: List[Any]) -> Dict[str, float]:
    clock = time.perf_counter

    def stream_pass() -> Tuple[List[float], List[float], List[Any]]:
        plan_s: List[float] = []
        execute_s: List[float] = []
        results: List[Any] = []
        for i, query in enumerate(queries):
            began = clock()
            trace = engine.trace(query)
            planned = clock()
            results.append(engine.execute_trace(trace, DEGREE_CYCLE[i % 4]))
            execute_s.append(clock() - planned)
            plan_s.append(planned - began)
        return plan_s, execute_s, results

    (plan_s, execute_s, results), factor = _with_factor(stream_pass)
    sequential = [i for i, result in enumerate(results) if result.degree == 1]
    values = {
        "engine.plan_us_p50": percentile(plan_s, 50.0) * 1e6 / factor,
        "engine.plan_share": sum(plan_s) / (sum(plan_s) + sum(execute_s)),
        "engine.costmodel_over_wall_p50": percentile(
            [results[i].latency / ((plan_s[i] + execute_s[i]) / factor)
             for i in sequential], 50.0),
    }

    # The chunk kernels, on the queries that scan the most postings:
    # the chunks a sequential execution evaluates, one call per chunk
    # against one call per wave of 64.
    by_work = sorted(range(len(queries)), key=lambda i: results[i].postings_scanned)
    longest = [queries[i] for i in by_work[-LONGEST:]]
    plans = [engine.plan(query) for query in longest]
    positions = [
        list(range(engine.execute(query, 1).chunks_evaluated)) for query in longest
    ]

    def per_chunk() -> int:
        postings = 0
        for plan, evaluated in zip(plans, positions):
            for position in evaluated:
                postings += plan.score_chunk(position).postings_scanned
        return postings

    def per_wave() -> None:
        for plan, evaluated in zip(plans, positions):
            for start in range(0, len(evaluated), 64):
                plan.score_chunks(evaluated[start:start + 64])

    postings = per_chunk()
    values["engine.score_chunk_ns_per_posting"] = _timed(per_chunk) * 1e9 / postings
    values["engine.score_chunks_ns_per_posting"] = _timed(per_wave) * 1e9 / postings

    # The executors, on the longest decile.
    decile = [queries[i] for i in by_work[-(len(queries) // 10):]]
    chunks = sum(engine.execute(query, 1).chunks_evaluated for query in decile)

    def at_degree(degree: int) -> Callable[[], None]:
        def run() -> None:
            for query in decile:
                engine.execute(query, degree)
        return run

    wall_1 = _timed(at_degree(1))
    plan_only = _timed(lambda: [engine.trace(query) for query in decile])
    values["engine.parallel_wall_ratio_d4"] = _timed(at_degree(4)) / wall_1
    values["engine.sequential_us_per_chunk"] = (wall_1 - plan_only) * 1e6 / chunks
    return values


def _batch_counts(shard: EngineShard, seed: int) -> Dict[str, float]:
    """Exact work counts of the batched path (they repeat run to run)."""
    queries = query_stream(
        shard.workbench, EngineBatch.stream, EngineBatch.n_queries, seed
    )
    executor = shard.engine.batch_executor()
    waves = speculative = evaluated = postings = early = 0
    for start in range(0, len(queries), EngineBatch.call_len):
        for result in executor.execute(queries[start:start + EngineBatch.call_len]):
            postings += result.postings_scanned
            early += result.terminated_early
        stats = executor.last_stats
        waves += stats.waves
        speculative += stats.chunks_speculative
        evaluated += stats.chunks_evaluated
    n = len(queries)
    return {
        "engine.chunks_evaluated_per_query": evaluated / n,
        "engine.postings_scanned_per_query": postings / n,
        "engine.early_termination_share": early / n,
        "engine.batch_waves": float(waves),
        "engine.batch_chunks_speculative": float(speculative),
        "engine.batch_waste_share": speculative / max(evaluated + speculative, 1),
    }


# ---------------------------------------------------------------------
# profiles / policies / core + sim.server + runtime.node / sim / obs
# ---------------------------------------------------------------------


def _tick_loop() -> None:
    simulator = Simulator()
    remaining = [TICKS]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0]:
            simulator.schedule(1e-3, tick)

    simulator.schedule(0.0, tick)
    simulator.run()


def _system_layers(
    system: AdaptiveSearchSystem, build_s: float, seed: int
) -> Dict[str, float]:
    config = system.config
    workbench = system.workbench
    queries = system.cost_table.queries
    values = {
        "harness.system_build_s": build_s,
        "profiles.measure_cost_table_s": _timed(lambda: measure_cost_table(
            workbench.engine, queries,
            MeasurementConfig(degrees=config.degrees, n_queries=len(queries)),
        ), 1),
        "policies.derive_thresholds_ms": _timed(lambda: derive_threshold_table(
            system.profile, n_cores=config.n_cores, degrees=config.degrees,
            min_gain=config.min_gain,
        ), 9) * 1e3,
    }

    policy = system.policy("adaptive")
    states = [
        SystemState(now=0.0, n_queued=queued, n_running=running,
                    free_cores=max(config.n_cores - running, 1),
                    n_cores=config.n_cores)
        for queued in range(8) for running in range(config.n_cores)
    ]
    info = QueryInfo()

    def choose() -> None:
        for _ in range(200):
            for state in states:
                policy.choose_degree(state, info)

    values["policies.choose_degree_us"] = _timed(choose) * 1e6 / (200 * len(states))

    # One shared model under three drivers: FakeClock node, scripted
    # simulator, online simulator.
    point = LoadPointConfig(
        rate=system.rate_for_utilization(0.7), duration=SIM_PROBE_S, warmup=0.0,
        n_cores=system.n_cores, seed=seed,
    )
    script = build_arrival_script(system.oracle.n_queries, point)

    def node_drain() -> None:
        clock = FakeClock()
        node = ServingNode(
            clock, system.oracle, system.policy("adaptive"),
            ServingConfig(n_cores=system.n_cores, horizon_s=SIM_PROBE_S * 10),
        )
        for arrival in script:
            clock.schedule_at(
                arrival.time_s, lambda a=arrival: node.submit(a.query_index)
            )
        clock.drain()

    scripted_s = _timed(lambda: run_scripted_point(
        system.oracle, system.policy("adaptive"), point, script))
    online_s = _timed(lambda: run_load_point(
        system.oracle, system.policy("adaptive"), point))
    observed_s = _timed(lambda: run_load_point(
        system.oracle, system.policy("adaptive"), point, observer=RunObserver()))
    values.update({
        "runtime.node_us_per_query": _timed(node_drain) * 1e6 / len(script),
        "sim.simulator_events_per_s": TICKS / _timed(_tick_loop),
        "sim.scripted_point_us_per_query": scripted_s * 1e6 / len(script),
        "sim.load_point_us_per_query": online_s * 1e6 / len(script),
        "sim.arrival_gen_share": _timed(lambda: build_arrival_script(
            system.oracle.n_queries, point)) / online_s,
        "obs.sim_trace_overhead_ratio": observed_s / online_s,
    })

    overload = run_load_point(
        system.oracle, system.policy("adaptive"),
        LoadPointConfig(
            rate=system.rate_for_utilization(1.2), duration=SIM_PROBE_S,
            warmup=0.0, n_cores=system.n_cores, seed=seed,
            deadline=2.5 * float(system.service_distribution.percentile(99)),
            max_queue_length=32 * system.n_cores,
        ),
    )
    values["sim.shed_share_overload"] = overload.shed_rate
    return values


# ---------------------------------------------------------------------
# runtime (front door, loadgen) / cli
# ---------------------------------------------------------------------


def _import_s() -> float:
    def once() -> None:
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], check=True,
            env=program_env(),
        )

    return _timed(once)


async def _ping_rtts(paced: ServePaced) -> List[float]:
    reader, writer = paced.connections[0]
    clock = time.perf_counter
    rtts: List[float] = []
    for request_id in range(PINGS):
        began = clock()
        writer.write(b'{"id": %d, "op": "ping"}\n' % request_id)
        await asyncio.wait_for(reader.readline(), timeout=30.0)
        rtts.append(clock() - began)
    return rtts


def _serve_layers(seed: int, system: AdaptiveSearchSystem) -> Dict[str, float]:
    """``system`` is the in-process twin of what the server hosts."""
    paced = ServePaced(seed)
    paced.setup()
    try:
        paced.warmup()
        sample = paced.run_round(Prober())
        record = paced.last_record
        rtts, ping_factor = _with_factor(
            lambda: paced.loop.run_until_complete(_ping_rtts(paced))
        )
        script = build_arrival_script(
            paced.pool,
            LoadPointConfig(rate=PACED_RATE, duration=REPLAY_ARRIVALS / PACED_RATE * 1.2,
                            warmup=0.0, n_cores=system.n_cores, seed=seed),
        )[:REPLAY_ARRIVALS]
        started = time.perf_counter()
        paced.loop.run_until_complete(
            replay_open_loop("127.0.0.1", paced.server.port, script)
        )
        replay_s = time.perf_counter() - started
    finally:
        paced.teardown()

    answered = [k for k, reply in enumerate(record.replies) if reply is not None]
    model_ms = [record.replies[k]["latency_s"] * 1e3 for k in answered]
    client_ms = [(record.done[k] - record.due[k]) * 1e3 for k in answered]
    overhead_ms = [c - m for c, m in zip(client_ms, model_ms)]

    search = engine_search_for(system)
    clock = time.perf_counter

    def hook_pass() -> List[float]:
        hook_s: List[float] = []
        for k in answered:
            reply = record.replies[k]
            began = clock()
            search(reply["query_index"], reply.get("degree", 1))
            hook_s.append(clock() - began)
        return hook_s

    hook_s, hook_factor = _with_factor(hook_pass)
    return {
        "runtime.ping_rtt_us_p50": percentile(rtts, 50.0) * 1e6 / ping_factor,
        "runtime.server_model_ms_p50": percentile(model_ms, 50.0),
        "runtime.engine_hook_ms_p50": percentile(hook_s, 50.0) * 1e3 / hook_factor,
        # Timer and wake-up time, not CPU time: as timed, like the
        # serve-paced latencies they decompose.
        "runtime.client_minus_model_ms_p50": percentile(overhead_ms, 50.0),
        "runtime.client_minus_model_ms_p99": percentile(overhead_ms, 99.0),
        "runtime.reply_bytes_p50": percentile(
            [record.reply_bytes[k] for k in answered], 50.0),
        "runtime.slo_miss_share": sample.extra["slo_miss_share"],
        "runtime.replay_overrun_ratio": replay_s / script[-1].time_s,
        "loadgen.send_lag_ms_p50": sample.extra["send_lag_ms_p50"],
        "loadgen.send_lag_ms_p99": sample.extra["send_lag_ms_p99"],
    }


def measure_layers(seed: int) -> Dict[str, float]:
    """Every per-layer metric except the ``bench.*`` ones."""
    values = _engine_layers(seed)
    built: List[AdaptiveSearchSystem] = []
    build_s = _timed(lambda: built.append(build_small_system()), 1)
    values.update(_system_layers(built[0], build_s, seed))
    values.update(_serve_layers(seed, built[0]))
    values["cli.import_s"] = _import_s()
    return values
