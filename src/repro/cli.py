"""Command-line entry point: ``python -m repro <experiment-id> [...]``.

Examples::

    python -m repro e06                 # run the headline experiment
    python -m repro --all               # run every experiment
    python -m repro e05 --scale small   # quick run at unit-test scale
    python -m repro --list              # list experiment ids
    python -m repro e05 --trace --json-dir out/   # + span/timeline JSONL
    python -m repro trace e05           # waterfall + timeline for one point
    python -m repro serve --port 8642   # live asyncio serving node (TCP)
    python -m repro loadgen --port 8642 --rate 500 --duration 2
    python -m repro livesmoke --output live_parity.json   # sim-vs-live
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.context import ExperimentContext, Scale
from repro.harness.registry import EXPERIMENTS, TITLES, run_experiment
from repro.obs.export import (
    export_timeline_jsonl,
    export_traces_jsonl,
    run_manifest,
    write_manifest,
)
from repro.obs.render import render_trace_report
from repro.obs.spans import RecordingTracer
from repro.util.serde import dump_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation of 'Adaptive Parallelism for Web "
            "Search' (EuroSys 2013)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (e01..e20)",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=None,
        help="experiment scale (default: REPRO_SCALE env var or 'reference')",
    )
    parser.add_argument(
        "--json-dir",
        type=Path,
        default=None,
        help="directory to write per-experiment JSON results",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help="write a consolidated markdown report (requires --json-dir)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record query-lifecycle spans and metric timelines; writes "
        "<id>.traces.jsonl / <id>.timeline.jsonl (requires --json-dir)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        return _loadgen_main(argv[1:])
    if argv and argv[0] == "livesmoke":
        return _livesmoke_main(argv[1:])
    args = _build_parser().parse_args(argv)

    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            print(f"{experiment_id}  {TITLES[experiment_id]}")
        return 0

    ids = sorted(EXPERIMENTS) if args.all else [e.lower() for e in args.experiments]
    if not ids:
        print("nothing to run; pass experiment ids, --all, or --list",
              file=sys.stderr)
        return 2
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.trace and args.json_dir is None:
        print("--trace requires --json-dir", file=sys.stderr)
        return 2
    if args.report is not None and args.json_dir is None:
        print("--report requires --json-dir", file=sys.stderr)
        return 2

    scale = Scale(args.scale) if args.scale else None
    tracer = RecordingTracer() if args.trace else None
    ctx = ExperimentContext(scale=scale, seed=args.seed, tracer=tracer)
    print(f"context: {ctx}\n")

    failed_checks = 0
    for experiment_id in ids:
        start = time.time()
        result = run_experiment(experiment_id, ctx)
        elapsed = time.time() - start
        print(result.render())
        print(f"({experiment_id} took {elapsed:.1f}s)\n")
        if args.json_dir is not None:
            dump_json(result.to_json(), args.json_dir / f"{experiment_id}.json")
            if tracer is not None:
                export_traces_jsonl(
                    tracer.traces,
                    args.json_dir / f"{experiment_id}.traces.jsonl",
                )
                rows = [
                    {"run": run_index, **row}
                    for run_index, run in enumerate(tracer.runs)
                    for row in run.timeline
                ]
                export_timeline_jsonl(
                    rows, args.json_dir / f"{experiment_id}.timeline.jsonl"
                )
                tracer.clear()
        failed_checks += sum(1 for check in result.checks if not check.passed)

    if args.json_dir is not None:
        manifest = run_manifest(
            seed=args.seed,
            scale=ctx.scale.value,
            config=ctx.params,
            experiments=ids,
            extra={"traced": bool(args.trace)},
        )
        write_manifest(manifest, args.json_dir / "manifest.json")

    if args.report is not None:
        from repro.harness.report import generate_report

        generate_report(args.json_dir, args.report)
        print(f"report written to {args.report}")

    if failed_checks:
        print(f"{failed_checks} shape check(s) FAILED", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------
# ``python -m repro trace <id>`` — one traced load point, rendered.
# ---------------------------------------------------------------------


def _trace_e05(ctx: ExperimentContext, seed: int) -> str:
    system = ctx.system
    system.run_point(
        "fixed-4",
        system.rate_for_utilization(0.3),
        duration=ctx.sim_duration,
        warmup=ctx.sim_warmup,
        seed=seed,
    )
    return "fixed-4 at u=0.3 (E5 operating point)"


def _trace_e09(ctx: ExperimentContext, seed: int) -> str:
    from repro.sim.arrivals import MMPP2Arrivals
    from repro.util.rng import RngFactory

    system = ctx.system
    mean_rate = system.rate_for_utilization(0.3)
    arrivals = MMPP2Arrivals.with_mean_rate(
        mean_rate=mean_rate,
        burst_ratio=4.0,
        mean_dwell_s=0.05,
        rng=RngFactory(1234).stream("trace", "mmpp"),
    )
    system.run_point(
        "adaptive",
        mean_rate,
        duration=ctx.sim_duration,
        warmup=ctx.sim_warmup,
        seed=seed,
        arrivals=arrivals,
    )
    return "adaptive under MMPP2 bursts (ratio 4) at mean u=0.3 (E9)"


def _trace_e12(ctx: ExperimentContext, seed: int) -> str:
    from repro.sim.cluster import ClusterConfig, run_cluster_point

    system = ctx.system
    duration = max(ctx.sim_duration * 0.75, 4.0)
    config = ClusterConfig(
        n_shards=4,
        n_cores_per_shard=system.n_cores,
        rate=system.rate_for_utilization(0.3),
        duration=duration,
        warmup=duration / 4.0,
        seed=seed + 7,
    )
    run_cluster_point(
        system.oracle, lambda: system.policy("adaptive"), config,
        tracer=ctx.tracer,
    )
    return "4-shard cluster fan-out, adaptive, per-shard u=0.3 (E12)"


def _trace_e19(ctx: ExperimentContext, seed: int) -> str:
    from repro.harness.experiments import e19_overload as e19

    system = ctx.system
    slo = e19.SLO_MULTIPLE * float(system.service_distribution.percentile(99))
    system.run_point(
        "adaptive",
        system.rate_for_utilization(e19.OVER_SATURATION),
        duration=ctx.sim_duration,
        warmup=ctx.sim_warmup,
        seed=seed,
        deadline=slo,
        max_queue_length=e19.QUEUE_CAP_PER_CORE * system.n_cores,
    )
    return (
        f"adaptive at u={e19.OVER_SATURATION} with deadline {slo * 1e3:.1f}ms "
        "and an admission cap (E19 overload point)"
    )


def _trace_e20(ctx: ExperimentContext, seed: int) -> str:
    from repro.harness.experiments import e20_regimes as e20

    e20.run_scenario(
        ctx.system, ctx.sim_duration, "flash crowd", seed, online=True, tracer=ctx.tracer
    )
    return (
        "online-adaptive through a flash crowd with tail-feedback control "
        "and the anomaly guard (E20 regime-shift point)"
    )


#: id -> (runner, one-line description shown by --help).
_TRACE_PRESETS: Dict[str, Tuple[Callable[[ExperimentContext, int], str], str]] = {
    "e05": (_trace_e05, "fixed-degree load point at u=0.3"),
    "e09": (_trace_e09, "adaptive under MMPP2 bursty arrivals"),
    "e12": (_trace_e12, "cluster fan-out with per-shard spans"),
    "e19": (_trace_e19, "adaptive overload point with shedding"),
    "e20": (_trace_e20, "online control + anomaly guard through a flash crowd"),
}


def _trace_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Run one traced load point and render per-query span "
            "waterfalls plus the sampled metric timeline. Presets: "
            + "; ".join(
                f"{key} = {hint}" for key, (_, hint) in sorted(_TRACE_PRESETS.items())
            )
        ),
    )
    parser.add_argument("experiment", choices=sorted(_TRACE_PRESETS))
    parser.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=None,
        help="experiment scale (default: REPRO_SCALE env var or 'reference')",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for traces/timeline JSONL and the run manifest",
    )
    parser.add_argument(
        "--waterfalls", type=int, default=3, help="waterfalls to render"
    )
    args = parser.parse_args(argv)

    scale = Scale(args.scale) if args.scale else None
    tracer = RecordingTracer()
    ctx = ExperimentContext(scale=scale, seed=args.seed, tracer=tracer)
    runner, _ = _TRACE_PRESETS[args.experiment]
    description = runner(ctx, args.seed)

    traces = tracer.traces
    timeline = [row for run in tracer.runs for row in run.timeline]
    print(f"{args.experiment}: {description} [{ctx.scale.value} scale]\n")
    print(render_trace_report(traces, timeline, n_waterfalls=args.waterfalls))

    if args.out is not None:
        export_traces_jsonl(traces, args.out / f"{args.experiment}.traces.jsonl")
        export_timeline_jsonl(
            timeline, args.out / f"{args.experiment}.timeline.jsonl"
        )
        write_manifest(
            run_manifest(
                seed=args.seed,
                scale=ctx.scale.value,
                config=ctx.params,
                experiments=[args.experiment],
                extra={"mode": "trace"},
            ),
            args.out / "manifest.json",
        )
        print(f"wrote traces, timeline, and manifest to {args.out}")
    return 0


# --------------------------------------------------------------------
# Live serving mode: `repro serve`, `repro loadgen`, `repro livesmoke`
# --------------------------------------------------------------------


def _serve_main(argv: List[str]) -> int:
    """Host the live asyncio serving node (see repro.runtime.serve)."""
    import asyncio

    from repro.harness.live import engine_search_for
    from repro.runtime.node import ServingConfig, ServingNode
    from repro.runtime.serve import AsyncioScheduler, LiveServer, run_live

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve the profiled engine over TCP (newline-delimited JSON): "
            "the same scheduling kernel and policies as the simulator, on "
            "wall-clock time."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--scale", choices=[s.value for s in Scale], default=None,
        help="system scale (default: REPRO_SCALE env var or 'reference')",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument("--policy", default="adaptive",
                        help="parallelism policy name (default: adaptive)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-query SLO budget in model seconds")
    parser.add_argument("--max-queue", type=int, default=None,
                        help="admission cap on the dispatch queue")
    parser.add_argument(
        "--dilation", type=float, default=1.0,
        help="wall seconds per model second (default 1.0 = real time)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many wall seconds (default: run until the "
        "shutdown op or Ctrl-C)",
    )
    parser.add_argument(
        "--horizon", type=float, default=3600.0,
        help="metrics measurement window in model seconds",
    )
    parser.add_argument(
        "--budget", type=float, default=60.0,
        help="default per-search completion budget in model seconds",
    )
    parser.add_argument(
        "--no-engine", action="store_true",
        help="skip real engine execution (timing-only service)",
    )
    args = parser.parse_args(argv)

    scale = Scale(args.scale) if args.scale else None
    ctx = ExperimentContext(scale=scale, seed=args.seed)
    system = ctx.system
    policy = system.policy(args.policy)
    search = None if args.no_engine else engine_search_for(system)
    print(f"context: {ctx}")

    async def _amain() -> None:
        scheduler = AsyncioScheduler(dilation=args.dilation)
        node = ServingNode(
            scheduler,
            system.oracle,
            policy,
            ServingConfig(
                n_cores=system.n_cores,
                horizon_s=args.horizon,
                deadline_s=args.deadline,
                max_queue_length=args.max_queue,
            ),
            engine_search=search,
        )
        service = LiveServer(
            node, dilation=args.dilation, request_budget_s=args.budget
        )
        serve_task = asyncio.get_running_loop().create_task(
            service.serve(args.host, args.port, duration_s=args.duration)
        )
        port = await service.wait_ready()
        print(
            f"serving policy={policy.name} n_cores={system.n_cores} "
            f"n_queries={system.oracle.n_queries} on {args.host}:{port} "
            f"(dilation {args.dilation}x)",
            flush=True,
        )
        await serve_task
        print(
            f"served {node.n_answered} queries, shed {node.server.n_shed}"
        )

    try:
        run_live(_amain())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted")
    return 0


def _loadgen_main(argv: List[str]) -> int:
    """Replay a seeded arrival script against a live server."""
    import asyncio
    import json
    from contextlib import suppress

    from repro.runtime.loadgen import (
        CONNECT_TIMEOUT_S,
        ReplayOptions,
        replay_open_loop,
        run_closed_loop,
    )
    from repro.runtime.serve import run_live
    from repro.sim.experiment import LoadPointConfig
    from repro.sim.script import build_arrival_script

    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description=(
            "Open- or closed-loop load generator for `repro serve`: replays "
            "the same seeded arrival streams the simulator uses."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True,
                        help="mean arrival rate (model QPS)")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="workload horizon in model seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dilation", type=float, default=1.0,
                        help="must match the server's dilation")
    parser.add_argument("--budget", type=float, default=None,
                        help="per-request completion budget (model seconds)")
    parser.add_argument("--closed", type=int, default=None, metavar="N",
                        help="closed loop with N clients (default: open loop)")
    parser.add_argument("--think", type=float, default=0.0,
                        help="closed-loop mean think time (model seconds)")
    args = parser.parse_args(argv)
    options = ReplayOptions(dilation=args.dilation, budget_s=args.budget)

    async def _amain() -> Dict[str, object]:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(args.host, args.port),
            timeout=CONNECT_TIMEOUT_S,
        )

        async def ask(
            payload: Dict[str, object], timeout_s: float
        ) -> Dict[str, object]:
            writer.write((json.dumps(payload) + "\n").encode("utf-8"))
            await asyncio.wait_for(writer.drain(), timeout=timeout_s)
            return json.loads(
                await asyncio.wait_for(reader.readline(), timeout=timeout_s)
            )

        # The probe is the rest of connection setup: a listener that
        # accepts and never answers it is not a server.
        stats = await ask(
            {"id": "probe", "op": "stats"}, CONNECT_TIMEOUT_S
        )
        n_queries = int(stats["n_queries"])
        config = LoadPointConfig(
            rate=args.rate, duration=args.duration, warmup=0.0,
            n_cores=int(stats["n_cores"]), seed=args.seed,
        )
        script = build_arrival_script(n_queries, config)
        if args.closed is None:
            replies = await replay_open_loop(
                args.host, args.port, script, options
            )
        else:
            per_client = await run_closed_loop(
                args.host, args.port, script, args.closed,
                think_time_s=args.think, options=options,
            )
            replies = [reply for chunk in per_client for reply in chunk]
        final = await ask(
            {"id": "final", "op": "stats", "rate": args.rate},
            options.reply_timeout_s,
        )
        writer.close()
        with suppress(asyncio.TimeoutError, OSError):
            await asyncio.wait_for(
                writer.wait_closed(), timeout=CONNECT_TIMEOUT_S
            )
        answered = sum(
            1 for r in replies if r and r.get("status") == "completed"
        )
        shed = sum(1 for r in replies if r and r.get("status") == "shed")
        return {
            "n_requests": len(script),
            "n_completed": answered,
            "n_shed": shed,
            "n_lost": len(script) - answered - shed,
            "server_summary": final.get("summary"),
        }

    try:
        outcome = run_live(_amain())
    except asyncio.TimeoutError:
        print(
            f"repro loadgen: {args.host}:{args.port} did not answer in time",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(outcome, indent=2, sort_keys=True))
    return 0


def _livesmoke_main(argv: List[str]) -> int:
    """Sim-vs-live tolerance validation at matched load points."""
    from repro.harness.live import run_live_smoke

    parser = argparse.ArgumentParser(
        prog="repro livesmoke",
        description=(
            "Boot the live server in-process, replay identical seeded "
            "scripts through it and the simulator, and check the live "
            "latency/shed curves against the sim predictions."
        ),
    )
    parser.add_argument(
        "--scale", choices=[s.value for s in Scale], default=None,
        help="system scale (default: REPRO_SCALE env var or 'reference')",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=2.0,
                        help="per-point horizon in model seconds")
    parser.add_argument("--dilation", type=float, default=10.0,
                        help="wall seconds per model second")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--engine-results", action="store_true",
                        help="run the real engine per completed query")
    args = parser.parse_args(argv)

    scale = Scale(args.scale) if args.scale else None
    ctx = ExperimentContext(scale=scale, seed=args.seed)
    print(f"context: {ctx}")
    report, ok = run_live_smoke(
        context=ctx,
        duration_s=args.duration,
        dilation=args.dilation,
        seed=args.seed,
        output=None if args.output is None else str(args.output),
        engine_results=args.engine_results,
    )
    for entry in report["points"]:
        status = "ok" if entry["ok"] else "FAIL"
        print(f"\n[{status}] {entry['point']} "
              f"rate={entry['rate']:.1f} arrivals={entry['n_arrivals']}")
        for metric, row in sorted(entry["metrics"].items()):
            if row["kind"] == "skipped-nan":
                continue
            flag = "ok " if row["ok"] else "OUT"
            print(
                f"  {flag} {metric:>15}: sim={row['sim']:.6g} "
                f"live={row['live']:.6g} dev={row['deviation']:.3f} "
                f"band={row['band']:.2f}"
            )
    if args.output is not None:
        print(f"\nreport written to {args.output}")
    print(f"\nlive smoke: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
