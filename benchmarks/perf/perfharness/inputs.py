"""Every input of every workload, built from ``--seed``.

The driver judges the benchmark's steadiness over ten runs with ten
different seeds, so a seed must change the inputs without changing how
much work they hold: the *system* (30k-doc shard, the small-scale shard
and profiled pool the server hosts, the profiled simulator system) is
built from :data:`SYSTEM_SEED` for every ``--seed``, and the seed drives
the *traffic* — query and request order, arrival times, the simulator's
arrival and sampling streams. (With a corpus and query sample per seed,
engine-single's p50 — which sits where its latency distribution is
steepest — spread 15 % over ten seeds, and the p99 of a 300-query pool,
set by its three heaviest queries, +-30 %.)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.sim.experiment import LoadPointConfig
from repro.util.rng import RngFactory
from repro.workloads.workbench import Workbench, WorkbenchConfig

#: Seed of everything that is part of the system under test.
SYSTEM_SEED = 0
#: engine-*: shard size (documents, vocabulary).
ENGINE_DOCS = 30_000
ENGINE_VOCAB = 20_000
#: engine-single: degree by stream position.
DEGREE_CYCLE = (1, 1, 2, 4)
#: serve-paced: offered rate, about a third of engine-on capacity.
PACED_RATE = 400.0
#: sim-sweep: model seconds per load point.
SIM_POINT_S = 0.5


def engine_workbench_config(
    n_docs: int = ENGINE_DOCS, vocab_size: int = ENGINE_VOCAB
) -> WorkbenchConfig:
    base = WorkbenchConfig.small(seed=SYSTEM_SEED)
    return replace(
        base, corpus=replace(base.corpus, n_docs=n_docs, vocab_size=vocab_size)
    )


def query_stream(workbench: Workbench, stream: str, n: int, seed: int) -> List[Any]:
    """The first ``n`` queries of the workbench's named RNG stream, in
    an order drawn from ``seed``."""
    queries = workbench.query_generator(stream).sample_many(n)
    order = RngFactory(seed).stream("perf", "query-order", stream).permutation(n)
    return [queries[i] for i in order]


def poisson_schedule(seed: int, rate: float, n: int, draw: int = 0) -> np.ndarray:
    """Due times (seconds from round start) of a Poisson process at
    ``rate`` that has exactly ``n`` arrivals in ``n / rate`` seconds —
    given their number, Poisson arrivals are uniform order statistics.
    Fixing the span keeps the offered rate the same for every seed.
    ``draw`` numbers independent schedules of one seed."""
    rng = RngFactory(seed).stream("perf", "schedule", draw)
    return np.sort(rng.uniform(0.0, n / rate, size=n))


def query_index_stream(seed: int, n: int, pool: int, draw: int = 0) -> List[int]:
    """``n`` query indices as consecutive shuffled passes over a
    profiled pool of ``pool``: uniform over the pool, and every query
    comes up equally often (+-1), so a round holds the same work for
    every seed and only its order differs. (With independent draws the
    pool's few heaviest queries came up 0-6 times a round, and the tail
    latency followed.) ``draw`` numbers independent orders of one seed."""
    rng = RngFactory(seed).stream("perf", "query-index", draw)
    passes = -(-n // pool)
    order = np.concatenate([rng.permutation(pool) for _ in range(passes)])
    return [int(i) for i in order[:n]]


def sim_points(system: Any, seed: int) -> List[Tuple[str, LoadPointConfig]]:
    """The seven ``(policy, load point)`` pairs of one sim-sweep round:
    {sequential, adaptive, incremental} x utilisation {0.3, 0.7}, then
    adaptive at 1.2x saturation with the E19 deadline and queue cap."""
    shapes: List[Tuple[str, float, Dict[str, Any]]] = [
        (policy, utilization, {})
        for policy in ("sequential", "adaptive", "incremental")
        for utilization in (0.3, 0.7)
    ]
    shapes.append(("adaptive", 1.2, {
        "deadline": 2.5 * float(system.service_distribution.percentile(99)),
        "max_queue_length": 32 * system.n_cores,
    }))
    return [
        (policy, LoadPointConfig(
            rate=system.rate_for_utilization(utilization),
            duration=SIM_POINT_S, warmup=0.0, n_cores=system.n_cores,
            seed=seed * 1000 + offset, **robustness,
        ))
        for offset, (policy, utilization, robustness) in enumerate(shapes)
    ]
