"""Closed-loop workload: a fixed client population with think times.

The paper's load tests are open-loop (arrivals independent of service),
which is the right model for an ISN behind a large user population — but
closed-loop load generators are common in practice and behave very
differently near saturation (they self-throttle instead of building an
unbounded queue). This runner lets both be compared on the same server
model: ``n_clients`` clients each cycle submit → wait for completion →
think (exponential) → submit again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.policies.base import ParallelismPolicy
from repro.sim.engine import Simulator
from repro.sim.experiment import LoadPointSummary, summarize_load_point
from repro.sim.metrics import MetricsCollector, QueryRecord
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel
from repro.util.rng import RngFactory
from repro.util.validation import require, require_in_range, require_int_in_range, require_positive


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Closed-loop load-point parameters."""

    n_clients: int = 32
    think_time: float = 0.01  # mean think time (seconds, exponential)
    duration: float = 20.0
    warmup: float = 4.0
    n_cores: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        require_int_in_range(self.n_clients, "n_clients", low=1)
        require_in_range(self.think_time, "think_time", low=0.0)
        require_positive(self.duration, "duration")
        require(0 <= self.warmup < self.duration, "need 0 <= warmup < duration")
        require_int_in_range(self.n_cores, "n_cores", low=1)


def run_closed_loop_point(
    oracle: ServiceOracle,
    policy: ParallelismPolicy,
    config: ClosedLoopConfig,
) -> LoadPointSummary:
    """Simulate a closed-loop load point and summarize it.

    Clients stop issuing new queries at the horizon; in-flight queries
    drain so tail statistics are not censored.
    """
    # Position-independent child streams (see util/rng.py docstring).
    streams = RngFactory(config.seed)
    think_rng = streams.stream("think")
    sample_rng = streams.stream("sample")

    simulator = Simulator()
    metrics = MetricsCollector(config.warmup, config.duration, config.n_cores)
    n_queries = oracle.n_queries

    def submit_for(client_id: int) -> None:
        if simulator.now > config.duration:
            return
        server.submit(int(sample_rng.integers(n_queries)), tag=client_id)

    def on_complete(record: QueryRecord, tag) -> None:
        think = (
            float(think_rng.exponential(config.think_time))
            if config.think_time > 0
            else 0.0
        )
        simulator.schedule(think, lambda: submit_for(tag))

    server = IndexServerModel(
        simulator,
        oracle,
        policy,
        config.n_cores,
        metrics,
        on_query_complete=on_complete,
    )

    for client_id in range(config.n_clients):
        # Stagger initial submissions across one mean think time so the
        # population does not arrive as a synchronized burst.
        offset = (
            float(think_rng.uniform(0.0, config.think_time))
            if config.think_time > 0
            else 0.0
        )
        simulator.schedule(offset, lambda c=client_id: submit_for(c))

    simulator.run()

    return summarize_load_point(server, metrics.throughput())
