"""One live smoke load point: server + load generator, in process.

:func:`run_live_point` is the wall-clock counterpart of
:func:`~repro.sim.script.run_scripted_point`: it boots a
:class:`~repro.runtime.serve.LiveServer` on an ephemeral localhost
port, replays the given arrival script open-loop through real TCP with
:func:`~repro.runtime.loadgen.replay_open_loop`, shuts the server
down, and returns the node's summary in the shared load-point schema.
Real wall time passes — ``duration × dilation`` seconds — which is why
smoke runs use short horizons and validation happens through the
tolerance bands in :mod:`repro.runtime.parity`, not exact equality.
Run it with :func:`~repro.runtime.serve.run_live`, as the harness
does: on that loop a timer fires ≈ 0.15 ms after it is due (mean), not
the ≈ 0.6 ms of a loop on the stock epoll selector, so what the bands
absorb is the host's wake-up latency, divided by the dilation.

The experiment harness (``python -m repro livesmoke``) layers point
selection, the simulator reference runs, and report writing on top of
this; keeping this module free of harness imports keeps the runtime
layer's dependency story one-way (``tests/test_source_rules.py``).
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional, Sequence, Tuple

from repro.policies.base import ParallelismPolicy
from repro.runtime.loadgen import ReplayOptions, replay_open_loop
from repro.runtime.node import ServingConfig, ServingNode
from repro.runtime.serve import AsyncioScheduler, LiveServer
from repro.sim.experiment import DRAIN_HORIZONS, LoadPointConfig, LoadPointSummary
from repro.sim.oracle import ServiceOracle
from repro.sim.script import ScriptedArrival

__all__ = ["run_live_point"]

#: Wall-seconds bound on server startup/shutdown bookkeeping.
_LIFECYCLE_TIMEOUT_S = 15.0


async def run_live_point(
    oracle: ServiceOracle,
    policy: ParallelismPolicy,
    config: LoadPointConfig,
    script: Sequence[ScriptedArrival],
    dilation: float = 1.0,
    engine_search: Optional[Any] = None,
) -> Tuple[LoadPointSummary, ServingNode]:
    """Serve ``script`` over localhost TCP and summarize the node.

    Each request's completion budget covers the full drain window (10×
    the horizon, matching the simulator's bounded drain) so the
    open-loop client never gives up before the server's own shedding
    machinery has spoken.
    """
    budget_s = config.duration * DRAIN_HORIZONS
    scheduler = AsyncioScheduler(dilation=dilation)
    node = ServingNode(
        scheduler, oracle, policy, ServingConfig.from_load_point(config),
        engine_search=engine_search,
    )
    service = LiveServer(
        node, dilation=dilation, request_budget_s=budget_s
    )
    loop = asyncio.get_running_loop()
    serve_task = loop.create_task(service.serve("127.0.0.1", 0))
    try:
        port = await service.wait_ready(timeout_s=_LIFECYCLE_TIMEOUT_S)
        options = ReplayOptions(
            dilation=dilation,
            budget_s=budget_s,
            reply_timeout_s=max(120.0, budget_s * dilation + 30.0),
        )
        # Every reply is awaited, so when the replay returns the server
        # has finished (answered or shed) every scripted query.
        await replay_open_loop("127.0.0.1", port, script, options)
    finally:
        service.request_shutdown()
        try:
            await asyncio.wait_for(serve_task, timeout=_LIFECYCLE_TIMEOUT_S)
        except asyncio.TimeoutError:
            serve_task.cancel()
    return node.summary(config.rate), node
