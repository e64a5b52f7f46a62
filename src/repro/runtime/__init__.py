"""Wall-clock runtime drivers.

The counterpart of :mod:`repro.sim`: where the simulator drives the
scheduling kernel (the policies, and the decisions
:class:`~repro.sim.server.IndexServerModel` makes) on virtual time, this
package drives it on *wall* time —

* :class:`~repro.runtime.clock.FakeClock` — the deterministic-test
  implementation of the kernel's clock interfaces (the live one is
  the :class:`~repro.runtime.serve.AsyncioScheduler` below);
* :class:`~repro.runtime.node.ServingNode` — the clock-agnostic server
  model assembled for live serving (engine results, outcome
  callbacks, shared metrics schema);
* :mod:`~repro.runtime.serve` — the asyncio TCP front door and the
  dilated :class:`~repro.runtime.serve.AsyncioScheduler`;
* :mod:`~repro.runtime.loadgen` — open/closed-loop protocol clients
  replaying the simulator's seeded arrival scripts;
* :mod:`~repro.runtime.parity` / :mod:`~repro.runtime.smoke` — the
  sim-vs-live verification tier (exact decision parity on FakeClock,
  tolerance-band smoke validation over real sockets).

Layering (enforced by ``tests/test_source_rules.py``): ``runtime`` may use the kernel,
models, observability, and the ``sim`` workload/metrics/server-model
modules it rehosts, but neither ``sim`` nor the kernel ever imports
``runtime`` — kernel code only sees
:class:`repro.core.clock.ClockProtocol`.
"""

from repro.runtime.clock import FakeClock
from repro.runtime.node import QueryOutcome, ServingConfig, ServingNode

__all__ = [
    "FakeClock",
    "QueryOutcome",
    "ServingConfig",
    "ServingNode",
]
