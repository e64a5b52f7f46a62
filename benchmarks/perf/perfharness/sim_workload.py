"""sim-sweep: what a researcher waits for — seven simulated load points
per round on the small-scale profiled system. An operation is one
simulated query; a latency sample is one load point's host time per
simulated query (so p50/p99 are over the seven kinds of point)."""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, List, Optional

from perfharness.inputs import SYSTEM_SEED, sim_points
from perfharness.spans import SpanRecorder
from perfharness.stats import Prober, RoundSample
from perfharness.workload import Workload

from repro.core.controller import AdaptiveSearchSystem, SystemConfig
from repro.sim.experiment import run_load_point
from repro.sim.script import build_arrival_script, run_scripted_point
from repro.util.serde import to_jsonable
from repro.workloads.workbench import WorkbenchConfig, build_workbench

#: Profiled pool size of the experiment harness's small scale.
SMALL_PROFILE_QUERIES = 300


def build_small_system() -> AdaptiveSearchSystem:
    """The small-scale system ``ExperimentContext`` builds (it is what
    ``serve --scale small`` hosts), without its process-level caches:
    set-up is timed more than once per run."""
    workbench = build_workbench(WorkbenchConfig.small(SYSTEM_SEED))
    return AdaptiveSearchSystem.from_workbench(
        workbench, SystemConfig(n_queries=SMALL_PROFILE_QUERIES, seed=SYSTEM_SEED)
    )


def summary_digest(summary: Any) -> str:
    return hashlib.sha256(
        json.dumps(to_jsonable(summary), sort_keys=True).encode()
    ).hexdigest()


class SimSweep(Workload):
    name = "sim-sweep"
    operation = "simulated query"

    def setup(self) -> None:
        self.system = build_small_system()
        self.points = sim_points(self.system, self.seed)
        policy, config = self.points[0]
        run_load_point(self.system.oracle, self.system.policy(policy), config)

    def run_round(
        self, prober: Prober, recorder: Optional[SpanRecorder] = None
    ) -> RoundSample:
        system = self.system
        clock = time.perf_counter
        latencies: List[float] = []
        digests: List[str] = []
        ops = 0
        wall = cpu = 0.0
        prober.sample()
        for k, (policy_name, config) in enumerate(self.points):
            policy = system.policy(policy_name)
            cpu_0 = time.process_time()
            began = clock()
            if recorder is None:
                summary = run_load_point(system.oracle, policy, config)
                ended = clock()
            else:
                # Same workload, drawn up front then replayed: the two
                # halves run_load_point interleaves (summaries are
                # identical; the round digest checks it).
                script = build_arrival_script(system.oracle.n_queries, config)
                scripted = clock()
                summary, _ = run_scripted_point(system.oracle, policy, config, script)
                ended = clock()
                op = recorder.add("load_point", began, ended, None, k)
                recorder.add("sim.script", began, scripted, op, k)
                recorder.add("sim.run", scripted, ended, op, k)
            wall += ended - began
            cpu += time.process_time() - cpu_0
            resolved = summary.observed + summary.n_shed
            latencies.append((ended - began) * 1e3 / resolved)
            ops += resolved
            digests.append(summary_digest(summary))
            rate_share = config.rate / system.saturation_rate
            self.digests.setdefault(
                f"point{k}:{policy_name}@{rate_share:.1f}", digests[-1]
            )
            prober.sample()
        return self._check_digest(RoundSample(
            ops=ops, failed=0, wall_s=wall, cpu_s=cpu,
            latencies_ms=latencies, probe_s=prober.take(),
            digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
        ))

    def teardown(self) -> None:
        del self.system, self.points
