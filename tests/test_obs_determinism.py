"""Determinism regression: tracing must never change results.

The observability layer is read-only by design — span recording draws
no randomness and schedules no events, and the timeline sampler only
reads instruments. These tests pin that property end-to-end by running
the same workloads traced and untraced and asserting the *serialized*
results are identical, byte for byte (string comparison also sidesteps
``NaN != NaN``, which breaks naive dataclass equality for summaries
without a deadline).
"""

import pytest

from repro.harness.context import ExperimentContext, Scale, _ScaleParams
from repro.harness.registry import run_experiment
from repro.obs.registry import RunObserver
from repro.obs.spans import RecordingTracer
from repro.policies.fixed import FixedPolicy
from repro.sim.cluster import ClusterConfig, run_cluster_point
from repro.sim.experiment import LoadPointConfig, run_load_point
from repro.sim.faults import ClusterFaultPlan, FaultSchedule, FaultWindow
from repro.sim.oracle import ServiceOracle
from repro.util.serde import dumps

from conftest import constant_table

#: Shrunken scale for the experiment-level regression: same code paths
#: as the real small-scale runs, a fraction of the virtual time.
_TINY = _ScaleParams(
    n_profile_queries=300,
    sim_duration=1.2,
    sim_warmup=0.3,
    utilization_grid=(0.1, 0.3),
    capacity_duration=3.0,
)


def _tiny_context(tracer=None):
    ctx = ExperimentContext(scale=Scale.SMALL, tracer=tracer)
    ctx.params = _TINY
    return ctx


class TestTracedRunsAreBitIdentical:
    def test_load_point_summary(self):
        # No deadline: goodput/slo_attainment are NaN, the case where a
        # naive equality comparison would fail even for identical runs.
        oracle = ServiceOracle(constant_table())
        config = LoadPointConfig(rate=3.0, duration=6.0, warmup=1.0,
                                 n_cores=4, seed=17)
        untraced = run_load_point(oracle, FixedPolicy(2), config)
        traced = run_load_point(
            oracle, FixedPolicy(2), config,
            observer=RunObserver(tracer=RecordingTracer()),
        )
        assert dumps(untraced) == dumps(traced)

    def test_load_point_summary_with_shedding(self):
        oracle = ServiceOracle(constant_table(t1=0.3))
        config = LoadPointConfig(rate=20.0, duration=6.0, warmup=1.0,
                                 n_cores=2, seed=23, deadline=0.5,
                                 max_queue_length=6)
        untraced = run_load_point(oracle, FixedPolicy(1), config)
        traced = run_load_point(
            oracle, FixedPolicy(1), config,
            observer=RunObserver(tracer=RecordingTracer()),
        )
        assert dumps(untraced) == dumps(traced)

    def test_cluster_summary_with_hedging_quorum_and_faults(self):
        oracle = ServiceOracle(constant_table(t1=0.05))
        config = ClusterConfig(
            n_shards=3, n_cores_per_shard=2, rate=8.0, duration=6.0,
            warmup=1.0, seed=29, quorum=2, shard_timeout=0.8,
            hedge_delay=0.2, max_queue_length=16,
        )
        faults = ClusterFaultPlan({
            1: FaultSchedule([FaultWindow(2.0, 3.0, multiplier=4.0)]),
        })
        untraced = run_cluster_point(
            oracle, lambda: FixedPolicy(1), config, faults=faults
        )
        traced = run_cluster_point(
            oracle, lambda: FixedPolicy(1), config, faults=faults,
            tracer=RecordingTracer(),
        )
        assert dumps(untraced) == dumps(traced)

    @pytest.mark.parametrize("experiment_id", ["e05", "e09"])
    def test_experiment_result_json(self, experiment_id):
        """E5 (fixed-degree sweep) and E9 (bursty arrivals) produce the
        same result JSON with tracing on — the full harness path, at a
        shrunken scale."""
        untraced = run_experiment(experiment_id, _tiny_context())
        tracer = RecordingTracer()
        traced = run_experiment(experiment_id, _tiny_context(tracer=tracer))
        assert dumps(untraced.to_json()) == dumps(traced.to_json())
        # The traced run really did record: one trace per simulated
        # query, grouped into one bucket per load point.
        assert len(tracer.runs) > 1
        assert tracer.traces

