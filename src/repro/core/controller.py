"""The assembled adaptive-parallelism search system.

:class:`AdaptiveSearchSystem` performs the paper's full offline pipeline
once — sample a query workload, measure per-degree execution costs on
the engine, summarize speedup/service-time profiles, derive the adaptive
threshold table — and then serves as a factory for policies and
simulated load sweeps. Everything the experiment harness and the
examples do goes through this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.compare import PolicyComparison
from repro.errors import ConfigurationError
from repro.obs.registry import RunObserver
from repro.obs.spans import Tracer
from repro.policies.adaptive import AdaptivePolicy, ThresholdTable
from repro.policies.base import ParallelismPolicy
from repro.policies.derivation import derive_threshold_table, scale_table
from repro.policies.fixed import FixedPolicy, SequentialPolicy
from repro.policies.incremental import IncrementalPolicy
from repro.policies.online import OnlineAdaptivePolicy
from repro.policies.oracle import OraclePolicy
from repro.policies.predictive import PredictivePolicy
from repro.policies.predictor import QueryLatencyPredictor
from repro.profiles.measurement import (
    MeasurementConfig,
    QueryCostTable,
    measure_cost_table,
)
from repro.profiles.servicetime import ServiceTimeDistribution
from repro.profiles.speedup import SpeedupProfile
from repro.sim.arrivals import ArrivalProcess
from repro.sim.experiment import LoadPointConfig, LoadPointSummary, run_load_point
from repro.sim.oracle import ServiceOracle
from repro.util.validation import require, require_in_range, require_int_in_range
from repro.workloads.workbench import Workbench

#: Stretch applied to the analytically derived threshold limits. The
#: fair-share derivation is conservative under stochastic load (see
#: repro.policies.derivation.scale_table); 2.0 reproduces the
#: empirically tuned operating point (E17 sweeps the factor).
THRESHOLD_SCALE = 2.0
#: Sequential-latency percentile above which a query counts as "long".
LONG_QUERY_CUTOFF_PERCENTILE = 66.7
#: Leading share of the profiling sample the latency predictor is fit on.
PREDICTOR_TRAIN_FRACTION = 0.5
#: Sequential-latency percentile the incremental policy probes for.
INCREMENTAL_PROBE_PERCENTILE = 50.0
#: Seed of a sweep's first load point.
SWEEP_SEED = 42


@dataclass(frozen=True)
class SystemConfig:
    """Offline-profiling and policy-derivation parameters."""

    n_queries: int = 1_000
    degrees: Tuple[int, ...] = (1, 2, 3, 4, 6, 8, 12)
    n_cores: int = 12
    min_gain: float = 1.05
    seed: int = 0

    def __post_init__(self) -> None:
        require_int_in_range(self.n_queries, "n_queries", low=10)
        require_int_in_range(self.n_cores, "n_cores", low=1)
        require(1 in self.degrees, "degrees must include 1")


class AdaptiveSearchSystem:
    """Profiled ISN + derived policies + simulated load sweeps."""

    def __init__(
        self,
        workbench: Workbench,
        cost_table: QueryCostTable,
        config: SystemConfig,
    ) -> None:
        self.workbench = workbench
        self.cost_table = cost_table
        self.config = config
        #: Opt-in observability sink. When set, every load point run
        #: through :meth:`run_point` / :meth:`sweep` reports spans and
        #: metric timelines to it (results are unchanged — see
        #: repro.obs). None keeps the zero-overhead untraced path.
        self.tracer: Optional[Tracer] = None

        self.profile = SpeedupProfile(cost_table)
        self.service_distribution = ServiceTimeDistribution(
            cost_table.sequential_latencies()
        )
        self.threshold_table: ThresholdTable = scale_table(
            derive_threshold_table(
                self.profile,
                n_cores=config.n_cores,
                degrees=config.degrees,
                min_gain=config.min_gain,
            ),
            THRESHOLD_SCALE,
        )
        self.long_query_cutoff = self.service_distribution.percentile(
            LONG_QUERY_CUTOFF_PERCENTILE
        )
        self.incremental_probe = self.service_distribution.percentile(
            INCREMENTAL_PROBE_PERCENTILE
        )

        # Train the latency predictor on the first half of the sample and
        # annotate the whole table with its predictions.
        t1 = cost_table.sequential_latencies()
        n_train = max(2, int(cost_table.n_queries * PREDICTOR_TRAIN_FRACTION))
        self.predictor = QueryLatencyPredictor().fit(
            workbench.engine, cost_table.queries[:n_train], t1[:n_train]
        )
        predictions = self.predictor.predict_many(
            workbench.engine, cost_table.queries
        )
        self.oracle = ServiceOracle(cost_table, predicted_latencies=predictions)

    # ----------------------------------------------------------------
    # Construction
    # ----------------------------------------------------------------

    @classmethod
    def from_workbench(
        cls,
        workbench: Workbench,
        config: Optional[SystemConfig] = None,
        queries: Optional[Sequence] = None,
    ) -> "AdaptiveSearchSystem":
        """Profile ``workbench`` and assemble the system."""
        config = config or SystemConfig()
        if queries is None:
            generator = workbench.query_generator("profile-queries")
            queries = generator.sample_many(config.n_queries)
        table = measure_cost_table(
            workbench.engine,
            queries,
            MeasurementConfig(degrees=config.degrees, n_queries=len(queries)),
        )
        return cls(workbench, table, config)

    # ----------------------------------------------------------------
    # Derived quantities
    # ----------------------------------------------------------------

    @property
    def n_cores(self) -> int:
        return self.config.n_cores

    @property
    def saturation_rate(self) -> float:
        """Arrival rate (QPS) at which sequential execution saturates the
        ISN: ``n_cores / E[t1]``."""
        return self.n_cores / self.oracle.mean_sequential_latency()

    def rate_for_utilization(self, utilization: float) -> float:
        """QPS corresponding to a sequential-work utilization level."""
        require_in_range(utilization, "utilization", low=0.0, high=2.0,
                         low_inclusive=False)
        return utilization * self.saturation_rate

    # ----------------------------------------------------------------
    # Policy factory
    # ----------------------------------------------------------------

    def policy(self, name: str) -> ParallelismPolicy:
        """Construct a policy by name.

        Supported: ``sequential``, ``fixed-<p>``, ``adaptive``,
        ``oracle``, ``predictive``, ``incremental``, ``online``.
        """
        if name == "sequential":
            return SequentialPolicy()
        if name.startswith("fixed-"):
            try:
                degree = int(name.split("-", 1)[1])
            except ValueError:
                raise ConfigurationError(f"bad fixed policy name {name!r}") from None
            return FixedPolicy(degree)
        if name == "adaptive":
            return AdaptivePolicy(self.threshold_table)
        if name == "oracle":
            return OraclePolicy(self.threshold_table, self.long_query_cutoff)
        if name == "predictive":
            return PredictivePolicy(self.threshold_table, self.long_query_cutoff)
        if name == "incremental":
            return IncrementalPolicy(self.threshold_table, self.incremental_probe)
        if name == "online":
            # Online variant of the adaptive table: same offline-derived
            # thresholds, runtime-adjustable calibration. Note a fresh
            # instance per call — controllers mutate their policy, so
            # callers must not share one across concurrent runs.
            return OnlineAdaptivePolicy(self.threshold_table)
        raise ConfigurationError(f"unknown policy {name!r}")

    # ----------------------------------------------------------------
    # Simulation
    # ----------------------------------------------------------------

    def run_point(
        self,
        policy_name: Union[str, ParallelismPolicy],
        rate: float,
        duration: float = 20.0,
        warmup: float = 4.0,
        seed: int = 42,
        arrivals: Optional[ArrivalProcess] = None,
        deadline: Optional[float] = None,
        max_queue_length: Optional[int] = None,
        slo: Optional[float] = None,
        observer: Optional[RunObserver] = None,
        controllers: Sequence[object] = (),
        query_sampler: Optional[object] = None,
    ) -> LoadPointSummary:
        """Simulate one load point for one policy.

        ``policy_name`` may be a factory name or an already-constructed
        policy instance (online controllers need a handle on the exact
        instance they steer). ``observer`` overrides the system-level
        :attr:`tracer`; with neither set the run is untraced.
        ``controllers`` / ``query_sampler`` pass through to
        :func:`~repro.sim.experiment.run_load_point`.
        """
        config = LoadPointConfig(
            rate=rate,
            duration=duration,
            warmup=warmup,
            n_cores=self.n_cores,
            seed=seed,
            deadline=deadline,
            max_queue_length=max_queue_length,
            slo=slo,
        )
        if observer is None and self.tracer is not None:
            observer = RunObserver(tracer=self.tracer)
        policy = (
            policy_name
            if isinstance(policy_name, ParallelismPolicy)
            else self.policy(policy_name)
        )
        return run_load_point(
            self.oracle, policy, config, arrivals,
            observer=observer, controllers=controllers,
            query_sampler=query_sampler,
        )

    def sweep(
        self,
        policy_names: Sequence[str],
        utilizations: Sequence[float],
        duration: float = 20.0,
        warmup: float = 4.0,
    ) -> PolicyComparison:
        """Load sweep: every policy at every utilization level.

        All policies see identically seeded arrival/workload streams at
        each load point (``SWEEP_SEED`` + its index), so comparisons are
        paired.
        """
        rates = [self.rate_for_utilization(u) for u in utilizations]
        summaries: Dict[str, List[LoadPointSummary]] = {}
        for name in policy_names:
            rows = []
            for i, rate in enumerate(rates):
                rows.append(
                    self.run_point(
                        name, rate, duration=duration, warmup=warmup,
                        seed=SWEEP_SEED + i,
                    )
                )
            summaries[self.policy(name).name] = rows
        return PolicyComparison(rates=list(rates), summaries=summaries)
