#!/usr/bin/env python3
"""Capacity planning: latency-vs-load envelopes and SLO capacity.

The operator's question this answers: *how should I configure intra-query
parallelism on my index-serving nodes, and how many QPS can each node
take while meeting the P99 SLO?*

The script profiles a workbench, derives the adaptive policy, sweeps
arrival rates for sequential / fixed / adaptive configurations, prints
the P99-vs-load table, and solves for each policy's SLO capacity.

Run:  python examples/capacity_planning.py [--reference]
(default is a small, fast configuration; --reference uses the full
experiment scale and takes a few minutes.)
"""

import argparse

from repro.core import AdaptiveSearchSystem, SystemConfig, capacity_at_slo
from repro.util.tables import Table
from repro.workloads import WorkbenchConfig, build_workbench

POLICIES = ("sequential", "fixed-2", "fixed-4", "fixed-8", "adaptive")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reference", action="store_true",
                        help="full experiment scale (slower)")
    args = parser.parse_args()

    config = (
        WorkbenchConfig.reference() if args.reference else WorkbenchConfig.small()
    )
    print("Building and profiling the workbench "
          f"({config.corpus.n_docs} docs)...")
    workbench = build_workbench(config)
    system = AdaptiveSearchSystem.from_workbench(
        workbench, SystemConfig(n_queries=600 if args.reference else 300)
    )

    print(f"\nderived threshold table: {system.threshold_table.describe()}")
    print(f"sequential saturation:   {system.saturation_rate:,.0f} QPS\n")

    utilizations = (0.05, 0.2, 0.4, 0.6, 0.8)
    duration = 12.0 if args.reference else 4.0
    comparison = system.sweep(POLICIES, utilizations, duration=duration,
                              warmup=duration / 4)

    table = Table(
        ["utilization"] + [system.policy(p).name for p in POLICIES],
        title="P99 latency (ms) vs load",
    )
    for i, u in enumerate(utilizations):
        table.add_row(
            [u]
            + [
                comparison.summaries[system.policy(p).name][i].p99_latency * 1e3
                for p in POLICIES
            ]
        )
    table.print()

    slo = 2.5 * system.service_distribution.percentile(99)
    print(f"SLO: P99 <= {slo * 1e3:.2f} ms (2.5 x idle sequential P99)\n")
    capacity_table = Table(["policy", "capacity_qps", "fraction_of_sequential"],
                           title="SLO capacity")
    sequential_capacity = None
    for policy in POLICIES:
        outcome = capacity_at_slo(system, policy, slo,
                                  duration=duration / 2, warmup=duration / 8)
        if policy == "sequential":
            sequential_capacity = outcome.capacity_qps
        fraction = (
            outcome.capacity_qps / sequential_capacity
            if sequential_capacity
            else float("nan")
        )
        capacity_table.add_row([policy, outcome.capacity_qps, fraction])
    capacity_table.print()

    print("Reading the tables: fixed parallelism buys low-load latency but")
    print("forfeits capacity; adaptive gets (nearly) both.")


if __name__ == "__main__":
    main()
