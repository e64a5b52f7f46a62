"""Query workload generation and load specification."""

from repro.workloads.mixes import MIXES, get_mix
from repro.workloads.queries import QueryWorkloadConfig, QueryGenerator
from repro.workloads.workbench import Workbench, WorkbenchConfig, build_workbench

__all__ = [
    "MIXES",
    "get_mix",
    "QueryWorkloadConfig",
    "QueryGenerator",
    "Workbench",
    "WorkbenchConfig",
    "build_workbench",
]
