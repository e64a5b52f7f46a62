"""Discrete-event simulation of a multicore index-serving node."""

from repro.sim.arrivals import (
    ArrivalProcess,
    MMPP2Arrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.sim.engine import Simulator
from repro.sim.experiment import LoadPointConfig, LoadPointSummary, run_load_point
from repro.sim.faults import CRASH, ClusterFaultPlan, FaultSchedule, FaultWindow
from repro.sim.metrics import MetricsCollector
from repro.sim.oracle import ServiceOracle
from repro.sim.server import IndexServerModel

__all__ = [
    "ArrivalProcess",
    "MMPP2Arrivals",
    "PoissonArrivals",
    "TraceArrivals",
    "Simulator",
    "LoadPointConfig",
    "LoadPointSummary",
    "run_load_point",
    "CRASH",
    "ClusterFaultPlan",
    "FaultSchedule",
    "FaultWindow",
    "MetricsCollector",
    "ServiceOracle",
    "IndexServerModel",
]
