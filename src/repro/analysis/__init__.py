"""Statistical analysis: policy comparison and queueing theory."""

from repro.analysis.compare import PolicyComparison, find_crossover
from repro.analysis.queueing_theory import (
    erlang_c,
    mg1_mean_wait,
    mmc_mean_queue_delay,
    mmc_mean_response,
)

__all__ = [
    "PolicyComparison",
    "find_crossover",
    "erlang_c",
    "mg1_mean_wait",
    "mmc_mean_queue_delay",
    "mmc_mean_response",
]
