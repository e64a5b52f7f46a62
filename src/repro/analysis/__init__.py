"""Statistical analysis: policy comparison and queueing theory."""

from repro.analysis.compare import PolicyComparison, find_crossover
from repro.analysis.queueing_theory import (
    erlang_c,
    mmc_mean_queue_delay,
)

__all__ = [
    "PolicyComparison",
    "find_crossover",
    "erlang_c",
    "mmc_mean_queue_delay",
]
