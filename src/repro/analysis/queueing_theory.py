"""Classic queueing formulas used to validate the simulator.

Experiment E11 runs the discrete-event ISN model with exponential
service times at degree 1 — which makes it an M/M/c queue — and checks
the measured mean queueing delay against Erlang-C; a Little's-law gap
checks the simulator's bookkeeping.
"""

from __future__ import annotations

from repro.errors import AnalysisError


def _validate_mmc(arrival_rate: float, service_rate: float, servers: int) -> float:
    if arrival_rate <= 0 or service_rate <= 0:
        raise AnalysisError("rates must be positive")
    if servers < 1:
        raise AnalysisError("servers must be >= 1")
    rho = arrival_rate / (servers * service_rate)
    if rho >= 1.0:
        raise AnalysisError(f"unstable queue: utilization {rho:.3f} >= 1")
    return rho


def erlang_c(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Probability an arriving query must wait (M/M/c).

    Computed with the numerically stable iterative Erlang-B recursion,
    then converted to Erlang-C.
    """
    _validate_mmc(arrival_rate, service_rate, servers)
    offered = arrival_rate / service_rate  # in Erlangs
    # Erlang-B via recursion: B(0) = 1; B(k) = a*B(k-1) / (k + a*B(k-1)).
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered * blocking / (k + offered * blocking)
    rho = offered / servers
    return blocking / (1.0 - rho + rho * blocking)


def mmc_mean_queue_delay(
    arrival_rate: float, service_rate: float, servers: int
) -> float:
    """Mean waiting time in queue for M/M/c (seconds)."""
    rho = _validate_mmc(arrival_rate, service_rate, servers)
    wait_probability = erlang_c(arrival_rate, service_rate, servers)
    return wait_probability / (servers * service_rate * (1.0 - rho))


def littles_law_gap(
    n_observed: int,
    window: float,
    mean_latency: float,
    mean_in_system: float,
) -> float:
    """Relative gap between L and λ·W (Little's law).

    For any stable queueing system, time-average population L equals
    throughput λ times mean sojourn W. Given a measurement window's
    completion count, mean latency, and independently measured mean
    population, returns ``|L − λW| / max(L, λW)`` — a consistency check
    on a simulation's bookkeeping (0 for a perfect, stationary window).
    """
    if window <= 0 or n_observed < 0 or mean_latency < 0 or mean_in_system < 0:
        raise AnalysisError("invalid Little's-law inputs")
    lam_w = (n_observed / window) * mean_latency
    denominator = max(mean_in_system, lam_w)
    if denominator == 0:
        return 0.0
    return abs(mean_in_system - lam_w) / denominator
