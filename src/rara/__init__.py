"""Relay-aided random access: analysis, simulation, and multipacket reception."""

from .analytic import (
    ChainSolution,
    PerformanceMetrics,
    SessionKind,
    StationaryDistribution,
    SystemParams,
    asymptotic_throughput,
    gaussian_approx,
    outage_approx,
    outage_exact,
    solve_chain,
    stationary_closed_form,
    stationary_power_iteration,
    throughput_approx,
    throughput_exact,
    transition_matrix,
)
from .sim import FinitePopulation, PoissonProcess, SimConfig, SimReport, run

__all__ = [
    "ChainSolution",
    "PerformanceMetrics",
    "SessionKind",
    "StationaryDistribution",
    "SystemParams",
    "asymptotic_throughput",
    "gaussian_approx",
    "outage_approx",
    "outage_exact",
    "solve_chain",
    "stationary_closed_form",
    "stationary_power_iteration",
    "throughput_approx",
    "throughput_exact",
    "transition_matrix",
    "FinitePopulation",
    "PoissonProcess",
    "SimConfig",
    "SimReport",
    "run",
]

__version__ = "0.1.0"
