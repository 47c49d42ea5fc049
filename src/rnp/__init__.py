"""Planner for robust entanglement generation between few-qubit registers.

Models majority-vote readout, two-level entanglement pumping, and the
absorbing-chain resource analysis of an optically linked register pair,
with an independent density-matrix / Monte-Carlo verification layer.
"""

from .model import (
    BellDiagonalState,
    BudgetCapError,
    ErrorParams,
    MeasurementPlan,
    NoiseKind,
    PlanResult,
    PumpSchedule,
    RestartMode,
    StepKind,
    UnpurifiableError,
    UselessLinkError,
    ValidationError,
)
from .measurement import exact_vote_error, measurement_error, measurement_time, optimal_m
from .timing import PhysicalTimings, memory_check
from .pumping import (
    PumpTrace,
    StepRecord,
    closed_form_infidelity,
    pump_step,
    raw_pair,
    run_standard,
    run_two_level,
    search_schedule,
)
from .markov import (
    MarkovChain,
    build_chain,
    compose_plan,
    expected_pairs,
    failure_probability,
    plan,
    solve_budget,
)
from .oracle import DensityMatrix, MonteCarloResult, monte_carlo_pumping, simulate_pump_step

__version__ = "0.1.0"

__all__ = [
    "BellDiagonalState",
    "BudgetCapError",
    "DensityMatrix",
    "ErrorParams",
    "MarkovChain",
    "MeasurementPlan",
    "MonteCarloResult",
    "NoiseKind",
    "PhysicalTimings",
    "PlanResult",
    "PumpSchedule",
    "PumpTrace",
    "RestartMode",
    "StepKind",
    "StepRecord",
    "UnpurifiableError",
    "UselessLinkError",
    "ValidationError",
    "build_chain",
    "closed_form_infidelity",
    "compose_plan",
    "expected_pairs",
    "failure_probability",
    "exact_vote_error",
    "measurement_error",
    "measurement_time",
    "memory_check",
    "monte_carlo_pumping",
    "optimal_m",
    "plan",
    "pump_step",
    "raw_pair",
    "run_standard",
    "run_two_level",
    "search_schedule",
    "simulate_pump_step",
    "solve_budget",
    "__version__",
]
