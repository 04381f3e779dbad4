"""Simulation substrate: quantum-driven multiprocessor and event-driven
uniprocessor simulators, traces, metrics, and schedule validators."""

from ..core.metrics import DeadlineMiss, SimStats, TaskStats, job_response_times
from ..core.trace import Allocation, ScheduleTrace, render_schedule, render_windows
from .cache import CacheModel, ColdResumptions, count_cold_resumptions
from .export import result_to_dict, result_to_json, trace_to_csv, trace_to_rows
from .servers import TotalBandwidthServer
from .staggered import StaggeredResult, StaggeredSimulator, simulate_staggered
from .varquantum import (
    VariableQuantumResult,
    VariableQuantumSimulator,
    simulate_variable_quantum,
)
from .quantum import DeadlineMissError, QuantumSimulator, SimResult, simulate_pfair
from .vector import VectorPD2Simulator
from .validate import (
    ValidationError,
    check_erfair_lags,
    check_pfair_lags,
    check_sequential,
    check_structure,
    check_windows,
    lag_series,
    validate_schedule,
)

__all__ = [
    "CacheModel",
    "ColdResumptions",
    "count_cold_resumptions",
    "DeadlineMiss",
    "SimStats",
    "TaskStats",
    "job_response_times",
    "result_to_dict",
    "result_to_json",
    "trace_to_csv",
    "trace_to_rows",
    "TotalBandwidthServer",
    "StaggeredResult",
    "StaggeredSimulator",
    "simulate_staggered",
    "VariableQuantumResult",
    "VariableQuantumSimulator",
    "simulate_variable_quantum",
    "DeadlineMissError",
    "QuantumSimulator",
    "SimResult",
    "VectorPD2Simulator",
    "simulate_pfair",
    "Allocation",
    "ScheduleTrace",
    "render_schedule",
    "render_windows",
    "ValidationError",
    "check_structure",
    "check_sequential",
    "check_windows",
    "check_pfair_lags",
    "check_erfair_lags",
    "lag_series",
    "validate_schedule",
]
