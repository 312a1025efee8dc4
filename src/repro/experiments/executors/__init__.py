"""Pluggable, fault-tolerant execution backends for experiment matrices.

See :mod:`repro.experiments.executors.base` for the interface and
``docs/EXECUTION.md`` for the workflow (backends, fault policy, and
resuming an interrupted sweep from the result cache).
"""

from repro.experiments.executors.base import (
    EXECUTOR_METRICS,
    EXECUTOR_NAMES,
    CellExecutionError,
    CellFailure,
    CellFaultPolicy,
    CellOutcome,
    ExecutionSettings,
    Executor,
    InjectedFault,
    get_active_execution,
    make_executor,
    set_active_execution,
    worker_count,
)
from repro.experiments.executors.chaos import ChaosExecutor
from repro.experiments.executors.local_pool import LocalPoolExecutor
from repro.experiments.executors.serial import SerialExecutor

__all__ = [
    "EXECUTOR_METRICS",
    "EXECUTOR_NAMES",
    "CellExecutionError",
    "CellFailure",
    "CellFaultPolicy",
    "CellOutcome",
    "ChaosExecutor",
    "ExecutionSettings",
    "Executor",
    "InjectedFault",
    "LocalPoolExecutor",
    "SerialExecutor",
    "get_active_execution",
    "make_executor",
    "set_active_execution",
    "worker_count",
]
