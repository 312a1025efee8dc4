"""Pluggable, fault-tolerant execution backends for experiment matrices.

See :mod:`repro.experiments.executors.base` for the interface and
``docs/EXECUTION.md`` for the workflow (backends, fault policy, and
resuming an interrupted sweep from the result cache).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": (
        "EXECUTOR_METRICS", "EXECUTOR_NAMES", "CellExecutionError",
        "CellFailure", "CellFaultPolicy", "CellOutcome", "ExecutionSettings",
        "Executor", "InjectedFault", "get_active_execution", "make_executor",
        "set_active_execution", "worker_count",
    ),
    "chaos": ("ChaosExecutor",),
    "local_pool": ("LocalPoolExecutor",),
    "serial": ("SerialExecutor",),
})
