"""Experiments: one module per paper figure/table, plus ablations.

Every module exposes ``run(...) -> ExperimentReport`` (Fig 1's and the
ablations' signatures differ slightly); the benchmark harness under
``benchmarks/`` invokes these and prints the regenerated rows next to the
paper's published values.
"""

from repro.experiments import (
    ablations,
    sweeps,
    fig01,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09_10,
    fig11,
    fig12,
    fig13,
    resilience,
    table2,
    table3,
)
from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.cache import ResultCache, get_active_cache, set_active_cache
from repro.experiments.executors import (
    CellExecutionError,
    CellFaultPolicy,
    ChaosExecutor,
    ExecutionSettings,
    LocalPoolExecutor,
    SerialExecutor,
    get_active_execution,
    make_executor,
    set_active_execution,
)
from repro.experiments.registry import (
    ExperimentEntry,
    all_experiments,
    experiment_ids,
    get_experiment,
    register_experiment,
)
from repro.experiments.runner import CellSpec, MatrixResult, run_cell, run_matrix
from repro.experiments.schemes import SCHEMES, make_policy

__all__ = [
    "CellExecutionError", "CellFaultPolicy", "CellSpec", "ChaosExecutor",
    "ExecutionSettings", "ExperimentEntry", "ExperimentReport",
    "LocalPoolExecutor", "MatrixResult", "PAPER_CLAIMS", "ResultCache",
    "SCHEMES", "SerialExecutor", "ablations", "all_experiments",
    "experiment_ids", "fig01", "fig03", "fig04", "fig05", "fig06",
    "fig07", "fig08", "fig09_10", "fig11", "fig12", "fig13",
    "get_active_cache", "get_active_execution", "get_experiment",
    "make_executor", "make_policy", "register_experiment", "resilience",
    "run_cell", "run_matrix", "set_active_cache", "set_active_execution",
    "sweeps", "table2", "table3",
]
