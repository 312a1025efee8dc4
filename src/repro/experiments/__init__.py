"""Experiments: one module per paper figure/table, plus ablations.

Every module exposes ``run(...) -> ExperimentReport`` (Fig 1's and the
ablations' signatures differ slightly); the benchmark harness under
``benchmarks/`` invokes these and prints the regenerated rows next to the
paper's published values.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": ("ExperimentReport", "PAPER_CLAIMS"),
        "cache": ("ResultCache", "get_active_cache", "set_active_cache"),
        "executors": (
            "CellExecutionError", "CellFaultPolicy", "ChaosExecutor",
            "ExecutionSettings", "LocalPoolExecutor", "SerialExecutor",
            "get_active_execution", "make_executor", "set_active_execution",
        ),
        "registry": (
            "ExperimentEntry", "all_experiments", "experiment_ids",
            "get_experiment", "register_experiment",
        ),
        "runner": ("CellSpec", "MatrixResult", "run_cell", "run_matrix"),
        "schemes": ("SCHEMES", "make_policy"),
    },
    submodules=(
        "ablations", "sweeps", "fig01", "fig03", "fig04", "fig05", "fig06",
        "fig07", "fig08", "fig09_10", "fig11", "fig12", "fig13",
        "resilience", "table2", "table3",
    ),
)
