"""Table II: the worker-node catalog.

Not an experiment per se — the bench regenerates the catalog table and the
per-model profiling rows derived from it (the data every scheduler decision
consumes).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentReport
from repro.experiments.registry import register_experiment
from repro.hardware.catalog import default_catalog
from repro.hardware.profiles import ProfileService
from repro.workloads.models import get_model

__all__ = ["run"]


@register_experiment("table2", title="Hardware catalog and profiled rows")
def run(profile_model: str = "resnet50", slo_seconds: float = 0.200) -> ExperimentReport:
    """Render Table II plus the derived profile rows for one model."""
    catalog = default_catalog()
    profiles = ProfileService(catalog)
    model = get_model(profile_model)
    rows = []
    for hw in catalog.by_cost():
        row = profiles.profile_row(model, hw, slo_seconds)
        rows.append(
            [
                hw.name,
                hw.device,
                f"{hw.memory_gb:.0f} GB",
                f"${hw.price_per_hour}/h",
                row["best_batch"],
                round(row["solo_ms"], 1) if row["best_batch"] else "-",
                round(row["capacity_rps"], 1),
                round(row["sweet_spot_rps"], 1),
                round(row.get("fbr", float("nan")), 3) if hw.is_gpu else "-",
            ]
        )
    return ExperimentReport(
        experiment_id="table2",
        title=f"Table II worker nodes + profiled rows for {profile_model}",
        headers=[
            "name", "device", "memory", "cost", "best_batch",
            "solo_ms", "capacity_rps", "sweet_rps", "fbr",
        ],
        rows=rows,
    )
