"""Fig 8: compute-node utilization (non-idle time) for VGG 19.

Cost-effective schemes keep CPU nodes ~72% utilized at low traffic; GPU
utilization ranks INFless($) ~99% > Paldia ~94% > Molecule($) ~90%, with
the (P) schemes' V100 far below (over-provisioned).
"""

from __future__ import annotations

from repro.analysis.stats import mean_without_outliers
from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.runner import run_matrix
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import azure_factory
from repro.hardware.catalog import default_catalog

__all__ = ["run", "MODEL"]

MODEL = "vgg19"


@register_experiment("fig8", title="Hardware utilization")
def run(
    duration: float = 600.0,
    repetitions: int = 2,
    seed0: int = 1,
) -> ExperimentReport:
    """Regenerate Fig 8 (mean utilization of used CPU/GPU node types)."""
    matrix = run_matrix(
        schemes=SCHEMES,
        model_names=[MODEL],
        trace_factory=azure_factory(duration),
        repetitions=repetitions,
        seed0=seed0,
    )
    catalog = default_catalog()
    rows = []
    for scheme in SCHEMES:
        runs = matrix.cell_runs(scheme, MODEL)
        cpu_utils, gpu_utils = [], []
        for r in runs:
            for name, util in r.utilization_by_spec.items():
                (gpu_utils if catalog.get(name).is_gpu else cpu_utils).append(util)
        rows.append(
            [
                scheme,
                round(mean_without_outliers(cpu_utils), 3) if cpu_utils else "-",
                round(mean_without_outliers(gpu_utils), 3) if gpu_utils else "-",
            ]
        )
    return ExperimentReport(
        experiment_id="fig8",
        title=f"Node utilization (non-idle fraction), {MODEL}",
        headers=["scheme", "cpu_util", "gpu_util"],
        rows=rows,
        paper_reference=PAPER_CLAIMS["fig8"],
    )
