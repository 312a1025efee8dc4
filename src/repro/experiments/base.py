"""Shared experiment scaffolding: reports and paper reference values.

Every experiment module produces an :class:`ExperimentReport` — the rows
the paper's figure/table reports, a rendered text table, and the paper's
published values for side-by-side comparison (EXPERIMENTS.md is generated
from these).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.analysis.report import render_table

__all__ = ["ExperimentReport", "PAPER_CLAIMS"]


@dataclass
class ExperimentReport:
    """The output of one figure/table reproduction.

    Attributes
    ----------
    experiment_id:
        ``fig3``, ``table3``, ...
    title:
        The paper artifact it reproduces.
    headers / rows:
        The regenerated series.
    paper_reference:
        The corresponding numbers the paper reports (for shape checks).
    notes:
        Deviations and caveats.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]]
    paper_reference: Mapping[str, Any] = field(default_factory=dict)
    notes: str = ""

    def rendered(self) -> str:
        out = [render_table(self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}")]
        if self.paper_reference:
            out.append("paper reference: " + ", ".join(
                f"{k}={v}" for k, v in self.paper_reference.items()
            ))
        if self.notes:
            out.append(f"notes: {self.notes}")
        return "\n".join(out)

    def row_map(self, key_cols: int = 1) -> dict[tuple, Sequence[Any]]:
        """Index rows by their first ``key_cols`` columns."""
        return {tuple(r[:key_cols]): r for r in self.rows}


#: The paper's published numbers, used by the benchmark harness to print
#: paper-vs-measured and by tests to check reproduction *shapes*.
PAPER_CLAIMS: dict[str, dict[str, Any]] = {
    "fig1": {
        "offline_hybrid_compliance": ">99%",
        "mps_only_$_gap": "up to 16% below hybrid",
        "time_shared_$_gap": "~11% below hybrid",
        "P_schemes_cost_factor": ">4x hybrid",
    },
    "fig3": {
        "paldia_resnet50": 99.55,
        "infless_llama_$_resnet50": 89.43,
        "paldia_gap_to_P": 0.38,
        "max_advantage_over_$": 13.3,
    },
    "fig4": {
        "infless_$_interference_share_resnet50": 0.76,
        "molecule_$_queueing_share_vgg19": 0.84,
        "molecule_$_vgg19_compliance": 95.11,
        "paldia_vgg19_compliance": 99.85,
    },
    "fig5": {
        "paldia_extra_cost_dpn92": 0.024,
        "paldia_extra_cost_efficientnet_b0": 0.003,
        "P_cost_factor": 6.9,
    },
    "fig6": {"paldia_within_slo_until": "P99", "$_schemes_exceed_at": "~P80"},
    "fig7": {
        "goodput_fraction_infless_$": 0.27,
        "goodput_fraction_molecule_$": 0.34,
        "goodput_fraction_paldia": 0.95,
        "paldia_power_saving_vs_P": 0.45,
        "paldia_power_extra_vs_$": 0.04,
    },
    "fig8": {
        "cpu_util_cost_effective": 0.72,
        "gpu_util_infless_$": 0.99,
        "gpu_util_molecule_$": 0.90,
        "gpu_util_paldia": 0.94,
        "P_gpu_util_gap": "up to 60% lower",
    },
    "fig9": {
        "paldia_language": 99.54,
        "$_schemes_language": 97.73,
        "paldia_gap_to_P": 0.45,
    },
    "fig10": {
        "language_cost_increase_vs_vision": 0.86,
        "savings_vs_P": 0.72,
        "paldia_cost_fraction_of_P": 0.29,
    },
    "fig11": {"paldia_gap_to_oracle": 0.8, "oracle_cost_gap": "<1%"},
    "fig12a": {
        "molecule_$": 84.39,
        "infless_llama_$": 79.93,
        "paldia": 99.25,
        "paldia_extra_cost": 0.04,
        "paldia_savings_vs_P": 0.72,
    },
    "fig12b": {
        "molecule_$": 71.86,
        "infless_llama_$": 70.28,
        "paldia": 98.48,
        "paldia_extra_cost": 0.07,
        "paldia_savings_vs_P": 0.69,
    },
    "fig13a": {
        "infless_llama": 33.0,
        "molecule": 62.0,
        "paldia": 97.55,
    },
    "fig13b": {"paldia": 99.82, "P_schemes_at_most": 97.55, "paldia_savings": 0.70},
    "table3": {
        "molecule_P": 99.99,
        "infless_llama_P": 99.99,
        "molecule_$": 76.44,
        "infless_llama_$": 75.83,
        "paldia": 94.78,
    },
}
