"""Tests for the experiment report type."""

from repro.experiments.base import PAPER_CLAIMS, ExperimentReport


def make_report():
    return ExperimentReport(
        experiment_id="figX",
        title="demo",
        headers=["scheme", "value"],
        rows=[["paldia", 99.5], ["molecule_$", 95.1]],
        paper_reference={"paldia": 99.55},
        notes="demo note",
    )


class TestReport:
    def test_rendered_contains_rows_reference_and_notes(self):
        out = make_report().rendered()
        assert "paldia" in out
        assert "paper reference" in out
        assert "demo note" in out

    def test_row_map(self):
        assert make_report().row_map()[("paldia",)][1] == 99.5

    def test_paper_claims_cover_all_artifacts(self):
        for key in ["fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "fig11", "fig12a", "fig12b", "fig13a",
                    "fig13b", "table3"]:
            assert key in PAPER_CLAIMS
