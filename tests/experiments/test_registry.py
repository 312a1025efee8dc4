"""Tests for the declarative experiment registry."""

import pytest

from repro.experiments import registry
from repro.experiments.registry import (
    ExperimentEntry,
    all_experiments,
    experiment_ids,
    get_experiment,
    register_experiment,
)

EXPECTED_IDS = [
    "ablations", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9_10", "fig11", "fig12", "fig13", "table2", "table3",
]


class TestRegistryContents:
    def test_every_figure_registered(self):
        assert set(EXPECTED_IDS) <= set(experiment_ids())

    def test_ids_sorted_and_unique(self):
        ids = experiment_ids()
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_entries_have_titles_and_runners(self):
        for entry in all_experiments():
            assert isinstance(entry, ExperimentEntry)
            assert entry.title
            assert callable(entry.runner)

    def test_unknown_id_raises_with_candidates(self):
        with pytest.raises(KeyError, match="fig7"):
            get_experiment("fig99")

    def test_decorator_returns_function_unchanged(self):
        from repro.experiments import fig07

        assert get_experiment("fig7").runner is fig07.run


class TestCliKwargsMapping:
    """Each CLI flag given reaches the runner's parameter of that name
    (``--seed`` as ``seed`` or ``seed0``); Figs 4 and 6 pin
    ``repetitions=1``."""

    def test_default_experiment_forwards_all(self):
        kw = get_experiment("fig7").cli_kwargs(
            duration=600.0, repetitions=2, seed=5
        )
        assert kw == {"duration": 600.0, "repetitions": 2, "seed0": 5}

    def test_fig1_takes_seed_not_repetitions(self):
        kw = get_experiment("fig1").cli_kwargs(
            duration=300.0, repetitions=4, seed=2
        )
        assert kw == {"duration": 300.0, "seed": 2}

    def test_fig4_pins_single_repetition(self):
        kw = get_experiment("fig4").cli_kwargs(duration=300.0, repetitions=9)
        assert kw == {"duration": 300.0, "repetitions": 1}

    def test_table2_takes_nothing(self):
        assert get_experiment("table2").cli_kwargs(
            duration=300.0, repetitions=3, seed=1
        ) == {}

    def test_ablations_is_multi_report(self):
        entry = get_experiment("ablations")
        assert entry.cli_kwargs(duration=120.0, repetitions=5) == {
            "duration": 120.0
        }
        reports = entry.reports(duration=20.0, repetitions=5, seed=2)
        assert [r.experiment_id for r in reports] == [
            "ablation_hysteresis", "ablation_perf_slack",
            "ablation_keep_alive", "ablation_contention_awareness",
        ]

    def test_seed_reaches_seed_or_seed0(self):
        assert get_experiment("fig3").cli_kwargs(seed=5) == {"seed0": 5}
        assert get_experiment("ablations").cli_kwargs(seed=5) == {"seed": 5}
        assert get_experiment("table2").cli_kwargs(seed=5) == {}

    def test_every_runner_with_a_seed_receives_it(self):
        seeded = {
            entry.id for entry in all_experiments()
            if entry.cli_kwargs(seed=5).keys() & {"seed", "seed0"}
        }
        assert seeded == set(experiment_ids()) - {"table2"}
        assert len(seeded) == 14

    def test_no_seed_given_no_seed_passed(self):
        for entry in all_experiments():
            kw = entry.cli_kwargs(duration=300.0, repetitions=2)
            assert not kw.keys() & {"seed", "seed0"}, entry.id


class TestRegistration:
    def test_duplicate_id_with_different_fn_rejected(self):
        @register_experiment("_test_dup", title="first")
        def first():
            pass

        try:
            with pytest.raises(ValueError, match="_test_dup"):
                @register_experiment("_test_dup", title="second")
                def second():
                    pass
        finally:
            registry._REGISTRY.pop("_test_dup", None)

    def test_reregistering_same_fn_is_idempotent(self):
        def runner():
            pass

        try:
            register_experiment("_test_same", title="x")(runner)
            register_experiment("_test_same", title="x")(runner)
            assert get_experiment("_test_same").runner is runner
        finally:
            registry._REGISTRY.pop("_test_same", None)

    def test_reports_always_a_list(self):
        def runner():
            return "single"

        try:
            register_experiment("_test_single", title="x")(runner)
            assert get_experiment("_test_single").reports() == ["single"]
        finally:
            registry._REGISTRY.pop("_test_single", None)
