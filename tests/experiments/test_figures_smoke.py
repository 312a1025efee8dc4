"""Smoke tests: every figure module runs at tiny scale and produces the
expected row structure.  (The benches assert the shapes at real scale.)"""

import pytest

from repro.experiments import (
    fig03, fig04, fig05, fig06, fig07, fig08, fig09_10, fig11, fig12,
    fig13, table2, table3,
)
from repro.experiments.executors import (
    ExecutionSettings,
    set_active_execution,
)
from repro.experiments.schemes import SCHEMES

TINY = dict(duration=60.0, repetitions=1)


@pytest.fixture(autouse=True)
def serial_execution():
    """Run every figure's cells in-process, even on multi-core runners."""
    previous = set_active_execution(ExecutionSettings(executor="serial"))
    yield
    set_active_execution(previous)


class TestFigureModules:
    def test_fig03_subset(self):
        r = fig03.run(models=["resnet50"], **TINY)
        assert len(r.rows) == 1
        assert len(r.rows[0]) == 1 + len(SCHEMES)

    def test_fig04(self):
        r = fig04.run(**TINY)
        assert len(r.rows) == len(SCHEMES) * 2

    def test_fig05(self):
        r = fig05.run(**TINY)
        assert {row[1] for row in r.rows} == {"dpn92", "efficientnet_b0"}

    def test_fig06(self):
        r = fig06.run(**TINY)
        assert len(r.rows) == len(SCHEMES)
        # percentile columns are monotone per scheme
        for row in r.rows:
            vals = row[1:6]
            assert vals == sorted(vals)

    def test_fig07(self):
        r = fig07.run(**TINY)
        metrics = {row[0] for row in r.rows}
        assert metrics == {"goodput", "power"}

    def test_fig08(self):
        r = fig08.run(**TINY)
        assert len(r.rows) == len(SCHEMES)

    def test_fig09_10(self):
        r = fig09_10.run(**TINY)
        assert len(r.rows) == len(SCHEMES) * 4

    def test_fig11(self):
        r = fig11.run(models=["resnet50"], **TINY)
        assert len(r.rows) == 1
        assert r.rows[0][0] == "resnet50"

    def test_fig12(self):
        r = fig12.run(**TINY)
        assert {row[0] for row in r.rows} == {"wiki", "twitter"}

    def test_fig13(self):
        r = fig13.run(duration=120.0, repetitions=1, exhaustion_rate=800.0)
        assert {row[0] for row in r.rows} == {"exhaustion", "node_failures"}
        # Exhaustion is V100-pinned: identical cost across schemes.
        costs = {row[4] for row in r.rows if row[0] == "exhaustion"}
        assert len(costs) == 1

    def test_table2(self):
        assert len(table2.run().rows) == 6

    def test_table3(self):
        r = table3.run(**TINY)
        assert len(r.rows) == len(SCHEMES)
        for row in r.rows:
            assert row[3] == pytest.approx(row[2] - row[1], abs=0.02)
