"""Tests for the power model and the run's bill."""

import pytest

from repro.simulator.cluster import Cluster
from repro.simulator.power import bill, node_energy_joules


def bill_of(cluster):
    """The whole cluster's bill up to now."""
    return bill(zip(cluster.nodes, cluster.leases), cluster.sim.now)


class TestNodeEnergy:
    def test_idle_node_draws_idle_power(self, sim, catalog, m60):
        cluster = Cluster(sim, catalog)
        node = cluster.acquire(m60, lambda n: None, instant=True)
        assert node_energy_joules(node, 100.0) == pytest.approx(
            m60.idle_watts * 100.0
        )

    def test_busy_time_adds_active_power(self, sim, catalog, m60):
        cluster = Cluster(sim, catalog)
        node = cluster.acquire(m60, lambda n: None, instant=True)
        node.device.busy_seconds = 40.0
        expected = m60.idle_watts * 100.0 + (m60.peak_watts - m60.idle_watts) * 40.0
        assert node_energy_joules(node, 100.0) == pytest.approx(expected)

    def test_busy_clamped_to_lease(self, sim, catalog, m60):
        cluster = Cluster(sim, catalog)
        node = cluster.acquire(m60, lambda n: None, instant=True)
        node.device.busy_seconds = 500.0
        assert node_energy_joules(node, 100.0) == pytest.approx(
            m60.peak_watts * 100.0
        )


class TestClusterEnergy:
    def test_sums_over_leases(self, sim, catalog, m60, v100):
        cluster = Cluster(sim, catalog)
        cluster.acquire(m60, lambda n: None, instant=True)
        cluster.acquire(v100, lambda n: None, instant=True)
        sim.schedule(10.0, lambda: None)
        sim.run()
        expected = (m60.idle_watts + v100.idle_watts) * 10.0
        assert bill_of(cluster).energy_joules == pytest.approx(expected)

    def test_power_report_average(self, sim, catalog, m60):
        cluster = Cluster(sim, catalog)
        cluster.acquire(m60, lambda n: None, instant=True)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert bill_of(cluster).energy_joules / 10.0 == pytest.approx(
            m60.idle_watts
        )

    def test_zero_horizon_report(self, sim, catalog, m60):
        cluster = Cluster(sim, catalog)
        cluster.acquire(m60, lambda n: None, instant=True)
        billed = bill_of(cluster)
        assert billed.total_cost == 0.0
        assert billed.energy_joules == 0.0
        assert billed.time_by_spec == {m60.name: 0.0}
        # A lease of zero length has no busy fraction.
        assert billed.utilization_by_spec == {}


class TestBill:
    def test_utilization_is_busy_fraction_of_each_lease(
        self, sim, catalog, m60, v100
    ):
        cluster = Cluster(sim, catalog)
        first = cluster.acquire(m60, lambda n: None, instant=True)
        sim.schedule(20.0, lambda: cluster.release(first))
        sim.schedule(
            20.0, lambda: cluster.acquire(m60, lambda n: None, instant=True)
        )
        cluster.acquire(v100, lambda n: None, instant=True)
        sim.schedule(40.0, lambda: None)
        sim.run()
        first.device.busy_seconds = 5.0  # 5 of its 20 lease-seconds
        second = cluster.nodes[2]
        second.device._busy_since = 30.0  # busy for the last 10 of 20
        billed = bill_of(cluster)
        assert billed.utilization_by_spec[m60.name] == pytest.approx(
            (5.0 / 20.0 + 10.0 / 20.0) / 2
        )
        assert billed.utilization_by_spec[v100.name] == 0.0
        assert billed.time_by_spec == {
            m60.name: pytest.approx(40.0), v100.name: pytest.approx(40.0),
        }
        # The open busy interval counts for utilization, not for energy.
        assert billed.energy_joules == pytest.approx(
            m60.idle_watts * 40.0 + v100.idle_watts * 40.0
            + (m60.peak_watts - m60.idle_watts) * 5.0
        )

    def test_spec_costs_sum_to_total_in_lease_order(
        self, sim, catalog, m60, v100
    ):
        cluster = Cluster(sim, catalog)
        cluster.acquire(v100, lambda n: None, instant=True)
        cluster.acquire(m60, lambda n: None, instant=True)
        sim.schedule(3600.0, lambda: None)
        sim.run()
        billed = bill_of(cluster)
        assert list(billed.cost_by_spec) == [v100.name, m60.name]
        assert billed.total_cost == sum(billed.cost_by_spec.values())
        assert billed.total_cost == pytest.approx(
            m60.price_per_hour + v100.price_per_hour
        )
