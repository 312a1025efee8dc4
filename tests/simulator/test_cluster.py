"""Tests for cluster leasing and cost accounting."""

import pytest

from repro.simulator.cluster import Cluster
from repro.simulator.power import bill


@pytest.fixture
def cluster(sim, catalog):
    return Cluster(sim, catalog, seed=1)


def bill_of(cluster):
    """The whole cluster's bill up to now."""
    return bill(zip(cluster.nodes, cluster.leases), cluster.sim.now)


class TestAcquisition:
    def test_instant_acquire_is_ready_now(self, cluster, m60):
        ready = []
        cluster.acquire(m60, lambda n: ready.append(cluster.sim.now), instant=True)
        assert ready == [0.0]

    def test_provisioning_delay(self, cluster, m60):
        ready = []
        cluster.acquire(m60, lambda n: ready.append(cluster.sim.now))
        cluster.sim.run()
        assert ready == [pytest.approx(m60.provision_seconds)]

    def test_gpu_node_gets_gpu_device(self, cluster, m60):
        node = cluster.acquire(m60, lambda n: None, instant=True)
        assert hasattr(node.device, "total_fbr")

    def test_cpu_node_gets_cpu_device(self, cluster, cpu_node):
        node = cluster.acquire(cpu_node, lambda n: None, instant=True)
        assert not hasattr(node.device, "total_fbr")

    def test_pools_created_per_model(self, cluster, m60):
        node = cluster.acquire(m60, lambda n: None, instant=True)
        p1 = node.pool("resnet50")
        assert node.pool("resnet50") is p1
        assert node.pool("vgg19") is not p1


class TestCost:
    def test_billing_starts_at_acquire(self, cluster, m60):
        cluster.acquire(m60, lambda n: None, instant=True)
        cluster.sim.schedule(3600.0, lambda: None)
        cluster.sim.run()
        assert bill_of(cluster).total_cost == pytest.approx(m60.price_per_hour)

    def test_billing_stops_at_release(self, cluster, m60):
        node = cluster.acquire(m60, lambda n: None, instant=True)
        cluster.sim.schedule(1800.0, lambda: cluster.release(node))
        cluster.sim.schedule(3600.0, lambda: None)
        cluster.sim.run()
        assert bill_of(cluster).total_cost == pytest.approx(m60.price_per_hour / 2)

    def test_overlapping_leases_both_billed(self, cluster, m60, v100):
        cluster.acquire(m60, lambda n: None, instant=True)
        cluster.acquire(v100, lambda n: None, instant=True)
        cluster.sim.schedule(3600.0, lambda: None)
        cluster.sim.run()
        assert bill_of(cluster).total_cost == pytest.approx(
            m60.price_per_hour + v100.price_per_hour
        )

    def test_cost_by_spec_splits(self, cluster, m60, v100):
        cluster.acquire(m60, lambda n: None, instant=True)
        cluster.acquire(v100, lambda n: None, instant=True)
        cluster.sim.schedule(3600.0, lambda: None)
        cluster.sim.run()
        by = bill_of(cluster).cost_by_spec
        assert by[m60.name] == pytest.approx(m60.price_per_hour)
        assert by[v100.name] == pytest.approx(v100.price_per_hour)

    def test_time_by_spec(self, cluster, m60):
        node = cluster.acquire(m60, lambda n: None, instant=True)
        cluster.sim.schedule(120.0, lambda: cluster.release(node))
        cluster.sim.run()
        assert bill_of(cluster).time_by_spec[m60.name] == pytest.approx(120.0)

    def test_double_release_raises(self, cluster, m60):
        node = cluster.acquire(m60, lambda n: None, instant=True)
        cluster.release(node)
        with pytest.raises(ValueError):
            cluster.release(node)


class TestFailure:
    def test_fail_evicts_and_marks_unavailable(self, cluster, m60):
        node = cluster.acquire(m60, lambda n: None, instant=True)
        assert node.available
        evicted = node.fail()
        assert not node.available
        assert evicted == []

    def test_recover_restores_availability(self, cluster, m60):
        node = cluster.acquire(m60, lambda n: None, instant=True)
        node.fail()
        node.recover()
        assert node.available
