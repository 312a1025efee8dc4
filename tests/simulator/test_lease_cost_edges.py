"""Lease cost-accounting edges: mid-run release, switches, zero-duration
runs, chaos-killed nodes, and the lease-side observer hooks that feed
the cost meter of the run that leased the node."""

import math

import pytest

from repro.framework.system import RunResult
from repro.simulator.cluster import Cluster
from repro.simulator.power import bill
from repro.telemetry import RunObservers, Tracer
from repro.telemetry.costmeter import CostMeter


def billed_dollars(cluster):
    """What every lease in ``cluster`` cost up to now."""
    return bill(zip(cluster.nodes, cluster.leases), cluster.sim.now).total_cost


@pytest.fixture
def cluster(sim, catalog):
    return Cluster(sim, catalog, seed=1)


@pytest.fixture
def obs():
    """The observer bundle of the run that leases every node below."""
    bundle = RunObservers(Tracer())
    bundle.costmeter = CostMeter()
    return bundle


class TestClusterMeterHooks:
    def test_lease_released_mid_run_matches_lease_record(
        self, cluster, obs, m60
    ):
        node = cluster.acquire(m60, lambda n: None, instant=True, obs=obs)
        cluster.sim.schedule(100.0, lambda: cluster.release(node))
        cluster.sim.schedule(300.0, lambda: None)
        cluster.sim.run()
        bd = obs.costmeter.summarize(cluster.sim.now)
        assert bd.total_dollars == pytest.approx(billed_dollars(cluster))
        assert bd.leases[0].end == pytest.approx(100.0)

    def test_hardware_switch_overlapping_leases_conserve(
        self, cluster, obs, m60, v100
    ):
        """During a switch the old and new lease overlap; the meter's
        per-lease bills still sum to the cluster's."""
        old = cluster.acquire(m60, lambda n: None, instant=True, obs=obs)

        def start_switch():
            cluster.acquire(v100, lambda n: None, obs=obs)  # provisioning

        cluster.sim.schedule(50.0, start_switch)
        cluster.sim.schedule(50.0 + v100.provision_seconds + 1.0,
                             lambda: cluster.release(old))
        cluster.sim.schedule(120.0, lambda: None)
        cluster.sim.run()
        bd = obs.costmeter.summarize(cluster.sim.now)
        assert len(bd.leases) == 2
        assert math.isclose(
            bd.total_dollars, billed_dollars(cluster),
            rel_tol=1e-9, abs_tol=1e-12,
        )
        # The V100's provisioning window is reconfiguration dollars.
        v100_lease = next(l for l in bd.leases if l.spec == v100.name)
        assert v100_lease.bucket_dollars["reconfig"] == pytest.approx(
            v100.provision_seconds * v100.price_per_second
        )

    def test_provisioned_acquire_records_ready_at(self, cluster, obs, m60):
        cluster.acquire(m60, lambda n: None, obs=obs)
        state = obs.costmeter._open[cluster.nodes[0].node_id]
        assert state.ready_at == pytest.approx(m60.provision_seconds)

    def test_failed_node_still_bills_until_release(self, cluster, obs, m60):
        """A chaos-killed node's lease keeps billing until the framework
        releases it — including the spawn time already paid."""
        node = cluster.acquire(m60, lambda n: None, instant=True, obs=obs)
        pool = node.pool("resnet50")
        pool.prewarm(2)  # spawn intervals recorded
        cluster.sim.schedule(1.0, node.fail)
        cluster.sim.schedule(10.0, lambda: cluster.release(node))
        cluster.sim.schedule(20.0, lambda: None)
        cluster.sim.run()
        bd = obs.costmeter.summarize(cluster.sim.now)
        assert bd.total_dollars == pytest.approx(
            10.0 * m60.price_per_second
        )
        # The pre-failure spawn window landed in the cold-start bucket.
        assert bd.bucket_dollars["coldstart"] > 0.0

    def test_spawn_after_failure_does_not_outlive_lease(
        self, cluster, obs, m60
    ):
        """fail() zeroes the pool's spawning count but the scheduled
        _on_warm still fires; the meter clips every spawn interval to
        the lease, so the bill never exceeds the lease record."""
        node = cluster.acquire(m60, lambda n: None, instant=True, obs=obs)
        pool = node.pool("resnet50")
        pool.prewarm(1)
        cluster.sim.schedule(0.5, node.fail)
        cluster.sim.schedule(1.0, lambda: cluster.release(node))
        cluster.sim.schedule(m60.cold_start_seconds + 5.0, lambda: None)
        cluster.sim.run()
        bd = obs.costmeter.summarize(cluster.sim.now)
        assert bd.total_dollars == pytest.approx(1.0 * m60.price_per_second)
        assert sum(bd.bucket_seconds.values()) == pytest.approx(1.0)

    def test_meter_propagates_to_new_pools(self, cluster, obs, m60):
        node = cluster.acquire(m60, lambda n: None, instant=True, obs=obs)
        pool = node.pool("resnet50")
        assert pool.obs is obs
        assert node.device.obs is obs
        assert pool.node_id == node.node_id

    def test_unmetered_cluster_records_nothing(self, sim, catalog, m60):
        c = Cluster(sim, catalog, seed=1)
        node = c.acquire(m60, lambda n: None, instant=True)
        node.pool("resnet50").prewarm(1)
        c.release(node)
        assert node.obs is None
        assert node.pool("resnet50").obs is None


class TestRunResultCostGuards:
    def _result(self, **overrides):
        defaults = dict(
            scheme="paldia", model="resnet50", slo_seconds=0.2,
            duration=60.0, offered_requests=10, completed_requests=10,
            unserved_requests=0, slo_compliance=1.0, p50_seconds=0.01,
            p99_seconds=0.02, total_cost=1.0, cost_by_spec={},
            time_by_spec={}, energy_joules=0.0, avg_watts=0.0,
            utilization_by_spec={}, tail_breakdown={}, mode_split={},
            hardware_usage={}, n_switches=0, cold_starts=0,
        )
        defaults.update(overrides)
        return RunResult(**defaults)

    def test_zero_duration_run_cost_per_hour_is_zero(self):
        r = self._result(duration=0.0, total_cost=0.5)
        assert r.cost_per_hour == 0.0

    def test_positive_duration_cost_per_hour(self):
        r = self._result(duration=1800.0, total_cost=0.5)
        assert r.cost_per_hour == pytest.approx(1.0)

    def test_cost_breakdown_defaults_to_none(self):
        r = self._result()
        assert r.cost_breakdown is None
        assert r.budget_alerts == 0


class TestFrameworkSpecSplit:
    def test_cost_by_spec_sums_to_total_on_traced_run(self):
        from repro.experiments.schemes import make_policy
        from repro.framework.slo import SLO
        from repro.framework.system import ServerlessRun
        from repro.hardware.profiles import ProfileService
        from repro.workloads.models import get_model
        from repro.workloads.traces import poisson_trace

        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = poisson_trace(rate_rps=model.peak_rps, duration=30.0, seed=1)
        policy = make_policy(
            "paldia", model, profiles, slo.target_seconds, trace
        )
        result = ServerlessRun(
            model, trace, policy, profiles, slo, tracer=Tracer()
        ).execute()
        assert math.isclose(
            sum(result.cost_by_spec.values()), result.total_cost,
            rel_tol=1e-9, abs_tol=1e-12,
        )
