"""Tests for container pools (cold starts, keep-alive, caps)."""

import pytest

from repro.simulator.containers import ContainerPool


def make_pool(sim, cold=2.0, **kw):
    return ContainerPool(sim, cold_start_seconds=cold, **kw)


class TestSpawning:
    def test_negative_cold_start_rejected(self, sim):
        with pytest.raises(ValueError):
            make_pool(sim, cold=-1.0)

    def test_ensure_spawns_missing(self, sim):
        pool = make_pool(sim)
        assert pool.ensure(3) == 3
        assert pool.n_spawning == 3
        sim.run()
        assert pool.n_warm_idle == 3

    def test_ensure_is_idempotent(self, sim):
        pool = make_pool(sim)
        pool.ensure(3)
        assert pool.ensure(3) == 0

    def test_ensure_respects_cap(self, sim):
        pool = make_pool(sim, max_total=2)
        assert pool.ensure(10) == 2

    def test_add_warm_skips_cold_start(self, sim):
        pool = make_pool(sim)
        pool.add_warm(2)
        assert pool.n_warm_idle == 2
        assert pool.cold_starts == 0

    def test_spawn_becomes_warm_after_cold_start(self, sim):
        pool = make_pool(sim, cold=1.5)
        pool.ensure(1)
        got = []
        pool.request(lambda t: got.append((sim.now, t.cold)))
        sim.run()
        assert got == [(1.5, True)]

    def test_cap_below_one_rejected(self, sim):
        with pytest.raises(ValueError):
            make_pool(sim, max_total=0)


class TestAcquireRelease:
    def test_warm_container_acquired_immediately(self, sim):
        pool = make_pool(sim)
        pool.add_warm(1)
        got = []
        pool.request(lambda t: got.append(t))
        assert got and got[0].wait == 0.0 and not got[0].cold
        assert pool.n_busy == 1

    def test_release_serves_waiter_with_queue_attribution(self, sim):
        pool = make_pool(sim)
        pool.add_warm(1)
        pool.request(lambda t: None)
        got = []
        pool.request(lambda t: got.append(t))
        sim.schedule(0.5, pool.release)
        sim.run()
        assert got[0].wait == pytest.approx(0.5)
        assert got[0].cold is False

    def test_cold_start_served_waiter_is_cold(self, sim):
        pool = make_pool(sim, cold=1.0)
        got = []
        pool.request(lambda t: got.append(t))  # triggers reactive backstop
        sim.run()
        assert got[0].cold is True
        assert got[0].wait == pytest.approx(1.0)

    def test_release_without_acquire_raises(self, sim):
        pool = make_pool(sim)
        with pytest.raises(RuntimeError):
            pool.release()

    def test_backstop_bounded_by_cap(self, sim):
        pool = make_pool(sim, max_total=2)
        for _ in range(5):
            pool.request(lambda t: None)
        assert pool.n_spawning == 2
        assert pool.n_waiting == 5

    def test_lifo_reuse_keeps_oldest_reapable(self, sim):
        pool = make_pool(sim)
        pool.add_warm(2)
        pool.request(lambda t: None)
        pool.release()
        assert pool.n_warm_idle == 2


class TestKeepAlive:
    def test_reap_removes_idle_past_keepalive(self, sim):
        pool = make_pool(sim)
        pool.add_warm(3)
        sim.schedule(20.0, lambda: None)
        sim.run()
        assert pool.reap(10.0) == 2  # min_warm=1 survives
        assert pool.n_total == 1

    def test_reap_keeps_recent_idlers(self, sim):
        pool = make_pool(sim)
        pool.add_warm(3)
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert pool.reap(10.0) == 0

    def test_reap_respects_min_warm(self, sim):
        pool = ContainerPool(sim, 1.0, min_warm=2)
        pool.add_warm(2)
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert pool.reap(10.0) == 0

    def test_terminate_all_keeps_busy(self, sim):
        pool = make_pool(sim)
        pool.add_warm(2)
        pool.request(lambda t: None)
        pool.terminate_all()
        assert pool.n_warm_idle == 0
        assert pool.n_busy == 1
        pool.release()  # must still balance


class TestTakeWarm:
    """The dispatch hot path's synchronous acquisition, and the waiter
    path it falls back to."""

    def test_moves_one_idle_container_to_busy(self, sim):
        pool = make_pool(sim)
        pool.add_warm(2)
        assert pool.take_warm() is True
        assert (pool.n_warm_idle, pool.n_busy, pool.n_waiting) == (1, 1, 0)
        assert pool.cold_starts == 0
        assert pool.n_spawning == 0
        assert sim.pending() == 0  # no ticket, callback or event

    def test_nothing_idle_leaves_the_pool_untouched(self, sim):
        pool = make_pool(sim)
        pool.ensure(1)

        def state():
            return (pool.n_warm_idle, pool.n_busy, pool.n_spawning,
                    pool.n_waiting, pool.cold_starts)

        before = state()
        assert pool.take_warm() is False
        assert state() == before

    def test_taken_container_releases_like_a_requested_one(self, sim):
        pool = make_pool(sim)
        pool.add_warm(1)
        assert pool.take_warm()
        pool.release()
        assert (pool.n_warm_idle, pool.n_busy) == (1, 0)
        with pytest.raises(RuntimeError):
            pool.release()

    def test_waiter_behind_a_taken_container_is_queue_attributed(self, sim):
        pool = make_pool(sim, max_total=1)
        pool.add_warm(1)
        assert pool.take_warm()
        assert not pool.take_warm()
        got = []
        pool.request(lambda t: got.append((sim.now, t.wait, t.cold)))
        assert pool.n_waiting == 1
        sim.schedule(0.5, pool.release)
        sim.run()
        assert got == [(0.5, pytest.approx(0.5), False)]
        assert pool.cold_starts == 0

    def test_waiter_on_an_empty_pool_is_cold_attributed(self, sim):
        pool = make_pool(sim, cold=1.0)
        assert not pool.take_warm()
        got = []
        pool.request(lambda t: got.append((sim.now, t.wait, t.cold)))
        sim.run()
        assert got == [(1.0, pytest.approx(1.0), True)]
        assert pool.cold_starts == 1

    def test_request_still_hands_an_idle_container_a_ticket_at_once(self, sim):
        from repro.simulator.containers import AcquireTicket

        pool = make_pool(sim)
        pool.add_warm(1)
        got = []
        pool.request(got.append)
        assert got == [AcquireTicket(wait=0.0, cold=False)]
        assert (pool.n_warm_idle, pool.n_busy) == (0, 1)
