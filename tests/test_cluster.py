"""Tests for the cluster model: servers, topology, placement, failures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterError,
    CopysetPlacement,
    PerformanceAwarePlacement,
    PlacementError,
    RandomPlacement,
    RoundRobinPlacement,
    Server,
    SpreadPlacement,
    poisson_failure_trace,
)
from repro.sim import Simulation


class TestServer:
    def test_performance_metrics(self):
        s = Server(0, cpu_speed=0.4, disk_bandwidth=1000, network_bandwidth=2000)
        assert s.performance("cpu_speed") == 0.4
        assert s.performance("disk_bandwidth") == 1000
        assert s.performance("network_bandwidth") == 2000

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            Server(0).performance("quantum_flux")


class TestCluster:
    def test_homogeneous_factory(self):
        c = Cluster.homogeneous(5, map_slots=4)
        assert len(c) == 5
        assert all(s.map_slots == 4 for s in c)

    def test_heterogeneous_factory(self):
        c = Cluster.heterogeneous([1.0, 0.4, 0.4])
        assert c.server(1).cpu_speed == 0.4

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ClusterError):
            Cluster([Server(0), Server(0)])

    def test_fail_recover(self):
        c = Cluster.homogeneous(3)
        c.fail(1)
        assert c.alive_ids() == [0, 2]
        with pytest.raises(ClusterError):
            c.fail(1)
        c.recover(1)
        assert c.alive_ids() == [0, 1, 2]
        with pytest.raises(ClusterError):
            c.recover(1)

    def test_unknown_server(self):
        with pytest.raises(ClusterError):
            Cluster.homogeneous(2).server(9)

    def test_performance_vector_order(self):
        c = Cluster.heterogeneous([1.0, 0.5, 0.25])
        assert c.performance_vector([2, 0]) == [0.25, 1.0]

    @settings(max_examples=80, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 30), min_size=2, max_size=8, unique=True).filter(lambda ids: ids != sorted(ids)),
        steps=st.lists(st.tuples(st.sampled_from(["fail", "recover"]), st.integers(0, 99)), max_size=30),
    )
    def test_alive_is_the_up_servers_in_id_order(self, ids, steps):
        """Against a ``sorted()`` reference, for a cluster built from servers
        given out of id order; iteration keeps insertion order."""
        c = Cluster([Server(i) for i in ids])
        order = list(ids)
        for op, pick in steps:
            srv = c.server(order[pick % len(order)])
            if op == "fail" and not srv.failed:
                c.fail(srv.server_id)
            elif op == "recover" and srv.failed:
                c.recover(srv.server_id)
            assert c.alive() == [s for s in sorted(c.servers.values(), key=lambda s: s.server_id) if not s.failed]
            assert c.alive_ids() == [s.server_id for s in c.alive()]
            assert [s.server_id for s in c] == order


class TestPlacement:
    def test_round_robin(self):
        c = Cluster.homogeneous(6)
        assert RoundRobinPlacement().place(c, 4) == [0, 1, 2, 3]
        assert RoundRobinPlacement(offset=4).place(c, 4) == [4, 5, 0, 1]

    def test_round_robin_skips_failed(self):
        c = Cluster.homogeneous(6)
        c.fail(0)
        assert RoundRobinPlacement().place(c, 3) == [1, 2, 3]

    def test_random_is_seeded(self):
        c = Cluster.homogeneous(10)
        a = RandomPlacement(seed=7).place(c, 5)
        b = RandomPlacement(seed=7).place(c, 5)
        assert a == b
        assert len(set(a)) == 5

    def test_performance_aware_orders_by_speed(self):
        c = Cluster.heterogeneous([0.4, 1.0, 0.4, 2.0, 1.0])
        placed = PerformanceAwarePlacement().place(c, 3)
        assert placed == [3, 1, 4]

    def test_not_enough_servers(self):
        c = Cluster.homogeneous(3)
        with pytest.raises(PlacementError):
            RoundRobinPlacement().place(c, 4)

    def _racked(self, racks=4, per_rack=6):
        return Cluster.racked(racks, per_rack)

    def test_spread_caps_blocks_per_rack(self):
        c = self._racked()
        for _ in range(20):
            placed = SpreadPlacement(seed=3).place(c, 7)
            assert len(set(placed)) == 7
            per_rack = {}
            for sid in placed:
                per_rack[c.server(sid).rack] = per_rack.get(c.server(sid).rack, 0) + 1
            # ceil(7 blocks / 4 racks) = 2: no rack holds more than 2.
            assert max(per_rack.values()) <= 2

    def test_spread_is_seeded(self):
        c = self._racked()
        assert SpreadPlacement(seed=9).place(c, 7) == SpreadPlacement(seed=9).place(c, 7)

    def test_copyset_bounds_distinct_placements(self):
        c = self._racked()
        policy = CopysetPlacement(scatter_width=12, seed=1)
        sets = policy.copysets(c, 7)
        # p = ceil(12 / 6) = 2 permutations over 24 servers -> 6 copysets.
        assert len(sets) == 6
        seen = {tuple(policy.place(c, 7)) for _ in range(100)}
        # Every stripe lands wholly inside one of the prebuilt copysets.
        assert seen <= {tuple(s) for s in sets}
        assert len(seen) > 1

    def test_copyset_rack_isolation(self):
        c = self._racked()
        for cs in CopysetPlacement(scatter_width=12, seed=1).copysets(c, 7):
            per_rack = {}
            for sid in cs:
                per_rack[c.server(sid).rack] = per_rack.get(c.server(sid).rack, 0) + 1
            assert max(per_rack.values()) <= 2

    def test_copyset_rebuilds_on_membership_change(self):
        c = self._racked()
        policy = CopysetPlacement(scatter_width=12, seed=1)
        before = policy.copysets(c, 7)
        c.fail(0)
        after = policy.copysets(c, 7)
        assert all(0 not in cs for cs in after)
        assert after != before

    def test_copyset_scatter_width_validation(self):
        with pytest.raises(ValueError):
            CopysetPlacement(scatter_width=0)


class TestFailureInjection:
    # A crash is an event on the simulation that calls ``cluster.fail``;
    # there is no injector object in between.

    def test_crash_at(self):
        sim = Simulation()
        c = Cluster.homogeneous(3)
        sim.schedule_at(5.0, lambda: c.fail(1), name="crash:1")
        sim.run(until=4.0)
        assert not c.server(1).failed
        sim.run()
        assert c.server(1).failed

    def test_crash_with_recovery(self):
        sim = Simulation()
        c = Cluster.homogeneous(3)
        sim.schedule_at(2.0, lambda: c.fail(0), name="crash:0")
        sim.schedule_at(5.0, lambda: c.recover(0), name="recover:0")
        sim.run(until=3.0)
        assert c.server(0).failed
        sim.run()
        assert not c.server(0).failed

    def test_poisson_trace_deterministic(self):
        a = poisson_failure_trace(range(5), horizon=1000, mtbf=100, seed=3)
        b = poisson_failure_trace(range(5), horizon=1000, mtbf=100, seed=3)
        assert a == b
        assert all(e.time < 1000 for e in a)
        assert a == sorted(a, key=lambda e: e.time)

    def test_poisson_trace_permanent_failures_terminate(self):
        """Satellite regression: with ``mttr=None`` a server stays dead,
        so it must appear in the trace at most once — the old code kept
        re-killing permanently-failed servers every MTBF."""
        trace = poisson_failure_trace(range(8), horizon=10_000, mtbf=50, seed=2, mttr=None)
        assert trace  # horizon is 200x the MTBF; every server dies once
        ids = [e.server_id for e in trace]
        assert len(ids) == len(set(ids))
        assert all(e.recover_at is None for e in trace)

    def test_poisson_trace_with_recovery(self):
        trace = poisson_failure_trace(range(3), horizon=500, mtbf=50, seed=1, mttr=10)
        assert any(e.recover_at is not None for e in trace)
        for e in trace:
            if e.recover_at is not None:
                assert e.recover_at > e.time

    @pytest.mark.parametrize("rates", [{"mtbf": 0}, {"mtbf": -5}, {"mtbf": 50, "mttr": 0}, {"mtbf": 50, "mttr": -1}])
    def test_poisson_trace_rejects_degenerate_rates(self, rates):
        """A zero rate used to raise ``ZeroDivisionError`` and a negative
        MTBF to return crashes at negative times."""
        with pytest.raises(ValueError):
            poisson_failure_trace(range(3), horizon=500, seed=1, **rates)
