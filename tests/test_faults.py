"""Tests for the composable fault model and seeded chaos schedules."""

import pytest

from repro.cluster import Cluster
from repro.cluster.failure import FailureEvent
from repro.codes import ReedSolomonCode
from repro.faults import FaultModel, VirtualClock, generate_schedule, generate_schedules
from repro.faults.model import (
    CLEAN,
    FaultDecision,
    GraySlowdown,
    LatencySpikes,
    SilentCorruption,
    TransientErrors,
)
from repro.faults import schedule
from repro.faults.schedule import bound_concurrent_crashes
from repro.storage import DistributedFileSystem, TransientReadError
from repro.storage.health import CONSECUTIVE_LIMIT, HealthMonitor
from tests.conftest import payload_bytes


class TestVirtualClock:
    def test_pin_and_advance(self):
        clock = VirtualClock()
        clock.pin(5.0)
        assert clock.now == 5.0
        clock.advance(0.25)
        assert clock.now == 5.25
        clock.advance(-1.0)  # negative advances are ignored
        assert clock.now == 5.25

    def test_pin_backwards(self):
        # The gateway does this: a read on an idle disk starts earlier than
        # the previous read, which had queued behind others.
        clock = VirtualClock()
        clock.advance(2.0)
        clock.pin(0.5)
        assert clock.now == 0.5
        assert clock.advance(0.25) == 0.75

    def test_open_breaker_stays_open_across_a_backward_pin(self):
        clock = VirtualClock()
        health = HealthMonitor(clock)
        clock.pin(5.0)
        for _ in range(CONSECUTIVE_LIMIT):
            health.record_error(3)
        clock.pin(4.0)
        assert health.is_open(3) and not health.allow_request(3)
        clock.pin(5.5)
        assert health.is_open(3)
        clock.pin(6.0)
        assert not health.is_open(3)


class TestDecisions:
    def test_merge_combines_all_dimensions(self):
        a = FaultDecision(error=True, extra_latency=0.1)
        b = FaultDecision(corrupt=True, extra_latency=0.2)
        m = a.merge(b)
        assert m.error and m.corrupt
        assert m.extra_latency == pytest.approx(0.3)

    def test_clean_is_identity(self):
        d = FaultDecision(error=True)
        assert CLEAN.merge(d) == d
        assert d.merge(CLEAN) == d


class TestComponents:
    def test_server_scope(self):
        comp = TransientErrors(rate=1.0, servers=frozenset({3}))
        assert comp.applies(3, 0.0)
        assert not comp.applies(4, 0.0)

    def test_time_window(self):
        comp = GraySlowdown(extra_latency=0.1, start=2.0, until=5.0)
        assert not comp.applies(0, 1.9)
        assert comp.applies(0, 2.0)
        assert comp.applies(0, 4.9)
        assert not comp.applies(0, 5.0)

    def test_rates_are_probabilities(self):
        model = FaultModel(TransientErrors(rate=0.5), seed=7)
        errors = sum(model.on_read(0, 100).error for _ in range(2000))
        assert 800 < errors < 1200

    def test_gray_always_slow(self):
        model = FaultModel(GraySlowdown(extra_latency=0.25))
        for _ in range(5):
            assert model.on_read(1, 100).extra_latency == pytest.approx(0.25)

    def test_spikes_and_corruption(self):
        model = FaultModel(LatencySpikes(rate=1.0, latency=0.5), SilentCorruption(rate=1.0))
        d = model.on_read(0, 100)
        assert d.corrupt
        assert d.extra_latency == pytest.approx(0.5)


class TestFaultModel:
    def test_seeded_determinism(self):
        def sequence(seed):
            model = FaultModel(TransientErrors(rate=0.3), LatencySpikes(rate=0.3), seed=seed)
            return [model.on_read(i % 4, 100) for i in range(200)]

        assert sequence(11) == sequence(11)
        assert sequence(11) != sequence(12)

    def test_tallies(self):
        model = FaultModel(TransientErrors(rate=1.0), GraySlowdown(extra_latency=0.1))
        for _ in range(3):
            model.on_read(0, 64)
        assert model.decisions == 3
        assert model.injected_errors == 3
        assert model.injected_latency == pytest.approx(0.3)


class TestCrashBounding:
    def test_concurrent_crashes_bounded(self):
        events = [
            FailureEvent(time=1.0, server_id=0, recover_at=10.0),
            FailureEvent(time=2.0, server_id=1, recover_at=10.0),
            FailureEvent(time=3.0, server_id=2, recover_at=10.0),
            FailureEvent(time=11.0, server_id=3, recover_at=None),
        ]
        kept = bound_concurrent_crashes(events, 2)
        assert [e.server_id for e in kept] == [0, 1, 3]

    def test_permanent_crash_holds_slot(self):
        events = [
            FailureEvent(time=1.0, server_id=0, recover_at=None),
            FailureEvent(time=50.0, server_id=1, recover_at=60.0),
        ]
        assert [e.server_id for e in bound_concurrent_crashes(events, 1)] == [0]


class TestSchedules:
    def test_schedule_is_pure_function_of_seed(self):
        ids = list(range(8))
        assert generate_schedule(ids, 42) == generate_schedule(ids, 42)
        assert generate_schedule(ids, 42) != generate_schedule(ids, 43)

    def test_generate_many(self):
        schedules = generate_schedules(range(8), 5, base_seed=100)
        assert [s.seed for s in schedules] == [100, 101, 102, 103, 104]
        assert len({s.components for s in schedules}) > 1

    def test_crash_bound_respected(self, monkeypatch):
        monkeypatch.setattr(schedule, "MTBF", 5.0)
        monkeypatch.setattr(schedule, "MAX_CONCURRENT_CRASHES", 2)
        for sched in generate_schedules(range(10), 10):
            down: dict[int, float] = {}
            for ev in sorted(sched.crashes, key=lambda e: e.time):
                down = {s: r for s, r in down.items() if r > ev.time}
                down[ev.server_id] = float("inf") if ev.recover_at is None else ev.recover_at
                assert len(down) <= 2

    def test_runner_applies_events_once(self, monkeypatch):
        monkeypatch.setattr(schedule, "MTBF", 5.0)
        sched = generate_schedule(range(6), 3, horizon=20.0)
        assert sched.crashes  # mtbf far below horizon: crashes exist
        cluster = Cluster.homogeneous(6)
        runner = sched.runner()
        fired = runner.advance_to(cluster, sched.horizon + 100.0)
        assert runner.advance_to(cluster, sched.horizon + 200.0) == []
        # Every fired event actually toggled a server.
        assert len(fired) == len(runner.applied)

    def test_runner_skips_redundant_events(self):
        from repro.faults import ChaosSchedule

        sched = ChaosSchedule(
            seed=0,
            horizon=10.0,
            crashes=(FailureEvent(time=1.0, server_id=0, recover_at=5.0),),
            components=(),
        )
        cluster = Cluster.homogeneous(2)
        runner = sched.runner()
        cluster.fail(0)  # crashed out-of-band before the event fires
        assert runner.advance_to(cluster, 2.0) == []  # crash event skipped
        assert runner.advance_to(cluster, 6.0) == [(5.0, "recover", 0)]
        assert not cluster.server(0).failed


class TestStoreIntegration:
    @pytest.fixture
    def env(self):
        cluster = Cluster.homogeneous(8)
        dfs = DistributedFileSystem(cluster)
        payload = payload_bytes(6_000, seed=9)
        ef = dfs.write_file("f", payload, code=ReedSolomonCode(4, 2))
        return dfs, ef, payload

    def test_transient_errors_surface_at_store(self, env):
        dfs, ef, _ = env
        bad = ef.server_of(0)
        dfs.store.install_faults(
            FaultModel(TransientErrors(rate=1.0, servers=frozenset({bad}))), VirtualClock()
        )
        with pytest.raises(TransientReadError) as exc:
            dfs.store.get(bad, "f", 0)
        assert exc.value.cause == "transient"
        assert exc.value.server == bad
        assert dfs.metrics.total("transient_read_errors") == 1
        # Other servers unaffected.
        dfs.store.get(ef.server_of(1), "f", 1)

    def test_corruption_detected_by_checksum(self, env):
        dfs, ef, _ = env
        bad = ef.server_of(2)
        dfs.store.install_faults(
            FaultModel(SilentCorruption(rate=1.0, servers=frozenset({bad}))), VirtualClock()
        )
        # Unverified read returns silently wrong bytes ...
        dfs.store.get(bad, "f", 2)
        assert dfs.metrics.total("corrupted_returns") >= 1
        # ... verified read turns it into a retryable checksum error.
        with pytest.raises(TransientReadError) as exc:
            dfs.store.timed_get(bad, "f", 2, verify=True)
        assert exc.value.cause == "checksum"
        assert dfs.metrics.total("checksum_failures") >= 1

    def test_corruption_leaves_stored_block_intact(self, env):
        dfs, ef, _ = env
        bad = ef.server_of(0)
        model = FaultModel(SilentCorruption(rate=1.0, servers=frozenset({bad})))
        dfs.store.install_faults(model, VirtualClock())
        dfs.store.get(bad, "f", 0)  # corrupted in flight
        dfs.store.install_faults(None)
        assert dfs.store.verify(bad, "f", 0)  # at-rest copy untouched

    def test_gray_slowdown_inflates_latency(self, env):
        dfs, ef, _ = env
        gray = ef.server_of(3)
        dfs.store.install_faults(
            FaultModel(GraySlowdown(extra_latency=0.2, servers=frozenset({gray}))), VirtualClock()
        )
        _, slow = dfs.store.timed_get(gray, "f", 3)
        _, fast = dfs.store.timed_get(ef.server_of(1), "f", 1)
        assert slow == pytest.approx(fast + 0.2)
