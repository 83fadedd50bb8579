"""Tests for the resilient read path: backoff, breaker, hedging, timeout."""

import random

import pytest

from repro.cluster import Cluster
from repro.codes import ReedSolomonCode
from repro.faults import FaultModel, VirtualClock
from repro.faults.model import CLEAN, FaultDecision, GraySlowdown, TransientErrors
from repro.storage import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BlockUnavailableError,
    DistributedFileSystem,
    HealthMonitor,
)
from repro.storage import resilient
from repro.storage.health import CONSECUTIVE_LIMIT
from tests.conftest import payload_bytes


class Burst:
    """Duck-typed fault component firing a decision on the first N reads."""

    def __init__(self, count, decision, servers=None):
        self.count = count
        self.decision = decision
        self.servers = servers

    def applies(self, server_id, now):
        return self.servers is None or server_id in self.servers

    def sample(self, rng, server_id, nbytes, now):
        if self.count <= 0:
            return CLEAN
        self.count -= 1
        return self.decision


def make_env(fault_model=None, servers=8):
    cluster = Cluster.homogeneous(servers)
    dfs = DistributedFileSystem(cluster, fault_model=fault_model)
    payload = payload_bytes(6_000, seed=13)
    ef = dfs.write_file("f", payload, code=ReedSolomonCode(4, 2))
    return dfs, ef, payload


class TestBackoffPolicy:
    def test_exponential_capped_without_jitter(self, monkeypatch):
        monkeypatch.setattr(resilient, "JITTER", 0.0)
        rng = random.Random(0)
        delays = [resilient._backoff(r, rng) for r in range(1, 8)]
        # BASE_DELAY 10 ms doubling, capped at MAX_DELAY 250 ms.
        assert delays == pytest.approx([0.01, 0.02, 0.04, 0.08, 0.16, 0.25, 0.25])

    def test_jitter_bounds(self):
        rng = random.Random(1)
        for r in range(1, 20):
            base = min(resilient.MAX_DELAY, resilient.BASE_DELAY * 2 ** (r - 1))
            d = resilient._backoff(r, rng)
            assert base <= d <= base * (1 + resilient.JITTER)

    def test_backoff_timing_on_virtual_clock(self):
        """The clock advances by exactly the recorded backoff delays when
        every attempt fails before returning data."""
        dfs, ef, _ = make_env(FaultModel(TransientErrors(rate=1.0)))
        bad = ef.server_of(0)
        with pytest.raises(BlockUnavailableError) as exc:
            dfs.client.get(bad, "f", 0)
        assert exc.value.cause == "retries_exhausted"
        assert len(dfs.client.backoff_history) == resilient.MAX_ATTEMPTS - 1 == 3
        assert dfs.clock.now == pytest.approx(sum(dfs.client.backoff_history))
        assert dfs.metrics.total("retries") == 3


class TestRetries:
    def test_transient_burst_retried_to_success(self):
        dfs, ef, _ = make_env(FaultModel(Burst(2, FaultDecision(error=True))))
        data = dfs.client.get(ef.server_of(0), "f", 0)
        assert data is not None
        assert dfs.metrics.total("retries") == 2
        assert dfs.metrics.total("transient_read_errors") == 2

    def test_corruption_burst_healed_by_checksum_retry(self):
        dfs, ef, payload = make_env(FaultModel(Burst(1, FaultDecision(corrupt=True))))
        assert dfs.read_file("f") == payload
        assert dfs.metrics.total("checksum_failures") == 1
        assert dfs.metrics.total("retries") == 1

    def test_error_context_fields(self):
        dfs, ef, _ = make_env(FaultModel(TransientErrors(rate=1.0)))
        bad = ef.server_of(1)
        with pytest.raises(BlockUnavailableError) as exc:
            dfs.client.get(bad, "f", 1)
        ctx = exc.value.context()
        assert ctx["server"] == bad
        assert ctx["file"] == "f"
        assert ctx["block"] == 1
        assert ctx["cause"] == "retries_exhausted"
        assert exc.value.__cause__ is not None  # chains the last attempt


class TestTimeouts:
    def test_slow_read_times_out(self):
        # 0.8 s of excess latency is past READ_TIMEOUT (0.5 s) on every try.
        dfs, ef, _ = make_env(FaultModel(GraySlowdown(extra_latency=0.8)))
        with pytest.raises(BlockUnavailableError) as exc:
            dfs.client.get(ef.server_of(0), "f", 0)
        assert exc.value.cause == "retries_exhausted"
        assert dfs.metrics.total("read_timeouts") == resilient.MAX_ATTEMPTS
        assert dfs.metrics.total("hedged_reads") == 0  # a timed-out try is never hedged

    def test_big_blocks_do_not_spuriously_time_out(self, monkeypatch):
        """The deadline applies to *excess* latency, so a block whose clean
        transfer time exceeds READ_TIMEOUT still succeeds."""
        monkeypatch.setattr(resilient, "READ_TIMEOUT", 0.001)
        cluster = Cluster.homogeneous(8)
        dfs = DistributedFileSystem(cluster)
        payload = payload_bytes(2_000_000, seed=3)  # ~0.019s clean transfer
        ef = dfs.write_file("big", payload, code=ReedSolomonCode(4, 2))
        assert dfs.client.get(ef.server_of(0), "big", 0) is not None
        assert dfs.metrics.total("read_timeouts") == 0


class TestCircuitBreaker:
    def test_state_machine_transitions(self):
        clock = VirtualClock()
        health = HealthMonitor(clock)
        for _ in range(CONSECUTIVE_LIMIT):
            health.record_error(7)
        assert health.state(7) == OPEN
        assert health.is_open(7)
        assert not health.allow_request(7)
        clock.advance(1.5)
        assert not health.is_open(7)  # timeout elapsed: probe allowed
        assert health.allow_request(7)
        assert health.state(7) == HALF_OPEN
        health.record_success(7, 0.01)
        assert health.state(7) == CLOSED
        states = [s for _, sid, s in health.transitions if sid == 7]
        assert states == [OPEN, HALF_OPEN, CLOSED]

    def test_half_open_failure_reopens(self):
        clock = VirtualClock()
        health = HealthMonitor(clock)
        for _ in range(CONSECUTIVE_LIMIT):
            health.record_error(0)
        clock.advance(2.0)
        assert health.allow_request(0)
        health.record_error(0)
        assert health.state(0) == OPEN
        assert health.is_open(0)

    def test_half_open_admits_single_probe(self):
        clock = VirtualClock()
        health = HealthMonitor(clock)
        for _ in range(CONSECUTIVE_LIMIT):
            health.record_error(0)
        clock.advance(2.0)
        assert health.allow_request(0)  # the probe
        assert not health.allow_request(0)  # concurrent traffic still blocked

    def test_breaker_opens_and_fastfails_reads(self):
        dfs, ef, _ = make_env(FaultModel(TransientErrors(rate=1.0)))
        bad = ef.server_of(0)
        with pytest.raises(BlockUnavailableError):
            dfs.client.get(bad, "f", 0)  # 4 errors > consecutive limit
        assert dfs.health.state(bad) == OPEN
        assert dfs.metrics.total("breaker_opens") == 1
        with pytest.raises(BlockUnavailableError) as exc:
            dfs.client.get(bad, "f", 0)
        assert exc.value.cause == "breaker_open"
        assert dfs.metrics.total("breaker_fastfails") == 1

    def test_breaker_heals_after_fault_window(self):
        model = FaultModel(TransientErrors(rate=1.0, until=0.5))
        dfs, ef, _ = make_env(model)
        bad = ef.server_of(0)
        with pytest.raises(BlockUnavailableError):
            dfs.client.get(bad, "f", 0)
        assert dfs.health.state(bad) == OPEN
        dfs.clock.advance(2.0)  # past the reset timeout and the fault window
        assert dfs.client.get(bad, "f", 0) is not None  # half-open probe wins
        assert dfs.health.state(bad) == CLOSED
        assert dfs.metrics.total("breaker_closes") == 1


class TestHedging:
    def test_hedge_wins_over_one_off_straggler(self):
        # 0.3 s of excess latency: past HEDGE_THRESHOLD, under READ_TIMEOUT.
        dfs, ef, payload = make_env(FaultModel(Burst(1, FaultDecision(extra_latency=0.3))))
        t0 = dfs.clock.now
        data = dfs.client.get(ef.server_of(0), "f", 0)
        assert data is not None
        assert dfs.metrics.total("hedged_reads") == 1
        assert dfs.metrics.total("hedged_wins") == 1
        # The winning completion is ~threshold + clean latency, not 0.3s.
        assert dfs.clock.now - t0 < 0.3

    def test_hedge_loses_against_consistently_gray_server(self):
        """Hedging can't help when the second path is just as slow."""
        dfs, ef, _ = make_env(FaultModel(GraySlowdown(extra_latency=0.2)))
        dfs.client.get(ef.server_of(0), "f", 0)
        assert dfs.metrics.total("hedged_reads") == 1
        assert dfs.metrics.total("hedged_wins") == 0


class TestCleanPathEquivalence:
    def test_no_faults_no_resilience_overhead(self):
        dfs, ef, payload = make_env()
        assert dfs.read_file("f") == payload
        for name in ("retries", "hedged_reads", "read_timeouts", "breaker_opens"):
            assert dfs.metrics.total(name) == 0
        assert dfs.health.state(ef.server_of(0)) == CLOSED
