"""Multi-tenant serving gateway: cache, coalescing, QoS, hedged reads.

Covers the serving package end to end on simulated time: the TinyLFU
cache's admission policy, request coalescing, tenant token-lease
throttling, the gateway request path (clean, cached, coalesced,
degraded, hedged), repair-as-serving-traffic, and the workload
generator's determinism.  Every payload assertion is byte-exact against
the deterministic :func:`file_payload` the workload uses.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster.placement import RandomPlacement
from repro.cluster.topology import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.faults.model import FaultModel, GraySlowdown, LatencySpikes
from repro.serving import (
    FlashCrowd,
    FrequencySketch,
    GatewayConfig,
    HotBlockCache,
    RequestCoalescer,
    ScratchClock,
    ServingError,
    ServingGateway,
    TenantThrottle,
    WorkloadGenerator,
    WorkloadSpec,
    file_payload,
    populate,
)
from repro.sim.aio import SimLoop
from repro.storage.filesystem import DistributedFileSystem, FileSystemError
from repro.storage.metrics import MetricsRegistry

CODES = {
    "rs": lambda: ReedSolomonCode(4, 3),
    "pyramid": lambda: PyramidCode(4, 2, 1),
    "galloper": lambda: GalloperCode(4, 2, 1),
}


def run(loop, coro):
    return loop.run_until_complete(loop.create_task(coro))


def make_gateway(servers=12, fault_model=None, **cfg):
    cluster = Cluster.homogeneous(servers)
    dfs = DistributedFileSystem(cluster, fault_model=fault_model)
    return ServingGateway(dfs, config=GatewayConfig(**cfg))


def put_file(gateway, make_code, tenant="alpha", key="f0", size=8192):
    payload = file_payload(tenant, 0, size)
    gateway.put(tenant, key, payload, code=make_code())
    return payload


# ------------------------------------------------------------------- cache


class TestFrequencySketch:
    def test_record_and_estimate(self):
        sketch = FrequencySketch(sample_period=1000)
        for _ in range(3):
            sketch.record("hot")
        sketch.record("cold")
        assert sketch.estimate("hot") == 3
        assert sketch.estimate("cold") == 1
        assert sketch.estimate("unseen") == 0

    def test_aging_halves_counts(self):
        sketch = FrequencySketch(sample_period=4)
        for _ in range(3):
            sketch.record("hot")
        sketch.record("once")  # 4th access triggers the halving
        assert sketch.estimate("hot") == 1
        assert sketch.estimate("once") == 0  # halved to zero, dropped

    def test_sample_period_validated(self):
        with pytest.raises(ValueError):
            FrequencySketch(sample_period=0)


class TestHotBlockCache:
    def test_hit_miss_counters(self):
        cache = HotBlockCache(4, metrics=MetricsRegistry())
        assert cache.get("k") is None
        cache.offer("k", "V")
        assert cache.get("k") == "V"
        assert cache.metrics.total("serving_cache_misses") == 1
        assert cache.metrics.total("serving_cache_hits") == 1
        assert cache.hit_ratio() == pytest.approx(0.5)

    def test_admission_filter_protects_warm_victim(self):
        cache = HotBlockCache(2, metrics=MetricsRegistry(), sample_period=10_000)
        cache.offer("a", "A")
        cache.offer("b", "B")
        cache.get("a")
        cache.get("a")  # a is warm (freq 2); b untouched (freq 0)
        cache.get("c")  # c seen once
        # c (freq 1) displaces the cold LRU victim b (freq 0)...
        assert cache.offer("c", "C") is True
        assert "b" not in cache and "c" in cache
        # ...but an unseen d cannot displace warm a.
        assert cache.offer("d", "D") is False
        assert "a" in cache and "d" not in cache
        assert cache.metrics.total("serving_cache_evictions") == 1
        assert cache.metrics.total("serving_cache_rejections") == 1

    def test_resident_key_refreshes_in_place(self):
        cache = HotBlockCache(1, metrics=MetricsRegistry())
        cache.offer("k", "old")
        assert cache.offer("k", "new") is True
        assert cache.get("k") == "new"

    def test_invalidate(self):
        cache = HotBlockCache(2, metrics=MetricsRegistry())
        cache.offer("k", "V")
        cache.invalidate("k")
        assert "k" not in cache
        cache.invalidate("k")  # idempotent

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            HotBlockCache(0)


# --------------------------------------------------------------- coalescing


class TestRequestCoalescer:
    def test_leader_then_followers(self):
        loop = SimLoop()
        co = RequestCoalescer(loop, metrics=MetricsRegistry())
        leader, fut = co.lease("s")
        assert leader and co.inflight == 1
        follower, fut2 = co.lease("s")
        assert not follower and fut2 is fut
        co.complete("s", 42)
        assert fut.result() == 42
        assert co.inflight == 0
        assert co.metrics.total("serving_coalesced_reads") == 1

    def test_failure_propagates_to_followers(self):
        loop = SimLoop()
        co = RequestCoalescer(loop, metrics=MetricsRegistry())
        _, fut = co.lease("s")
        co.lease("s")
        co.fail("s", OSError("disk gone"))
        assert isinstance(fut.exception(), OSError)

    def test_distinct_keys_do_not_coalesce(self):
        loop = SimLoop()
        co = RequestCoalescer(loop, metrics=MetricsRegistry())
        assert co.lease("a")[0] and co.lease("b")[0]
        assert co.metrics.total("serving_coalesced_reads") == 0


# ---------------------------------------------------------------------- qos


class TestTenantThrottle:
    def _run_pair(self, throttle, loop, tenant="t", hold=1.0, release=True):
        starts = []

        async def job(i):
            lease = await throttle.acquire(tenant, 10.0)
            starts.append((i, loop.now))
            await loop.sleep(hold)
            if release:
                throttle.release(lease)

        loop.create_task(job(0))
        loop.create_task(job(1))
        loop.run()
        return starts

    def test_cap_serializes_requests(self):
        loop = SimLoop()
        throttle = TenantThrottle(loop, max_inflight=1, metrics=MetricsRegistry())
        starts = self._run_pair(throttle, loop)
        assert [i for i, _ in starts] == [0, 1]
        assert starts[0][1] == pytest.approx(0.0)
        assert starts[1][1] == pytest.approx(1.0)  # woken by the release
        assert throttle.metrics.total("tenant_throttle_waits") == 1

    def test_lease_expiry_bounds_a_leak(self):
        loop = SimLoop()
        throttle = TenantThrottle(loop, max_inflight=1, metrics=MetricsRegistry())
        starts = self._run_pair(throttle, loop, release=False)
        # Never released: the second admit waits for the 10s self-expiry.
        assert starts[1][1] == pytest.approx(10.0, abs=1e-6)

    def test_per_tenant_limits_are_independent(self):
        loop = SimLoop()
        throttle = TenantThrottle(
            loop, max_inflight=8, limits={"repair": 1}, metrics=MetricsRegistry()
        )
        assert throttle.cap("repair") == 1
        assert throttle.cap("alpha") == 8
        repair_starts = self._run_pair(throttle, loop, tenant="repair")
        assert repair_starts[1][1] == pytest.approx(1.0)
        loop2 = SimLoop()
        throttle2 = TenantThrottle(
            loop2, max_inflight=8, limits={"repair": 1}, metrics=MetricsRegistry()
        )
        alpha_starts = self._run_pair(throttle2, loop2, tenant="alpha")
        assert alpha_starts[1][1] == pytest.approx(0.0)

    def test_caps_validated(self):
        loop = SimLoop()
        with pytest.raises(ValueError):
            TenantThrottle(loop, max_inflight=0)
        with pytest.raises(ValueError):
            TenantThrottle(loop, limits={"t": 0})


# ------------------------------------------------------------------ gateway


class TestScratchClock:
    def test_pin_and_advance(self):
        clock = ScratchClock()
        clock.pin(5.0)
        assert clock.now == 5.0
        clock.advance(0.25)
        assert clock.now == 5.25
        clock.advance(-1.0)  # negative advances are ignored
        assert clock.now == 5.25


class TestGatewayReads:
    @pytest.mark.parametrize("code_name", CODES, ids=CODES.keys())
    def test_roundtrip_byte_exact(self, code_name):
        gateway = make_gateway()
        payload = put_file(gateway, CODES[code_name])
        got = run(gateway.loop, gateway.read("alpha", "f0"))
        assert got == payload

    @pytest.mark.parametrize("code_name", CODES, ids=CODES.keys())
    def test_extent_slicing(self, code_name):
        gateway = make_gateway()
        payload = put_file(gateway, CODES[code_name])
        for offset, length in [(0, 100), (1000, 4096), (8000, 10_000), (0, None)]:
            got = run(gateway.loop, gateway.read("alpha", "f0", offset, length))
            end = len(payload) if length is None else min(len(payload), offset + length)
            assert got == payload[offset:end]

    def test_tenant_namespaces_are_isolated(self):
        gateway = make_gateway()
        pa = file_payload("alpha", 0, 4096)
        pb = file_payload("beta", 0, 4096)
        gateway.put("alpha", "f0", pa, code=GalloperCode(4, 2, 1))
        gateway.put("beta", "f0", pb, code=GalloperCode(4, 2, 1))
        assert run(gateway.loop, gateway.read("alpha", "f0")) == pa
        assert run(gateway.loop, gateway.read("beta", "f0")) == pb

    def test_tenant_name_with_slash_rejected(self):
        with pytest.raises(ServingError):
            ServingGateway.qualify("a/b", "key")

    def test_missing_file_raises(self):
        gateway = make_gateway()
        task = gateway.loop.create_task(gateway.read("alpha", "nope"))
        gateway.loop.run()
        assert isinstance(task.exception(), FileSystemError)

    def test_second_read_hits_cache(self):
        gateway = make_gateway()
        payload = put_file(gateway, CODES["galloper"])
        run(gateway.loop, gateway.read("alpha", "f0"))
        misses = gateway.metrics.total("serving_cache_misses")
        assert run(gateway.loop, gateway.read("alpha", "f0")) == payload
        assert gateway.metrics.total("serving_cache_hits") > 0
        assert gateway.metrics.total("serving_cache_misses") == misses

    def test_concurrent_same_stripe_reads_coalesce(self):
        gateway = make_gateway(cache_entries=1, cache_sample_period=10)
        payload = put_file(gateway, CODES["galloper"], size=2048)

        async def both():
            a = gateway.loop.create_task(gateway.read("alpha", "f0"))
            b = gateway.loop.create_task(gateway.read("alpha", "f0"))
            return await gateway.loop.gather(a, b)

        got = run(gateway.loop, both())
        assert got == [payload, payload]
        assert gateway.metrics.total("serving_coalesced_reads") > 0

    def test_slo_and_read_counters(self):
        gateway = make_gateway()
        put_file(gateway, CODES["galloper"])
        for _ in range(3):
            run(gateway.loop, gateway.read("alpha", "f0"))
        counters = gateway.counters()
        assert counters["reads_ok"] == 3
        assert counters["reads_failed"] == 0
        assert counters["slo_ok"] == 3  # unloaded reads sit far under the SLO

    def test_counters_schema_is_stable(self):
        gateway = make_gateway()
        assert set(gateway.counters()) == {
            "cache_hits", "cache_misses", "cache_admissions", "cache_rejections",
            "cache_evictions", "coalesced_reads", "hedges_fired", "hedges_won",
            "hedge_losers_discarded", "client_hedged_reads", "client_hedged_wins",
            "client_hedged_losers_discarded", "degraded_reads", "throttle_waits",
            "repair_blocks", "reads_ok", "reads_failed", "slo_ok", "unavailable",
        }


class TestDegradedServing:
    @pytest.mark.parametrize("code_name", CODES, ids=CODES.keys())
    def test_read_survives_holder_failure(self, code_name):
        gateway = make_gateway()
        payload = put_file(gateway, CODES[code_name])
        ef = gateway.dfs.file("alpha/f0")
        block, _row = gateway.dfs.stripe_holders("alpha/f0")[0]
        gateway.dfs.cluster.fail(ef.server_of(block))
        got = run(gateway.loop, gateway.read("alpha", "f0"))
        assert got == payload
        assert gateway.counters()["degraded_reads"] > 0

    def test_unrecoverable_extent_is_serving_error(self):
        gateway = make_gateway(servers=12)
        put_file(gateway, CODES["galloper"])
        ef = gateway.dfs.file("alpha/f0")
        for server in set(ef.placement.values()):
            gateway.dfs.cluster.fail(server)
        task = gateway.loop.create_task(gateway.read("alpha", "f0"))
        gateway.loop.run()
        assert isinstance(task.exception(), ServingError)
        counters = gateway.counters()
        assert counters["reads_failed"] == 1
        assert counters["unavailable"] > 0


class TestHedgedServing:
    """The hedged degraded read in the serving path (satellite check)."""

    def _deep_queue_gateway(self):
        gateway = make_gateway(hedge_threshold=0.005)
        payload = put_file(gateway, CODES["galloper"])
        block, _row = gateway.dfs.stripe_holders("alpha/f0")[0]
        primary = gateway.dfs.file("alpha/f0").server_of(block)
        # A deep primary queue: the predicted completion exceeds both the
        # hedge threshold and the repair group's predicted decode time.
        gateway._busy_until[primary] = gateway.loop.now + 1.0
        return gateway, payload

    def test_hedge_fires_and_wins_byte_exact(self):
        gateway, payload = self._deep_queue_gateway()
        got = run(gateway.loop, gateway.read("alpha", "f0", 0, 1024))
        assert got == payload[:1024]
        counters = gateway.counters()
        assert counters["hedges_fired"] >= 1
        assert counters["hedges_won"] >= 1  # 1s queue loses to the group decode

    def test_exactly_one_success_counted_per_read(self):
        gateway, _ = self._deep_queue_gateway()
        run(gateway.loop, gateway.read("alpha", "f0", 0, 1024))
        counters = gateway.counters()
        assert counters["reads_ok"] == 1
        assert counters["reads_failed"] == 0

    def test_loser_runs_to_completion_and_is_discarded(self):
        gateway, _ = self._deep_queue_gateway()
        # run_until_complete drains the sim, so the queued primary (the
        # loser) finishes after the response was already served.
        run(gateway.loop, gateway.read("alpha", "f0", 0, 1024))
        counters = gateway.counters()
        assert counters["hedge_losers_discarded"] == counters["hedges_fired"]

    def test_no_hedge_when_queue_is_shallow(self):
        gateway = make_gateway(hedge_threshold=0.005)
        put_file(gateway, CODES["galloper"])
        run(gateway.loop, gateway.read("alpha", "f0"))
        assert gateway.counters()["hedges_fired"] == 0

    def test_hedges_disabled_by_config(self):
        gateway = make_gateway(hedge_threshold=None)
        payload = put_file(gateway, CODES["galloper"])
        block, _row = gateway.dfs.stripe_holders("alpha/f0")[0]
        primary = gateway.dfs.file("alpha/f0").server_of(block)
        gateway._busy_until[primary] = gateway.loop.now + 1.0
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 1024)) == payload[:1024]
        assert gateway.counters()["hedges_fired"] == 0

    def test_byte_exact_under_gray_slowdown(self):
        # Client-level (same-server) hedges: a cluster-wide gray slowdown
        # pushes every read past the resilient client's hedge threshold;
        # responses stay byte-exact and each read counts exactly once.
        fault_model = FaultModel(
            GraySlowdown(extra_latency=0.08), seed=11
        )
        gateway = make_gateway(fault_model=fault_model)
        payload = put_file(gateway, CODES["galloper"])
        for _ in range(3):
            assert run(gateway.loop, gateway.read("alpha", "f0")) == payload
        counters = gateway.counters()
        assert counters["client_hedged_reads"] > 0
        assert counters["reads_ok"] == 3
        assert counters["reads_failed"] == 0


class TestRepairAsServing:
    def test_repair_rebuilds_and_relocates(self):
        gateway = make_gateway(tenant_limits={"repair": 2})
        payload = put_file(gateway, CODES["galloper"])
        ef = gateway.dfs.file("alpha/f0")
        victim = ef.server_of(0)
        lost = len(ef.blocks_on_server(victim))
        gateway.dfs.cluster.fail(victim)
        rebuilt = run(gateway.loop, gateway.repair_server(victim))
        assert rebuilt == lost
        assert gateway.counters()["repair_blocks"] == lost
        assert not gateway.dfs.file("alpha/f0").blocks_on_server(victim)
        # Recover the server (empty) — reads must come off the new homes.
        gateway.dfs.cluster.recover(victim)
        assert run(gateway.loop, gateway.read("alpha", "f0")) == payload

    def test_repair_competes_through_the_throttle(self):
        gateway = make_gateway(tenant_limits={"repair": 1})
        put_file(gateway, CODES["galloper"])
        victim = gateway.dfs.file("alpha/f0").server_of(0)
        gateway.dfs.cluster.fail(victim)
        run(gateway.loop, gateway.repair_server(victim))
        # One lease at a time: at least one repair admit had to wait
        # whenever more than one block was lost, and the per-tenant
        # histogram recorded the repair tenant.
        all_metrics = gateway.metrics.snapshot_all()
        assert "tenant_throttle_wait_s[repair]" in str(all_metrics)


# ----------------------------------------------------------------- workload


class TestWorkloadGenerator:
    def test_zipf_head_is_hottest(self):
        spec = WorkloadSpec(files_per_tenant=32, clients=2000, requests_per_client=1, seed=5)
        gen = WorkloadGenerator(spec)
        counts = np.bincount(gen._files, minlength=32)
        assert counts[0] == counts.max()
        assert counts[0] > 3 * counts[16:].max()

    def test_same_seed_same_plan(self):
        spec = WorkloadSpec(clients=100, seed=9)
        a, b = WorkloadGenerator(spec), WorkloadGenerator(spec)
        assert np.array_equal(a._files, b._files)
        assert np.array_equal(a._offsets, b._offsets)

    def test_flash_crowd_redirects_inside_window(self):
        crowd = FlashCrowd(start=1.0, end=2.0, key_index=7, fraction=1.0)
        spec = WorkloadSpec(files_per_tenant=16, clients=10, flash_crowd=crowd, seed=0)
        gen = WorkloadGenerator(spec)
        key, _ = gen._request(0, now=1.5)
        assert key == spec.key(7)
        outside, _ = gen._request(0, now=3.0)
        assert outside == spec.key(int(gen._files[0]))

    def test_diurnal_scale_breathes(self):
        spec = WorkloadSpec(diurnal_amplitude=0.5, diurnal_period=4.0)
        gen = WorkloadGenerator(spec)
        peak = gen._think_scale(1.0)  # sin peak -> load high -> think short
        trough = gen._think_scale(3.0)
        assert peak < 1.0 < trough

    def test_closed_loop_run_completes_all_clients(self):
        gateway = make_gateway()
        spec = WorkloadSpec(
            tenants=("alpha", "beta"), files_per_tenant=4, clients=40,
            requests_per_client=2, read_size=1024, file_size=4096,
            think_time=0.01, seed=3,
        )
        populate(gateway, spec, CODES["galloper"])
        result = WorkloadGenerator(spec).run(gateway)
        assert result.completed_clients == 40
        assert len(result.latencies) == 80
        assert result.failures == 0
        assert result.availability() == 1.0
        assert result.percentile(99) >= result.percentile(50) > 0

    def test_percentile_nearest_rank(self):
        from repro.serving import WorkloadResult

        res = WorkloadResult(latencies=[0.01 * i for i in range(1, 101)])
        assert res.percentile(50) == pytest.approx(0.50)
        assert res.percentile(99) == pytest.approx(0.99)
        assert res.percentile(100) == pytest.approx(1.00)
        assert WorkloadResult().percentile(99) == 0.0


class TestPopulatedCatalogSharesPlans:
    def test_one_code_object_and_one_plan_compile_for_the_catalog(self):
        gateway = make_gateway(servers=7, hedge_threshold=None)
        spec = WorkloadSpec(tenants=("alpha",), files_per_tenant=6, file_size=8192)
        populate(gateway, spec, CODES["galloper"])  # a fresh code object per file
        files = [gateway.dfs.file(name) for name in gateway.dfs.list_files()]
        assert len(files) == 6
        code = files[0].code
        assert all(ef.code is code for ef in files)

        # 7 servers, 7 blocks, round robin: block 0 of every file is on server 0.
        gateway.dfs.cluster.fail(0)
        before = code.plan_cache_info()
        for i in range(spec.files_per_tenant):
            data = run(gateway.loop, gateway.read("alpha", spec.key(i), 0, 256))
            assert data == file_payload("alpha", i, spec.file_size)[:256]
        after = code.plan_cache_info()
        assert gateway.counters()["degraded_reads"] == 6
        assert after["misses"] - before["misses"] == 1  # compiled for the first file only
        assert after["hits"] - before["hits"] == 5


# ------------------------------------------------------- frozen event order


def _frozen_run(chaos: bool) -> dict:
    """A seeded smoke-size gateway run, reduced to what must never move."""
    fault_model = None
    if chaos:
        fault_model = FaultModel(
            GraySlowdown(servers=frozenset({1}), extra_latency=0.08),
            LatencySpikes(rate=0.01, latency=0.05),
            seed=23,
        )
    cluster = Cluster.homogeneous(10)
    gateway = ServingGateway(
        DistributedFileSystem(cluster, fault_model=fault_model),
        config=GatewayConfig(
            cache_entries=16, hedge_threshold=0.005,
            max_inflight_per_tenant=1 << 30, tenant_limits={"repair": 4},
        ),
    )
    spec = WorkloadSpec(
        tenants=("alpha", "beta"), files_per_tenant=8, clients=100, requests_per_client=2,
        read_size=8192, file_size=65536, think_time=0.2, seed=11,
        flash_crowd=FlashCrowd(start=0.2, end=0.4, key_index=3, fraction=0.5) if chaos else None,
    )
    populate(gateway, spec, CODES["galloper"], placement=RandomPlacement(seed=7))
    loop = gateway.loop
    repair = {}
    if chaos:

        async def repair_task():
            repair["rebuilt"] = await gateway.repair_server(0)
            repair["done"] = loop.now

        def crash():
            cluster.fail(0)
            loop.create_task(repair_task(), name="repair")

        loop.sim.schedule(0.2, crash, name="crash")
    result = WorkloadGenerator(spec).run(gateway)
    latencies = ",".join(map(repr, result.latencies))
    return {
        "latencies": len(result.latencies),
        "latency_sum": sum(result.latencies),
        "latency_sha256": hashlib.sha256(latencies.encode()).hexdigest(),
        "failures": result.failures,
        "events": loop.sim.events_processed,
        "end": loop.now,
        "repair": repair,
        "counters": {name: value for name, value in gateway.counters().items() if value},
    }


class TestFrozenEventOrder:
    """Constants recorded at the commit before the event engine's heap
    entries, task resumption and lease table were rewritten for speed.

    Every sim-clock result is a function of the order events fire in, so a
    rewrite that keeps (time, seq) order reproduces these to the last bit:
    the latency list (by digest), the number of events, the counters.  A
    deliberate change to the gateway's behaviour re-records them; a change
    to the engine must not.
    """

    def test_clean_run(self):
        assert _frozen_run(chaos=False) == {
            "latencies": 200,
            "latency_sum": 0.3189805345511286,
            "latency_sha256": "4dbf4423d9eaccf98d2f7538049d5edb11aac4feb1354aee2c368f529e860ae0",
            "failures": 0,
            "events": 3553,
            "end": 1.5494610404403693,
            "repair": {},
            "counters": {
                "cache_hits": 85, "cache_misses": 800, "cache_admissions": 134,
                "cache_rejections": 664, "cache_evictions": 118, "coalesced_reads": 2,
                "reads_ok": 200, "slo_ok": 200,
            },
        }

    def test_crash_and_repair_tenant_under_faults(self):
        assert _frozen_run(chaos=True) == {
            "latencies": 200,
            "latency_sum": 7.112422912379847,
            "latency_sha256": "01dd7d2f6fd00a224160be3e49bc516bcc0c2043504f7baba8741b01a4ac495e",
            "failures": 0,
            "events": 5032,
            "end": 5.310071787608225,
            "repair": {"rebuilt": 12, "done": 2.2880652730589657},
            "counters": {
                "cache_hits": 73, "cache_misses": 812, "cache_admissions": 128,
                "cache_rejections": 666, "cache_evictions": 112, "coalesced_reads": 18,
                "hedges_fired": 94, "hedges_won": 91, "hedge_losers_discarded": 94,
                "client_hedged_reads": 65, "client_hedged_losers_discarded": 65,
                "degraded_reads": 114, "repair_blocks": 12, "reads_ok": 200, "slo_ok": 198,
            },
        }

