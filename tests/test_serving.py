"""Multi-tenant serving gateway: cache, coalescing, QoS, hedged reads.

Covers the serving package end to end on simulated time: the TinyLFU
cache's admission policy, request coalescing, tenant token-lease
throttling, the gateway request path (clean, cached, coalesced,
degraded, hedged), repair-as-serving-traffic, and the workload
generator's determinism.  Every payload assertion is byte-exact against
the deterministic :func:`file_payload` the workload uses.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.cluster.placement import RandomPlacement
from repro.cluster.topology import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.faults.model import FaultModel, GraySlowdown, LatencySpikes, TransientErrors
from repro.serving import (
    FlashCrowd,
    FrequencySketch,
    GatewayConfig,
    HotBlockCache,
    RequestCoalescer,
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
        assert "b" not in cache._entries and "c" in cache._entries
        # ...but an unseen d cannot displace warm a.
        assert cache.offer("d", "D") is False
        assert "a" in cache._entries and "d" not in cache._entries
        assert cache.metrics.total("serving_cache_evictions") == 1
        assert cache.metrics.total("serving_cache_rejections") == 1

    def test_resident_key_refreshes_in_place(self):
        cache = HotBlockCache(1, metrics=MetricsRegistry())
        cache.offer("k", "old")
        assert cache.offer("k", "new") is True
        assert cache.get("k") == "new"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            HotBlockCache(0)


# --------------------------------------------------------------- coalescing


class TestRequestCoalescer:
    def test_leader_then_followers(self):
        loop = SimLoop()
        co = RequestCoalescer(loop, metrics=MetricsRegistry())
        leader, fut = co.lease("s")
        assert leader and len(co._inflight) == 1
        follower, fut2 = co.lease("s")
        assert not follower and fut2 is fut
        co.complete("s", 42)
        assert fut.result() == 42
        assert not co._inflight
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


class TestGatewayReads:
    def test_serves_through_the_dfs_own_client_clock_and_monitor(self):
        faults = FaultModel(TransientErrors(rate=1.0, servers=frozenset({0})), seed=1)
        gateway = make_gateway(fault_model=faults)
        dfs = gateway.dfs
        assert gateway.client is dfs.client and dfs.client.health is dfs.health
        assert dfs.store.clock is dfs.clock and dfs.client.clock is dfs.clock
        payload = put_file(gateway, CODES["galloper"])
        assert dfs.file("alpha/f0").server_of(0) == 0
        # Every attempt on server 0 fails: the serving read falls back to the
        # repair group, and what it learnt is there for every user of the DFS.
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 100)) == payload[:100]
        assert dfs.health.is_open(0)
        assert dfs.health.rank(range(12))[-1] == 0

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
        gateway = make_gateway(cache_entries=1)
        payload = put_file(gateway, CODES["galloper"], size=2048)

        async def both():
            a = gateway.loop.create_task(gateway.read("alpha", "f0"))
            b = gateway.loop.create_task(gateway.read("alpha", "f0"))
            return await gateway.loop.gather(a, b)

        got = run(gateway.loop, both())
        assert got == [payload, payload]
        assert gateway.metrics.total("serving_coalesced_reads") > 0

    def test_an_extent_inside_one_block_is_one_disk_io(self):
        # 8 KiB over Galloper's 28 stripes: block 0 stores stripes 0-3 as its
        # rows 0-3, and an extent over all four is one range read of it.
        gateway = make_gateway()
        payload = put_file(gateway, CODES["galloper"])
        stripe = gateway.dfs.file("alpha/f0").stripe_size
        assert run(gateway.loop, gateway.read("alpha", "f0", 10, 3 * stripe)) == payload[10 : 10 + 3 * stripe]
        assert gateway.metrics.total("blocks_read") == 1
        assert gateway.metrics.total("serving_cache_misses") == 4  # cached per stripe all the same

    def test_extent_over_two_blocks_is_one_io_each(self):
        gateway = make_gateway()
        payload = put_file(gateway, CODES["galloper"])
        ef = gateway.dfs.file("alpha/f0")
        runs = list(ef.code.read_plan().runs_within(2, 7))
        assert [(nrows, fs0) for _, _, nrows, fs0 in runs] == [(2, 2), (3, 4)]
        lo, hi = 2 * ef.stripe_size, 7 * ef.stripe_size
        assert run(gateway.loop, gateway.read("alpha", "f0", lo, hi - lo)) == payload[lo:hi]
        reads = gateway.metrics.by_server("blocks_read")
        assert reads == {ef.server_of(block): 1 for block, *_ in runs}

    def test_partly_cached_run_fetches_only_the_rest(self):
        gateway = make_gateway()
        payload = put_file(gateway, CODES["galloper"])
        stripe = gateway.dfs.file("alpha/f0").stripe_size
        run(gateway.loop, gateway.read("alpha", "f0", stripe, stripe))  # stripe 1 alone
        assert gateway.metrics.total("blocks_read") == 1
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 4 * stripe)) == payload[: 4 * stripe]
        # Stripe 0 and stripes 2-3 flank the cached one: two sub-runs, two IOs.
        assert gateway.metrics.total("blocks_read") == 3
        assert gateway.metrics.total("serving_cache_hits") == 1

    def test_overlapping_extents_coalesce_per_stripe(self):
        gateway = make_gateway()
        payload = put_file(gateway, CODES["galloper"])
        stripe = gateway.dfs.file("alpha/f0").stripe_size

        async def both():
            a = gateway.loop.create_task(gateway.read("alpha", "f0", 0, 2 * stripe))
            b = gateway.loop.create_task(gateway.read("alpha", "f0", stripe, 2 * stripe))
            return await gateway.loop.gather(a, b)

        got = run(gateway.loop, both())
        assert got == [payload[: 2 * stripe], payload[stripe : 3 * stripe]]
        # The second request follows the first on stripe 1 and leads stripe 2.
        assert gateway.metrics.total("serving_coalesced_reads") == 1
        assert gateway.metrics.total("blocks_read") == 2

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
            "hedge_losers_discarded", "degraded_reads", "throttle_waits",
            "repair_blocks", "repair_replans", "repair_helper_blocks",
            "reads_ok", "reads_failed", "slo_ok", "unavailable",
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

    def _lost_holder(self):
        """A Galloper file whose block 0 (file stripes 0-3) sits on a dead server."""
        gateway = make_gateway()
        payload = put_file(gateway, CODES["galloper"])
        ef = gateway.dfs.file("alpha/f0")
        gateway.dfs.cluster.fail(ef.server_of(0))
        return gateway, payload, ef, ef.code.repair_plan(0)

    def test_degraded_read_takes_one_row_per_helper(self):
        gateway, payload, ef, plan = self._lost_holder()
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 100)) == payload[:100]
        # Stripe 0 is row 0 of block 0: one row from each of its two group
        # mates, where a whole-block hedge read seven.
        assert gateway.metrics.by_server("disk_bytes_read") == {
            ef.server_of(h): ef.stripe_size for h in plan.helpers
        }
        assert gateway.counters()["degraded_reads"] == 1

    def test_rot_in_a_helper_row_the_read_does_not_name_is_not_read(self):
        gateway, payload, ef, plan = self._lost_holder()
        helper, named = plan.helper_rows.rows[0][0]
        other = next(r for r in range(ef.code.N) if r != named)
        gateway.dfs.store.corrupt(ef.server_of(helper), ef.name, helper, offset=other * ef.stripe_size)
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 100)) == payload[:100]
        assert gateway.metrics.total("checksum_failures") == 0

    def test_corrupted_helper_row_never_reaches_the_client(self):
        gateway, payload, ef, plan = self._lost_holder()
        helper, named = plan.helper_rows.rows[0][0]
        gateway.dfs.store.corrupt(ef.server_of(helper), ef.name, helper, offset=named * ef.stripe_size + 5)
        planned = []
        plan_decode_blocks = gateway.dfs._plan_decode_blocks

        def record(*args):
            planned.append(plan_decode_blocks(*args))
            return planned[-1]

        gateway.dfs._plan_decode_blocks = record
        # The row's CRC fails on every retry, the group repair gives up on
        # that helper, and the stripe is decoded from verified blocks instead:
        # the retries opened the server's breaker in the monitor the decode
        # planner ranks by, so it does not pick that helper a second time.
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 100)) == payload[:100]
        assert gateway.metrics.total("checksum_failures") > 0
        assert gateway.dfs.health.is_open(ef.server_of(helper))
        assert len(planned) == 1 and helper not in planned[0]
        assert gateway.metrics.total("decode_replans") == 0
        assert gateway.metrics.total("breaker_fastfails") == 0
        assert gateway.metrics.total("blocks_read") == 10
        assert gateway.counters()["reads_ok"] == 1

    def test_dead_holder_read_routes_around_a_slow_group_mate(self):
        gateway, payload, ef, plan = self._lost_holder()
        slow = ef.server_of(plan.helpers[0])
        gateway._pipe(slow).free_at = gateway.loop.now + 1.0
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 100)) == payload[:100]
        # The group would have waited a second for that disk; a wider
        # helper set that skips it answers in milliseconds.
        assert gateway.loop.now < 0.1
        read_from = gateway.metrics.by_server("disk_bytes_read")
        assert slow not in read_from and len(read_from) > len(plan.helpers)
        assert gateway.counters()["degraded_reads"] == 1

    def test_dead_holder_read_keeps_the_group_when_nothing_is_slow(self):
        gateway, _, ef, plan = self._lost_holder()
        unreadable = gateway.dfs._unreadable_blocks(ef)
        assert gateway._fastest_plan(ef, plan, 0, 1, unreadable) is plan

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
        gateway._pipe(primary).free_at = gateway.loop.now + 1.0
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

    def test_hedge_over_a_corrupted_helper_row_loses_to_the_primary(self):
        gateway, payload = self._deep_queue_gateway()
        ef = gateway.dfs.file("alpha/f0")
        helper, named = ef.code.repair_plan(0).helper_rows.rows[0][0]
        gateway.dfs.store.corrupt(ef.server_of(helper), ef.name, helper, offset=named * ef.stripe_size)
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 100)) == payload[:100]
        counters = gateway.counters()
        # The hedge raced, failed its row's CRC, and the queued primary answered.
        assert counters["hedges_fired"] == 1 and counters["hedges_won"] == 0
        assert gateway.metrics.total("checksum_failures") > 0
        assert gateway.loop.now >= 1.0

    def test_hedge_does_not_shop_for_a_faster_plan(self):
        # The hedge costs and reads the group's plan only: with a group
        # mate slower than the primary there is no hedge, although a wider
        # helper set would beat both (hedges that shop feed themselves).
        gateway, payload = self._deep_queue_gateway()
        ef = gateway.dfs.file("alpha/f0")
        mate = ef.server_of(ef.code.repair_plan(0).helpers[0])
        gateway._pipe(mate).free_at = gateway.loop.now + 2.0
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 100)) == payload[:100]
        assert gateway.counters()["hedges_fired"] == 0
        assert gateway.loop.now >= 1.0

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
        gateway._pipe(primary).free_at = gateway.loop.now + 1.0
        assert run(gateway.loop, gateway.read("alpha", "f0", 0, 1024)) == payload[:1024]
        assert gateway.counters()["hedges_fired"] == 0

    def test_byte_exact_under_gray_slowdown(self, monkeypatch):
        # A cluster-wide gray slowdown, under the client's timeout, slows
        # every read alike: responses stay byte-exact, and each try reads
        # a block from the store once, drawing one fault decision.
        fault_model = FaultModel(
            GraySlowdown(extra_latency=0.08), seed=11
        )
        gateway = make_gateway(fault_model=fault_model)
        payload = put_file(gateway, CODES["galloper"])
        store = gateway.dfs.store
        real = store._range_reader
        reads = Counter()

        def counted(ranges, verify, into=None):
            read, plain = real(ranges, verify, into)

            def attempt(i):
                reads[ranges[i][2]] += 1
                return read(i)

            return attempt, plain

        monkeypatch.setattr(store, "_range_reader", counted)
        for _ in range(3):
            assert run(gateway.loop, gateway.read("alpha", "f0")) == payload
        counters = gateway.counters()
        # The first read misses the cache on every block; the others hit it.
        assert reads == {block: 1 for block in range(gateway.dfs.file("alpha/f0").code.n)}
        assert fault_model.decisions == sum(reads.values())
        assert gateway.metrics.total("retries") == 0
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

    @staticmethod
    def _lost_server(code_name, files=8, victim=0, **cfg):
        """``files`` files with block ``b`` on server ``b``, server ``victim`` dead."""
        gateway = make_gateway(**cfg)
        payloads = {
            f"f{i}": put_file(gateway, CODES[code_name], key=f"f{i}") for i in range(files)
        }
        gateway.dfs.cluster.fail(victim)
        return gateway, payloads

    @staticmethod
    def _check_reads(gateway, payloads):
        for key, payload in payloads.items():
            assert run(gateway.loop, gateway.read("alpha", key)) == payload

    @pytest.mark.parametrize("cap", [1, 3])
    def test_rebuilds_run_concurrently_up_to_the_repair_cap(self, cap):
        gateway, payloads = self._lost_server("galloper", tenant_limits={"repair": cap})
        held = []
        read_rows = gateway.client.read_rows

        def sampling_read(*args, **kwargs):
            held.append(gateway.throttle.inflight("repair"))
            return read_rows(*args, **kwargs)

        gateway.client.read_rows = sampling_read
        assert run(gateway.loop, gateway.repair_server(0)) == len(payloads)
        assert max(held) == cap
        assert gateway.counters()["throttle_waits"] > 0
        self._check_reads(gateway, payloads)

    @pytest.mark.parametrize("code_name", CODES, ids=CODES.keys())
    def test_rebuild_routes_around_a_slow_helper(self, code_name):
        gateway, payloads = self._lost_server(code_name, hedge_threshold=0.005)
        ef = gateway.dfs.file("alpha/f0")
        default = ef.code.repair_plan(0)
        slow = ef.server_of(default.helpers[0])  # a group mate; for RS one of the first k
        gateway._pipe(slow).free_at = gateway.loop.now + 1.0
        assert run(gateway.loop, gateway.repair_server(0)) == len(payloads)
        assert gateway.loop.now < 0.5
        assert slow not in gateway.metrics.by_server("disk_bytes_read")
        counters = gateway.counters()
        assert counters["repair_replans"] == len(payloads)
        # Reed-Solomon swaps one helper for another; the local codes pay
        # a k-helper decode for skipping a group mate.
        assert counters["repair_helper_blocks"] == len(payloads) * ef.code.k
        gateway.dfs.cluster.recover(0)  # empty: reads come off the new homes
        self._check_reads(gateway, payloads)

    def test_rebuild_goes_through_the_slow_helper_when_nothing_else_decodes(self):
        gateway, payloads = self._lost_server("rs", files=3, hedge_threshold=0.005)
        for server in (5, 6):  # with block 0: k = 4 blocks left, all of them needed
            gateway.dfs.cluster.fail(server)
        gateway._pipe(1).free_at = gateway.loop.now + 1.0
        assert run(gateway.loop, gateway.repair_server(0)) == len(payloads)
        assert gateway.loop.now >= 1.0
        assert gateway.metrics.by_server("disk_bytes_read")[1] > 0
        assert gateway.counters()["repair_replans"] == 0
        self._check_reads(gateway, payloads)

    @pytest.mark.parametrize("code_name", CODES, ids=CODES.keys())
    def test_clean_cluster_rebuild_reads_the_default_plan(self, code_name):
        gateway, payloads = self._lost_server(code_name, hedge_threshold=0.005)
        ef = gateway.dfs.file("alpha/f0")
        unreadable = gateway.dfs._unreadable_blocks(ef)
        default = ef.code.repair_plan(0, unreadable)
        assert gateway._fastest_plan(ef, default, 0, ef.code.N, unreadable) is default
        assert run(gateway.loop, gateway.repair_server(0)) == len(payloads)
        counters = gateway.counters()
        assert counters["repair_replans"] == 0
        assert counters["repair_helper_blocks"] == len(payloads) * len(default.helpers)
        assert gateway.metrics.by_server("blocks_read") == {
            ef.server_of(h): len(payloads) for h in default.helpers
        }

    def test_one_failed_rebuild_does_not_abandon_the_rest(self):
        gateway, payloads = self._lost_server("galloper", files=6, tenant_limits={"repair": 2})
        pick = gateway._replacement_server

        def no_target_for_f2(ef):
            if ef.name == "alpha/f2":
                raise ServingError("no live server to rebuild onto", file=ef.name, cause="no_target")
            return pick(ef)

        gateway._replacement_server = no_target_for_f2
        assert run(gateway.loop, gateway.repair_server(0)) == len(payloads) - 1
        assert gateway.counters()["repair_blocks"] == len(payloads) - 1
        assert gateway.metrics.total("serving_repair_failures") == 1
        assert gateway.throttle.inflight("repair") == 0
        assert gateway.dfs.file("alpha/f2").server_of(0) == 0
        assert gateway.dfs.file("alpha/f5").server_of(0) != 0

    def test_no_live_server_is_counted_not_raised(self):
        gateway, payloads = self._lost_server("galloper", files=3)
        for server in gateway.dfs.cluster.alive_ids():
            gateway.dfs.cluster.fail(server)
        assert run(gateway.loop, gateway.repair_server(0)) == 0
        assert gateway.metrics.total("serving_repair_failures") == len(payloads)

    def test_rebuilds_admitted_together_take_different_targets(self):
        gateway, payloads = self._lost_server("galloper", files=4, tenant_limits={"repair": 4})
        assert run(gateway.loop, gateway.repair_server(0)) == 4
        targets = [gateway.dfs.file(f"alpha/{key}").server_of(0) for key in payloads]
        # Servers 7-11 hold no block of these files and are all idle: four
        # rebuilds admitted in the same instant must not share a disk.
        assert len(set(targets)) == 4 and set(targets) <= {7, 8, 9, 10, 11}
        assert not any(pipe.pledged for pipe in gateway._pipes.values())

    def test_a_server_with_a_block_of_the_file_is_the_last_resort(self):
        gateway, _ = self._lost_server("galloper", files=2, servers=7)
        assert run(gateway.loop, gateway.repair_server(0)) == 2
        for key in ("f0", "f1"):  # six live servers, each already holding a block
            assert gateway.dfs.file(f"alpha/{key}").server_of(0) in range(1, 7)


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


GRAY_SERVER = GraySlowdown(servers=frozenset({1}), extra_latency=0.08)


def _frozen_run(
    chaos: bool, code: str = "galloper", faults=(GRAY_SERVER, LatencySpikes(rate=0.01, latency=0.05))
) -> dict:
    """A seeded smoke-size gateway run, reduced to what must never move."""
    fault_model = FaultModel(*faults, seed=23) if chaos and faults else None
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
    populate(gateway, spec, CODES[code], placement=RandomPlacement(seed=7))
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


class TestSameInstantReads:
    """A one-run read beside other requests at the instants its run starts
    and ends.  Galloper 8 KiB files: block ``b`` holds file stripes
    ``4b .. 4b + 3`` as its rows 0-3, each block on its own server."""

    @staticmethod
    def _clients(gateway, extents, probe=lambda: None):
        """Start one client per ``(name, first stripe, stripes)`` at 0; each
        notes its name, when its read ended and ``probe()`` then."""
        done = []

        async def client(name, first, count):
            stripe = gateway.dfs.file("alpha/f0").stripe_size
            await gateway.read("alpha", "f0", first * stripe, count * stripe)
            done.append((name, gateway.loop.now, probe()))

        for name, first, count in extents:
            gateway.loop.create_task(client(name, first, count))
        gateway.loop.run()
        return done

    def test_run_starting_while_another_requests_runs_are_queued(self):
        # "two" spans blocks 0 and 1 (two runs); "one" reads rows 2-3 of
        # block 1.  Both start at 0: the runs of "two" were queued first, so
        # they take block 1's disk first and "one" waits behind them.
        gateway = make_gateway()
        put_file(gateway, CODES["galloper"])
        done = self._clients(gateway, [("two", 2, 4), ("one", 6, 2)])
        assert [name for name, _, _ in done] == ["two", "one"]
        assert done[0][1] < done[1][1]
        assert gateway.metrics.total("blocks_read") == 3
        assert gateway.metrics.histogram("serving_disk_wait_s").max > 0

    def test_runs_ending_at_one_instant(self):
        # Two one-run reads of two rows on two idle disks end at one
        # instant; each request finishes after both runs published their
        # rows to the cache.
        gateway = make_gateway()
        put_file(gateway, CODES["galloper"])
        done = self._clients(
            gateway, [("a", 0, 2), ("b", 8, 2)], lambda: gateway.metrics.total("serving_cache_admissions")
        )
        assert [(name, admitted) for name, _, admitted in done] == [("a", 4), ("b", 4)]
        assert done[0][1] == done[1][1]


class TestFrozenEventOrder:
    """Every sim-clock result is a function of the order events fire in, so a
    rewrite that keeps (time, seq) order reproduces these to the last bit:
    the latency list (by digest), the number of events, the counters.  A
    deliberate change to the gateway's behaviour re-records them; a change
    to the engine must not.

    The Reed-Solomon and Pyramid cells were recorded at the commit before
    the gateway served rows instead of blocks, and that change did not move
    them: with ``N = 1`` a row *is* the block, so a run is one stripe and a
    helper row is the helper.  The Galloper cells were re-recorded by it,
    deliberately (8 KiB reads of 28-stripe files, so a request covers 4-5
    stripes in 1-2 blocks):

    * clean run: 3553 -> 2190 events and 798 -> 359 disk IOs for the same
      1.87 MB read, because a request now issues one task and one disk IO
      per *run* of consecutive rows in a block, not per stripe; with one
      ``request_overhead`` per IO instead of 2-4 queued on the same disk the
      latency sum falls 0.319 -> 0.118 s.  Cache and coalescer are still
      keyed per stripe (800 -> 803 misses: fetches complete earlier, so
      admission sees a slightly different order).
    * crash + repair under faults: 5032 -> 2818 events, 1122 -> 507 disk IOs,
      6.6 -> 2.8 MB read.  A hedge or degraded read now takes one row per
      helper where it took the helper's whole block (7 rows), so the
      foreground no longer queues behind its own hedges: 94 -> 31 hedges,
      114 -> 40 degraded reads, latency sum 7.11 -> 2.77 s, and the repair
      tenant, sharing those disks, finishes at 1.00 s instead of 2.29 s.

    The three crash-and-repair cells were re-recorded once more when
    whole-server repair became concurrent (four leases, as the config
    always said) and chose each block's helpers by predicted completion;
    the failure-free cells did not move.  The crash is at 0.2 s:

    ========  ====================  ===================  ==============
    cell      ``repair.done`` (s)   ``latency_sum`` (s)  ``events``
    ========  ====================  ===================  ==============
    RS        1.2764 -> 0.2088      2.5422 -> 0.5330     2125 -> 2098
    Pyramid   0.5949 -> 0.2066      0.2115 -> 0.3709     2088 -> 2055
    Galloper  0.9985 -> 0.2553      2.7660 -> 0.4425     2818 -> 2743
    ========  ====================  ===================  ==============

    Repair no longer queues behind the gray server (1, 1 and 5 of the 12
    rebuilds re-planned around it: 26, 26 and 48 helper blocks read where
    the default plans read 26, 26 and 48 — RS swaps a helper, the local
    codes had one group-local rebuild turn into a ``k``-helper one and one
    ``k``-helper rebuild lose nothing), and a foreground read whose holder
    is dead skips it too, which is where RS's and Galloper's latency sums
    went.  Pyramid's rose: its twelve rebuilds now land inside 7 ms instead
    of being spread over 0.4 s, and the requests of that instant queue
    behind four concurrent helper reads instead of one.

    ``events`` alone was re-recorded when the engine stopped dispatching
    the hops that cannot change the order: a sleep timer or a task's last
    step steps the task it wakes in its own event when nothing else is
    due, and a read with one run runs it in the read's own task.  Every
    digest, sum, counter, end time and repair result stayed as it was:

    ========  ==============  ==============
    cell      clean           crash + repair
    ========  ==============  ==============
    RS        1744 -> 977     2098 -> 1286
    Pyramid   1744 -> 977     2055 -> 1230
    Galloper  2190 -> 1302    2743 -> 1672
    ========  ==============  ==============

    The three crash-and-repair cells were re-recorded when the resilient
    client stopped re-reading a slow read's own server.  Each read of the
    gray server (0.08 s over, past the old 0.05 s client hedge threshold)
    drew a second fault decision for a re-read that never won (11, 15 and
    27 per cell, the deleted ``client_hedged_reads`` and
    ``client_hedged_losers_discarded`` keys).  Without those draws the
    seeded fault stream shifts, and each cell's 1 % latency spikes
    (0.05 s) land on other reads; every moved field follows from where:

    ========  ================  ============  ==============================
    cell      ``latency_sum``   ``events``    spike and what it moved
    ========  ================  ============  ==============================
    RS        0.5330 -> 0.3853  1286 -> 1341  server 8 at 0.249 s -> server
                                              2 at 0.283 s: gateway hedges
                                              (all won) 6 -> 9, degraded
                                              reads 7 -> 10, coalesced 2 ->
                                              4, cache hits / misses /
                                              admissions / rejections /
                                              evictions 148 / 134 / 37 / 95
                                              / 21 -> 150 / 132 / 36 / 92 /
                                              20
    Pyramid   0.3709 -> 0.4153  1230 -> 1257  server 6 at 0.345 s -> server
                                              4 at 0.417 s: hedges 12 ->
                                              15, degraded reads 12 -> 15,
                                              coalesced 2 -> 3, cache hits
                                              / misses / admissions /
                                              evictions 148 / 134 / 36 / 20
                                              -> 146 / 136 / 37 / 21
    Galloper  0.4425 -> 0.4534  1672 -> 1646  servers 5 at 0.204 s (inside
                                              the repair window) and 6 at
                                              0.424 s -> servers 2 at 0.479
                                              s and 1 at 0.749 s:
                                              ``repair.done`` 0.2553 ->
                                              0.2066, ``end`` 2.1992 ->
                                              2.2492, hedges and degraded
                                              reads 32 -> 28
    ========  ================  ============  ==============================

    RS's and Pyramid's ``end`` and repair results, and Galloper's cache
    counters, did not move.
    """

    def test_rs_clean_run(self):
        assert _frozen_run(chaos=False, code="rs") == {
            "latencies": 200,
            "latency_sum": 0.07960916310913893,
            "latency_sha256": "f987ccaecea5b8aa80c17d3582cca562722d928a348d339a7080fe7a472cd2e2",
            "failures": 0,
            "events": 977,
            "end": 1.5476395873458872,
            "repair": {},
            "counters": {
                "cache_hits": 151, "cache_misses": 131, "cache_admissions": 38,
                "cache_rejections": 91, "cache_evictions": 22, "coalesced_reads": 2,
                "reads_ok": 200, "slo_ok": 200,
            },
        }

    def test_rs_crash_and_repair_tenant_under_faults(self):
        assert _frozen_run(chaos=True, code="rs") == {
            "latencies": 200,
            "latency_sum": 0.3852817699728165,
            "latency_sha256": "1c393ca647365749f9b8e87a4a1073d8c2b5451425c86d82a740496c8cbf4516",
            "failures": 0,
            "events": 1341,
            "end": 1.627639587345887,
            "repair": {"rebuilt": 12, "done": 0.20878799928517394},
            "counters": {
                "cache_hits": 150, "cache_misses": 132, "cache_admissions": 36,
                "cache_rejections": 92, "cache_evictions": 20, "coalesced_reads": 4,
                "hedges_fired": 9, "hedges_won": 9, "hedge_losers_discarded": 9,
                "degraded_reads": 10, "throttle_waits": 7, "repair_blocks": 12,
                "repair_replans": 5, "repair_helper_blocks": 48, "reads_ok": 200, "slo_ok": 200,
            },
        }

    def test_pyramid_clean_run(self):
        assert _frozen_run(chaos=False, code="pyramid") == {
            "latencies": 200,
            "latency_sum": 0.07960916310913893,
            "latency_sha256": "f987ccaecea5b8aa80c17d3582cca562722d928a348d339a7080fe7a472cd2e2",
            "failures": 0,
            "events": 977,
            "end": 1.5476395873458872,
            "repair": {},
            "counters": {
                "cache_hits": 151, "cache_misses": 131, "cache_admissions": 38,
                "cache_rejections": 91, "cache_evictions": 22, "coalesced_reads": 2,
                "reads_ok": 200, "slo_ok": 200,
            },
        }

    def test_pyramid_crash_and_repair_tenant_under_faults(self):
        assert _frozen_run(chaos=True, code="pyramid") == {
            "latencies": 200,
            "latency_sum": 0.4153039816598205,
            "latency_sha256": "5ec7ae5de71fbd6e82140aaa34ae12508b660c2d70170f4b3f741fbdf8031573",
            "failures": 0,
            "events": 1257,
            "end": 1.627639587345887,
            "repair": {"rebuilt": 12, "done": 0.20660156249999997},
            "counters": {
                "cache_hits": 146, "cache_misses": 136, "cache_admissions": 37,
                "cache_rejections": 96, "cache_evictions": 21, "coalesced_reads": 3,
                "hedges_fired": 15, "hedges_won": 15, "hedge_losers_discarded": 15,
                "degraded_reads": 15, "throttle_waits": 7, "repair_blocks": 12,
                "repair_replans": 1, "repair_helper_blocks": 26, "reads_ok": 200, "slo_ok": 200,
            },
        }

    def test_clean_run(self):
        assert _frozen_run(chaos=False) == {
            "latencies": 200,
            "latency_sum": 0.11826725540606475,
            "latency_sha256": "974bb3654bf09b8f0e9825852552bb1060dde9685eae0acdc329884020786c71",
            "failures": 0,
            "events": 1302,
            "end": 1.5474610404403695,
            "repair": {},
            "counters": {
                "cache_hits": 82, "cache_misses": 803, "cache_admissions": 133,
                "cache_rejections": 667, "cache_evictions": 117, "coalesced_reads": 3,
                "reads_ok": 200, "slo_ok": 200,
            },
        }

    def test_crash_and_repair_tenant_under_faults(self):
        assert _frozen_run(chaos=True) == {
            "latencies": 200,
            "latency_sum": 0.45341785261674855,
            "latency_sha256": "8807b334f54533f3f05521c7a20923d582e0ea1f3960801b8f0c032915fbb146",
            "failures": 0,
            "events": 1646,
            "end": 2.249214579356266,
            "repair": {"rebuilt": 12, "done": 0.20660185575485226},
            "counters": {
                "cache_hits": 74, "cache_misses": 811, "cache_admissions": 110,
                "cache_rejections": 691, "cache_evictions": 94, "coalesced_reads": 10,
                "hedges_fired": 28, "hedges_won": 28, "hedge_losers_discarded": 28,
                "degraded_reads": 28, "throttle_waits": 7, "repair_blocks": 12,
                "repair_replans": 1, "repair_helper_blocks": 26, "reads_ok": 200, "slo_ok": 200,
            },
        }


class TestRepairKeepsPaceWithAGrayServer:
    """The guard against a silent return to serial or queue-blind repair:
    one slow disk in the cluster must not set the pace of a whole-server
    rebuild (serial and blind, the same run took 15x the clean one)."""

    @pytest.mark.parametrize("code", CODES, ids=CODES.keys())
    def test_repair_with_a_gray_server_finishes_within_3x_of_clean(self, code):
        crash_at = 0.2
        clean = _frozen_run(chaos=True, code=code, faults=())["repair"]
        gray = _frozen_run(chaos=True, code=code, faults=(GRAY_SERVER,))["repair"]
        assert clean["rebuilt"] == gray["rebuilt"] == 12
        assert gray["done"] - crash_at <= 3 * (clean["done"] - crash_at)
