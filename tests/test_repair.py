"""Tests for the repair pipeline."""

import random

import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode, ReplicationCode
from repro.core import GalloperCode
from repro.storage import DistributedFileSystem, FileSystemError, RepairManager
from repro.storage.metrics import MetricsRegistry
from repro.storage.repair import RepairAdmissionController
from tests.conftest import max_live_leases, payload_bytes


@pytest.fixture
def setup():
    cluster = Cluster.homogeneous(12)
    dfs = DistributedFileSystem(cluster)
    rm = RepairManager(dfs)
    return cluster, dfs, rm


class TestBlockRepair:
    def test_repair_restores_readability(self, setup):
        cluster, dfs, rm = setup
        payload = payload_bytes(14_000, seed=1)
        ef = dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
        victim = ef.server_of(1)
        cluster.fail(victim)
        report = rm.repair_block("f", 1)
        assert report.target_server != victim
        assert ef.placement[1] == report.target_server
        cluster.recover(victim)
        dfs.store.drop_server(victim)
        assert dfs.read_file("f") == payload

    def test_local_repair_reads_two_blocks(self, setup):
        cluster, dfs, rm = setup
        ef = dfs.write_file("f", payload_bytes(14_000, seed=2), code=GalloperCode(4, 2, 1))
        block_bytes = ef.block_size
        cluster.fail(ef.server_of(0))
        report = rm.repair_block("f", 0)
        assert len(report.helpers) == 2
        assert report.bytes_read == 2 * block_bytes

    def test_rs_repair_reads_k_blocks(self, setup):
        cluster, dfs, rm = setup
        ef = dfs.write_file("f", payload_bytes(8_000, seed=3), code=ReedSolomonCode(4, 2))
        cluster.fail(ef.server_of(0))
        report = rm.repair_block("f", 0)
        assert len(report.helpers) == 4
        assert report.bytes_read == 4 * ef.block_size

    def test_replication_repair_reads_one(self):
        cluster = Cluster.homogeneous(14)  # 12 replicas + spares
        dfs = DistributedFileSystem(cluster)
        rm = RepairManager(dfs)
        ef = dfs.write_file("f", payload_bytes(4_000, seed=4), code=ReplicationCode(4, 3))
        cluster.fail(ef.server_of(0))
        report = rm.repair_block("f", 0)
        assert len(report.helpers) == 1

    def test_repairing_healthy_block_rejected(self, setup):
        _, dfs, rm = setup
        dfs.write_file("f", payload_bytes(4_000, seed=5), code=ReedSolomonCode(4, 2))
        with pytest.raises(FileSystemError):
            rm.repair_block("f", 0)

    def test_repair_avoids_servers_already_hosting(self, setup):
        cluster, dfs, rm = setup
        ef = dfs.write_file("f", payload_bytes(14_000, seed=6), code=PyramidCode(4, 2, 1))
        used_before = set(ef.placement.values())
        cluster.fail(ef.server_of(3))
        report = rm.repair_block("f", 3)
        assert report.target_server not in used_before - {ef.server_of(3)}

    def test_an_explicit_target_keeps_one_block_per_server(self):
        """A target that is unknown, down, already holds a block of the
        file or is named twice is refused before any helper is read: no
        counter, clock or placement moves, and a good target still works."""
        cluster = Cluster.homogeneous(10)
        dfs = DistributedFileSystem(cluster)
        rm = RepairManager(dfs)
        payload = payload_bytes(14_000, seed=13)
        ef = dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
        cluster.fail(ef.server_of(0))
        cluster.fail(ef.server_of(1))
        spares = sorted(set(cluster.servers) - set(ef.placement.values()))
        cluster.fail(spares[0])
        placement, counters, now = dict(ef.placement), dfs.metrics.snapshot(), dfs.clock.now
        bad = {
            "holds block 2": [("f", 0, ef.server_of(2))],
            "down": [("f", 0, spares[0])],
            "unknown": [("f", 0, 99)],
            "named twice": [("f", 0, spares[1]), ("f", 1, spares[1])],
        }
        for why, targets in bad.items():
            with pytest.raises(FileSystemError) as err:
                rm.repair_blocks_bulk(targets)
            assert err.value.cause == "no_target", why
            assert (ef.placement, dfs.metrics.snapshot(), dfs.clock.now) == (placement, counters, now), why
        [report] = rm.repair_blocks_bulk([("f", 0, spares[1])])
        assert report.target_server == spares[1] == ef.placement[0]
        assert len(set(ef.placement.values())) == len(ef.placement)
        assert dfs.read_file("f") == payload

    def test_a_block_named_twice_is_refused_before_any_read(self, setup):
        """Rebuilt twice, a block would land on two servers and leave one
        copy orphaned: a repeated ``(file, block)`` is refused up front."""
        cluster, dfs, rm = setup
        ef = dfs.write_file("f", payload_bytes(7_000, seed=13), code=GalloperCode(4, 2, 1))
        cluster.fail(ef.server_of(0))
        before = dfs.metrics.snapshot()
        with pytest.raises(FileSystemError) as exc:
            rm.repair_blocks_bulk([("f", 0), ("f", 0)])
        assert exc.value.cause == "repeated"
        assert dfs.metrics.snapshot() == before  # nothing read, nothing written
        (report,) = rm.repair_blocks_bulk([("f", 0)])
        assert [s for s in cluster.alive_ids() if dfs.store.holds(s, "f", 0)] == [report.target_server]

    @pytest.mark.parametrize("rate", [1.0, 0.5], ids=["always", "half the time"])
    def test_corrupting_helper_never_reaches_a_rebuilt_block(self, setup, rate):
        """The rotated baseline reads its helpers fractionally; such a read
        is verified like any other, so a helper that returns altered bytes
        is retried or re-planned around — never folded into the repair."""
        import numpy as np

        from repro.codes import RotatedPyramidCode
        from repro.faults import FaultModel, SilentCorruption

        cluster, dfs, rm = setup
        code = RotatedPyramidCode(4, 2, 1)
        ef = dfs.write_file("f", payload_bytes(28_000, seed=13), code=code)
        plan = code.repair_plan(0, {0})
        assert min(plan.read_fractions.values()) < 1.0
        truth = dfs.store.get(ef.server_of(0), "f", 0).copy()
        liar = ef.server_of(plan.helpers[0])
        cluster.fail(ef.server_of(0))
        dfs.store.install_faults(
            FaultModel(SilentCorruption(rate=rate, servers=frozenset({liar})), seed=3)
        )
        report = rm.repair_block("f", 0)
        dfs.store.install_faults(None)
        assert np.array_equal(dfs.store.get(report.target_server, "f", 0), truth)
        assert dfs.metrics.total("corrupted_returns") >= 1
        assert dfs.metrics.total("checksum_failures") == dfs.metrics.total("corrupted_returns")
        assert dfs.metrics.total("retries") + dfs.metrics.total("repair_replans") >= 1

    def test_repair_time_is_the_clock_advance(self, setup):
        """A repair takes the DFS clock forward by its helper reads'
        service times: the bytes each helper server gave, at its disk's
        bandwidth."""
        cluster, dfs, rm = setup
        ef = dfs.write_file("f", payload_bytes(14_000, seed=7), code=GalloperCode(4, 2, 1))
        cluster.fail(ef.server_of(2))
        before = dfs.clock.now
        report = rm.repair_block("f", 2)
        read_time = sum(
            nbytes / cluster.server(s).disk_bandwidth
            for s, nbytes in report.bytes_read_by_server.items()
        )
        assert read_time > 0
        assert dfs.clock.now - before == pytest.approx(read_time)


class TestServerRepair:
    def test_repair_server_covers_all_files(self, setup):
        cluster, dfs, rm = setup
        p1 = payload_bytes(14_000, seed=8)
        p2 = payload_bytes(7_000, seed=9)
        dfs.write_file("a", p1, code=GalloperCode(4, 2, 1))
        dfs.write_file("b", p2, code=GalloperCode(4, 2, 1))
        cluster.fail(0)
        report = rm.repair_server(0)
        assert report.blocks_rebuilt == 2
        cluster.recover(0)
        dfs.store.drop_server(0)
        assert dfs.read_file("a") == p1
        assert dfs.read_file("b") == p2

    def test_repair_all_sweep(self, setup):
        cluster, dfs, rm = setup
        payload = payload_bytes(14_000, seed=10)
        ef = dfs.write_file("a", payload, code=PyramidCode(4, 2, 1))
        cluster.fail(ef.server_of(0))
        cluster.fail(ef.server_of(5))
        reports = rm.repair_all()
        assert {r.block for r in reports} == {0, 5}

    def test_double_failure_in_group_uses_fallback(self, setup):
        """Both blocks of a group lost: local repair impossible, decode path
        must kick in and still produce correct blocks."""
        cluster, dfs, rm = setup
        payload = payload_bytes(14_000, seed=11)
        ef = dfs.write_file("a", payload, code=GalloperCode(4, 2, 1))
        cluster.fail(ef.server_of(0))
        cluster.fail(ef.server_of(1))
        reports = rm.repair_all()
        assert len(reports) == 2
        # First repair cannot be group-local (its peer is dead too).
        assert len(reports[0].helpers) >= 4
        assert dfs.read_file("a") == payload

    def test_no_spare_server(self):
        cluster = Cluster.homogeneous(7)  # exactly n servers, no spare
        dfs = DistributedFileSystem(cluster)
        rm = RepairManager(dfs)
        ef = dfs.write_file("f", payload_bytes(7_000, seed=12), code=GalloperCode(4, 2, 1))
        cluster.fail(ef.server_of(0))
        with pytest.raises(FileSystemError):
            rm.repair_block("f", 0)


class TestPlanCacheMetrics:
    def test_repeated_same_pattern_repairs_hit_plan_cache(self, setup):
        """A repair storm re-failing the same block reuses the compiled
        plan; the filesystem metric surfaces the cache hits."""
        cluster, dfs, rm = setup
        ef = dfs.write_file("f", payload_bytes(14_000, seed=21), code=GalloperCode(4, 2, 1))
        assert dfs.metrics.total("plan_cache_hits") == 0
        for round_no in range(3):
            victim = ef.server_of(0)
            cluster.fail(victim)
            rm.repair_block("f", 0)
            cluster.recover(victim)
        # The first repair compiles the plan once — while sizing its helper
        # reads — and every reconstruct, the first included, then hits it.
        assert dfs.metrics.total("plan_cache_hits") == 3
        assert ef.code.plan_cache_info()["misses"] == 1


class TestRepairAdmission:
    def _controller(self, cap=2):
        metrics = MetricsRegistry()
        return metrics, RepairAdmissionController(cap, metrics=metrics)

    def test_under_the_cap_grants_at_once(self):
        metrics, admission = self._controller()
        assert admission.acquire(10.0, {1: 5.0, 2: 3.0}) == 10.0
        assert admission.acquire(10.0, {1: 1.0}) == 10.0
        assert admission.inflight(1) == 2 and admission.inflight(2) == 1
        assert admission.waits == 0 and metrics.total("repairs_throttled") == 0
        assert metrics.histogram("repair_wait_s").max == 0.0

    def test_cap_binds_and_the_grant_is_the_earliest_expiry(self):
        metrics, admission = self._controller()
        admission.acquire(10.0, {1: 5.0})  # until 15
        admission.acquire(10.0, {1: 2.0})  # until 12
        assert admission.acquire(10.0, {1: 1.0}) == 12.0  # granted when the lease that ends first does
        # At the request instant the table holds the 15, the 12 and the 12-13
        # granted ahead: three counted, never more than two live at once.
        assert admission.inflight(1) == 3
        assert admission.waits == 1 and metrics.total("repairs_throttled") == 1
        wait, inflight = metrics.histogram("repair_wait_s"), metrics.histogram("repair_inflight")
        assert (wait.count, wait.max) == (3, 2.0)
        assert (inflight.count, inflight.max) == (3, 2.0)  # depth seen on arrival

    def test_several_servers_wait_for_the_latest_of_their_earliest_free_instants(self):
        metrics, admission = self._controller(cap=1)
        admission.acquire(0.0, {1: 4.0, 2: 7.0, 3: 1.0})
        assert admission.acquire(2.0, {1: 1.0, 2: 1.0, 3: 1.0}) == 7.0
        assert metrics.total("repairs_throttled") == 1  # one throttled repair, two busy servers
        assert metrics.histogram("repair_wait_s").max == 5.0
        # The next request may come before the last grant.
        assert admission.acquire(3.0, {4: 1.0}) == 3.0
        assert admission.acquire(3.0, {3: 1.0}) == 8.0  # behind the lease granted at 7

    def test_a_request_before_an_earlier_grant_sees_the_leases_it_raced_past(self):
        metrics, admission = self._controller(cap=2)
        admission.acquire(0.0, {1: 10.0})
        admission.acquire(0.0, {1: 10.0})
        assert admission.acquire(0.0, {1: 1.0}) == 10.0  # both tokens held until 10
        # At 2 the two leases ending at 10 are still live: granting now
        # would put three on server 1.
        assert admission.acquire(2.0, {1: 1.0}) == 10.0
        assert admission.inflight(1) == 4

    def test_request_instants_never_decrease(self):
        metrics, admission = self._controller()
        admission.acquire(5.0, {1: 1.0})
        assert admission.acquire(5.0, {1: 1.0}) == 5.0  # the same instant again is fine
        with pytest.raises(ValueError, match="precedes"):
            admission.acquire(4.0, {1: 1.0})

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_live_leases_never_exceed_the_cap(self, cap):
        """Replay every grant: at no grant instant does any server hold
        more than ``cap`` leases whose interval covers it."""
        rng = random.Random(cap)
        _, admission = self._controller(cap)
        intervals: dict[int, list[tuple[float, float]]] = {}
        now = 0.0
        for _ in range(400):
            now += rng.expovariate(4.0)
            durations = {s: rng.uniform(0.1, 3.0) for s in rng.sample(range(6), rng.randint(1, 4))}
            grant = admission.acquire(now, durations)
            assert grant >= now
            for s, d in durations.items():
                intervals.setdefault(s, []).append((grant, grant + d))
        assert max_live_leases(intervals) == cap


def _accounting_code(name, gf):
    from repro.codes import RotatedPyramidCode

    return {
        "rs": lambda: ReedSolomonCode(6, 4, gf=gf),
        "pyramid": lambda: PyramidCode(4, 2, 1, gf=gf),
        "galloper": lambda: GalloperCode(4, 2, 1, gf=gf),
        "galloper-lp": lambda: GalloperCode(
            4, 2, 1, performances=[1.0, 0.4, 1.0, 0.4, 1.0, 1.0, 0.4], gf=gf
        ),
        "rotated": lambda: RotatedPyramidCode(4, 2, 1, gf=gf),
    }[name]()


def on_range_read(dfs, monkeypatch, hook):
    """Call ``hook((server, file, block, row0, nrows), rows)`` on every row
    range the store hands back — through ``timed_read_rows``, a whole-block
    ``timed_get`` or a client batch alike, each of which binds its reads in
    ``_range_reader``: as
    an attempt ``read(i)``, or as a plain range's ``plain[i]``, which the
    client looks at only to return those rows."""
    real = dfs.store._range_reader

    class Handed(list):
        def __init__(self, plain, ranges):
            super().__init__(plain)
            self.ranges = ranges

        def __getitem__(self, i):
            booked = super().__getitem__(i)
            if booked is not None:
                hook(self.ranges[i], booked[0])
            return booked

    def binding(ranges, verify):
        read, plain = real(ranges, verify)

        def logged(i):
            data, latency = read(i)
            hook(ranges[i], data)
            return data, latency

        return logged, plain if plain is None else Handed(plain, ranges)

    monkeypatch.setattr(dfs.store, "_range_reader", binding)


class TestRepairAccounting:
    """What a repair reports reading is what the store handed back."""

    @pytest.mark.parametrize("field", ["gf256", "gf65536"])
    @pytest.mark.parametrize("name", ["rs", "pyramid", "galloper", "galloper-lp", "rotated"])
    def test_report_plan_counter_and_returned_bytes_agree(self, name, field, monkeypatch):
        from repro.gf import GF256, GF65536

        code = _accounting_code(name, GF256 if field == "gf256" else GF65536)
        cluster = Cluster.homogeneous(12)
        dfs = DistributedFileSystem(cluster)
        rm = RepairManager(dfs)
        payload = payload_bytes(28_000, seed=21)
        ef = dfs.write_file("f", payload, code=code)
        block_bytes = ef.block_size * code.gf.dtype.itemsize

        returned = []
        on_range_read(dfs, monkeypatch, lambda target, data: returned.append(data.nbytes))

        for block in range(code.n):
            victim = ef.server_of(block)
            cluster.fail(victim)
            plan = code.repair_plan(block, {block})
            before = dfs.metrics.total("disk_bytes_read")
            del returned[:]
            report = rm.repair_block("f", block)
            assert report.helpers == plan.helpers
            assert (
                report.bytes_read
                == sum(report.bytes_read_by_server.values())
                == dfs.metrics.total("disk_bytes_read") - before
                == plan.bytes_read(block_bytes)
                == sum(returned)
            ), (name, field, block)
            cluster.recover(victim)
            dfs.store.drop_server(victim)
        assert dfs.read_file("f") == payload
        if name == "rotated":  # the one code whose plans name helpers in part
            assert min(code.repair_plan(0, {0}).read_fractions.values()) < 1.0


class TestPartialHelperReads:
    """A plan that names some rows of a helper reads those rows and no others."""

    def _lose_block_0(self):
        import numpy as np

        from repro.codes import RotatedPyramidCode

        cluster = Cluster.homogeneous(12)
        dfs = DistributedFileSystem(cluster)
        code = RotatedPyramidCode(4, 2, 1)
        ef = dfs.write_file("f", payload_bytes(28_000, seed=17), code=code)
        truth = np.array(dfs.store.get(ef.server_of(0), "f", 0))
        reads = code.repair_plan(0, {0}).helper_rows.reads(0, code.N)
        helper = next(h for h, _, nrows in reads if nrows < code.N)
        named = {r for h, row0, nrows in reads if h == helper for r in range(row0, row0 + nrows)}
        assert 0 < len(named) < code.N
        cluster.fail(ef.server_of(0))
        return dfs, ef, truth, helper, named

    def _rows_read(self, dfs, monkeypatch, server):
        rows = set()

        def logged(target, data):
            server_id, _, _, start, count = target
            if server_id == server:
                rows.update(range(start, start + count))

        on_range_read(dfs, monkeypatch, logged)
        return rows

    def test_rot_in_a_row_the_plan_does_not_name_is_never_read(self, monkeypatch):
        import numpy as np

        dfs, ef, truth, helper, named = self._lose_block_0()
        server, row_symbols = ef.server_of(helper), truth.shape[1]
        spare = min(set(range(ef.code.N)) - named)
        dfs.store.corrupt(server, "f", helper, offset=spare * row_symbols + 3)
        assert not dfs.store.verify(server, "f", helper)
        rows = self._rows_read(dfs, monkeypatch, server)
        whole_block_reads = dfs.metrics.by_server("blocks_read").get(server, 0)
        report = RepairManager(dfs).repair_block("f", 0)
        assert np.array_equal(dfs.store.get(report.target_server, "f", 0), truth)
        assert rows == named
        assert dfs.metrics.total("checksum_failures") == 0
        assert dfs.metrics.total("retries") == dfs.metrics.total("repair_replans") == 0
        assert helper in report.helpers
        assert dfs.metrics.by_server("blocks_read")[server] - whole_block_reads == len(
            [r for r in named if r - 1 not in named]
        )  # one read per run of named rows

    def test_rot_in_a_named_row_is_caught_and_planned_around(self):
        import numpy as np

        dfs, ef, truth, helper, named = self._lose_block_0()
        server, row_symbols = ef.server_of(helper), truth.shape[1]
        dfs.store.corrupt(server, "f", helper, offset=min(named) * row_symbols + 3)
        report = RepairManager(dfs).repair_block("f", 0)
        assert np.array_equal(dfs.store.get(report.target_server, "f", 0), truth)
        assert dfs.metrics.total("checksum_failures") >= 1
        assert dfs.metrics.total("retries") >= 1  # the rot is on disk: retries cannot clear it ...
        assert dfs.metrics.total("repair_replans") >= 1  # ... so the repair goes round it
        assert helper not in report.helpers
