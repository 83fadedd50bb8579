"""Tests for the repair pipeline."""

import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode, ReplicationCode
from repro.core import GalloperCode
from repro.faults import VirtualClock
from repro.storage import DistributedFileSystem, FileSystemError, RepairManager
from repro.storage.metrics import MetricsRegistry
from repro.storage.repair import RepairAdmissionController
from tests.conftest import payload_bytes


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

    def test_estimated_time_positive(self, setup):
        cluster, dfs, rm = setup
        ef = dfs.write_file("f", payload_bytes(14_000, seed=7), code=GalloperCode(4, 2, 1))
        cluster.fail(ef.server_of(2))
        assert rm.repair_block("f", 2).estimated_time > 0


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
        clock, metrics = VirtualClock(), MetricsRegistry()
        return clock, metrics, RepairAdmissionController(clock, cap, metrics=metrics)

    def test_under_the_cap_grants_at_once(self):
        clock, metrics, admission = self._controller()
        clock.pin(10.0)
        assert admission.acquire({1: 5.0, 2: 3.0}) == 10.0
        assert admission.acquire({1: 1.0}) == 10.0
        assert admission.inflight(1) == 2 and admission.inflight(2) == 1
        assert admission.waits == 0 and metrics.total("repairs_throttled") == 0
        assert metrics.histogram("repair_wait_s").max == 0.0

    def test_cap_binds_and_the_grant_is_the_earliest_expiry(self):
        clock, metrics, admission = self._controller()
        clock.pin(10.0)
        admission.acquire({1: 5.0})  # until 15
        admission.acquire({1: 2.0})  # until 12
        assert admission.acquire({1: 1.0}) == 12.0  # waits for the lease that ends first
        assert clock.now == 12.0
        assert admission.inflight(1) == 2  # the 15 and the new 13
        assert admission.waits == 1 and metrics.total("repairs_throttled") == 1
        wait, inflight = metrics.histogram("repair_wait_s"), metrics.histogram("repair_inflight")
        assert (wait.count, wait.max) == (3, 2.0)
        assert (inflight.count, inflight.max) == (3, 2.0)  # depth seen on arrival

    def test_several_servers_wait_for_the_latest_of_their_earliest_free_instants(self):
        clock, metrics, admission = self._controller(cap=1)
        admission.acquire({1: 4.0, 2: 7.0, 3: 1.0})
        # A caller that owns the timeline pins the clock before each acquire;
        # the post-acquire ``now`` is the grant, not elapsed time.
        clock.pin(2.0)
        assert admission.acquire({1: 1.0, 2: 1.0, 3: 1.0}) == 7.0
        assert metrics.total("repairs_throttled") == 1  # one throttled repair, two waits inside it
        assert metrics.histogram("repair_wait_s").max == 5.0
        clock.pin(3.0)  # the next event may be earlier than the last grant
        assert admission.acquire({4: 1.0}) == 3.0
        assert admission.acquire({3: 1.0}) == 8.0  # behind the lease granted at 7


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
        for op in ("timed_get", "timed_read_rows"):
            real = getattr(dfs.store, op)

            def counted(*args, _real=real, **kwargs):
                data, latency = _real(*args, **kwargs)
                returned.append(data.nbytes)
                return data, latency

            monkeypatch.setattr(dfs.store, op, counted)

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
        real = dfs.store.timed_read_rows

        def logged(server_id, file_name, block_id, start, count, **kwargs):
            if server_id == server:
                rows.update(range(start, start + count))
            return real(server_id, file_name, block_id, start, count, **kwargs)

        monkeypatch.setattr(dfs.store, "timed_read_rows", logged)
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
