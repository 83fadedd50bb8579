"""Tests for bandwidth-aware helper selection during repair."""

import pytest

from repro.cluster import Cluster, Server
from repro.codes import PyramidCode, ReedSolomonCode, ReplicationCode
from repro.core import GalloperCode
from repro.storage import DistributedFileSystem, RepairManager
from tests.conftest import payload_bytes

MB = 1 << 20


def hetero_disks(speeds):
    return Cluster(
        [Server(i, disk_bandwidth=s * 100 * MB) for i, s in enumerate(speeds)]
    )


class TestPreferenceAPI:
    def test_rs_honours_preference(self):
        code = ReedSolomonCode(4, 2)
        plan = code.repair_plan(0, preference=[5, 4, 3, 2, 1])
        assert set(plan.helpers) == {5, 4, 3, 2}

    def test_rs_default_order_without_preference(self):
        code = ReedSolomonCode(4, 2)
        plan = code.repair_plan(0)
        assert set(plan.helpers) == {1, 2, 3, 4}

    def test_group_repair_unaffected_by_preference(self):
        """Locality wins: the group plan ignores preference entirely."""
        code = GalloperCode(4, 2, 1)
        plan = code.repair_plan(0, preference=[6, 5, 4, 3])
        assert set(plan.helpers) == {1, 2}

    def test_fallback_respects_preference_within_roles(self):
        code = PyramidCode(4, 2, 1)
        # Group 0 degraded: block 0's repair must fall back; prefer later
        # data blocks first.
        plan = code.repair_plan(0, failed={1}, preference=[4, 3, 2, 5, 6])
        assert plan.helpers[0] == 4

    def test_replication_picks_preferred_copy(self):
        code = ReplicationCode(4, 3)
        plan = code.repair_plan(0, preference=[8, 4, 0])
        assert plan.helpers == (8,)

    def test_unlisted_blocks_rank_last(self):
        code = ReedSolomonCode(4, 2)
        plan = code.repair_plan(0, preference=[5])
        assert plan.helpers[0] == 5


class TestRepairManagerIntegration:
    def test_helpers_land_on_fast_disks(self):
        # Blocks 0..5 on servers 0..5; servers 4,5,6,7 have fast disks.
        cluster = hetero_disks([0.2, 0.2, 0.2, 0.2, 2.0, 2.0, 2.0, 2.0, 1.0])
        dfs = DistributedFileSystem(cluster)
        payload = payload_bytes(8_000, seed=50)
        from repro.cluster import RoundRobinPlacement

        ef = dfs.write_file(
            "f", payload, code=ReedSolomonCode(4, 2), placement=RoundRobinPlacement()
        )
        cluster.fail(ef.server_of(0))
        report = RepairManager(dfs).repair_block("f", 0)
        # Blocks 4 and 5 (on the fast servers) must be among the helpers.
        assert {4, 5} <= set(report.helpers)
        assert dfs.read_file("f") == payload

    def test_repair_time_improves_with_preference(self):
        # One slow disk among the code's default helper set; preference
        # swaps it for the spare fast block 5.
        cluster = hetero_disks([1.0, 0.05, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        dfs = DistributedFileSystem(cluster)
        payload = payload_bytes(40_000, seed=52)
        ef = dfs.write_file("f", payload, code=ReedSolomonCode(4, 2))
        default = ef.code.repair_plan(0, {0}).helpers
        bandwidth = {b: cluster.server(s).disk_bandwidth for b, s in ef.placement.items()}
        cluster.fail(ef.server_of(0))
        before = dfs.clock.now
        report = RepairManager(dfs).repair_block("f", 0)
        assert 1 in default and 1 not in report.helpers

        # The repair's time is the DFS clock advance: its helper reads,
        # one whole block each at that helper's disk bandwidth.
        def read_time(helpers):
            return sum(report.bytes_written / bandwidth[h] for h in helpers)

        assert dfs.clock.now - before == pytest.approx(read_time(report.helpers))
        assert read_time(report.helpers) < read_time(default)
