"""Tests for the server-recovery storm: one server's blocks rebuilt at
once through the serving gateway, on its shared per-server disk pipes."""

import pytest

from repro.bench.experiments import _STORM_BLOCK, _recovery_storm
from repro.cluster import Cluster, PlacementError
from repro.codes import PyramidCode, ReedSolomonCode, ReplicationCode
from repro.core import GalloperCode

#: The figure's disks: one block read takes 0.64 s, as 64 MB at 100 MB/s.
BANDWIDTH = _STORM_BLOCK / 0.64


def storm(code, lost_blocks, num_servers, seed, bandwidth=BANDWIDTH):
    """The storm's makespan, disk bytes read per server, and the rest."""
    cluster = Cluster.homogeneous(num_servers, disk_bandwidth=bandwidth)
    gateway, payloads, lost = _recovery_storm(code, cluster, lost_blocks, seed)
    read = {s: int(b) for s, b in gateway.metrics.by_server("disk_bytes_read").items()}
    return gateway.loop.now, read, gateway, payloads, lost


class TestRecoveryStorm:
    def test_deterministic(self):
        a = storm(PyramidCode(4, 2, 1), 20, 15, seed=7)
        b = storm(PyramidCode(4, 2, 1), 20, 15, seed=7)
        assert a[:2] == b[:2]
        assert a[2].counters() == b[2].counters()

    def test_seed_changes_placement(self):
        a = storm(PyramidCode(4, 2, 1), 20, 15, seed=1)
        b = storm(PyramidCode(4, 2, 1), 20, 15, seed=2)
        assert a[1] != b[1]  # a different spread of helper reads

    def test_all_repairs_complete(self):
        """Every block the victim held is rebuilt elsewhere, and every file
        reads back byte-identical without it."""
        code = GalloperCode(4, 2, 1)
        _, _, gateway, payloads, lost = storm(code, 33, 12, seed=3)
        dfs = gateway.dfs
        victim = 11  # the last of the 12 servers
        assert sum(map(len, lost.values())) == 33
        assert gateway.counters()["repair_blocks"] == 33
        assert gateway.metrics.total("serving_repair_failures") == 0
        for name, payload in payloads.items():
            assert not dfs.file(name).blocks_on_server(victim)
            assert dfs.read_file(name) == payload

    def test_locality_beats_rs(self):
        rs = storm(ReedSolomonCode(4, 2), 60, 20, seed=3)
        lrc = storm(PyramidCode(4, 2, 1), 60, 20, seed=3)
        assert lrc[0] < rs[0]
        assert sum(lrc[1].values()) < sum(rs[1].values())
        assert max(lrc[1].values()) <= max(rs[1].values())

    def test_replication_fastest(self):
        rep = storm(ReplicationCode(4, 3), 60, 20, seed=3)
        lrc = storm(PyramidCode(4, 2, 1), 60, 20, seed=3)
        assert rep[0] < lrc[0]

    def test_galloper_matches_pyramid(self):
        g = storm(GalloperCode(4, 2, 1), 40, 18, seed=5)
        p = storm(PyramidCode(4, 2, 1), 40, 18, seed=5)
        assert sum(g[1].values()) == sum(p[1].values())
        assert g[0] == pytest.approx(p[0])

    def test_more_bandwidth_faster(self):
        slow = storm(PyramidCode(4, 2, 1), 30, 15, seed=1, bandwidth=BANDWIDTH / 2)
        fast = storm(PyramidCode(4, 2, 1), 30, 15, seed=1, bandwidth=BANDWIDTH * 2)
        assert fast[0] < slow[0]

    def test_byte_accounting_matches_plans(self):
        code = PyramidCode(4, 2, 1)
        _, read, gateway, _, lost = storm(code, 21, 15, seed=2)
        assert gateway.counters()["repair_replans"] == 0
        expect = sum(
            code.repair_plan(b, {b}).bytes_read(_STORM_BLOCK)
            for blocks in lost.values()
            for b in blocks
        )
        assert sum(read.values()) == expect

    def test_requires_enough_servers(self):
        with pytest.raises(PlacementError):
            storm(PyramidCode(4, 2, 1), 10, 6, seed=0)

    def test_zero_blocks(self):
        """A victim that holds nothing: no file is written, nothing rebuilt."""
        makespan, read, gateway, payloads, _ = storm(PyramidCode(4, 2, 1), 0, 10, seed=0)
        assert makespan == 0.0
        assert read == {}
        assert gateway.counters()["repair_blocks"] == 0
        assert payloads == {}

    @pytest.mark.parametrize(
        "code, makespan, bytes_read, hotspot",
        [
            (ReedSolomonCode(4, 2), 14.73150000000001, 240, 20),
            (PyramidCode(4, 2, 1), 9.6075, 136, 12),
            (GalloperCode(4, 2, 1), 9.6075, 136, 12),
            (ReplicationCode(4, 3), 5.764499999999998, 60, 6),
        ],
        ids=["rs", "pyramid", "galloper", "replication"],
    )
    def test_storm_figure_is_pinned(self, code, makespan, bytes_read, hotspot):
        """``extension_recovery_storm``'s four rows (60 blocks, 20 servers,
        seed 3): makespan, and blocks read in all and from the busiest
        server; every file reads back afterwards.

        The event-driven storm simulator this replaced (it lost a
        rotating block index per stripe, held on random survivors, and
        wrote rebuilt blocks round-robin) gave, in 64 MB blocks::

            code          makespan_s          mean_repair_s       bytes_read   hotspot
            rs            14.720000000000004  9.74933333333333    16106127360  1275068416
            pyramid       10.88               6.112               9126805504   939524096
            galloper      10.88               6.112               9126805504   939524096
            replication   5.76                3.3920000000000003  4026531840   402653184

        that is 240 / 136 / 136 / 60 blocks read and hotspots of 19 / 14
        / 14 / 6 blocks.  Here the DFS places the files (which block a
        file loses is random, not rotating) and the gateway writes each
        rebuilt block to the server whose disk frees up soonest.
        """
        makespan_s, read, gateway, payloads, _ = storm(code, 60, 20, seed=3)
        assert makespan_s == makespan
        assert sum(read.values()) == bytes_read * _STORM_BLOCK
        assert max(read.values()) == hotspot * _STORM_BLOCK
        for name, payload in payloads.items():
            assert gateway.dfs.read_file(name) == payload
