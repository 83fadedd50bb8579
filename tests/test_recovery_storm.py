"""Tests for the server-recovery storm simulation."""

import pytest

from repro.codes import PyramidCode, ReedSolomonCode, ReplicationCode
from repro.core import GalloperCode
from repro.storage.recovery import simulate_server_recovery


class TestRecoveryStorm:
    def test_deterministic(self):
        code = PyramidCode(4, 2, 1)
        a = simulate_server_recovery(code, 20, 15, seed=7)
        b = simulate_server_recovery(code, 20, 15, seed=7)
        assert a.makespan == b.makespan
        assert a.repair_times == b.repair_times

    def test_seed_changes_placement(self):
        code = PyramidCode(4, 2, 1)
        a = simulate_server_recovery(code, 20, 15, seed=1)
        b = simulate_server_recovery(code, 20, 15, seed=2)
        assert a.bytes_read == b.bytes_read  # same plans ...
        assert a.bytes_read_by_server != b.bytes_read_by_server  # ... different spread

    def test_all_repairs_complete(self):
        code = GalloperCode(4, 2, 1)
        o = simulate_server_recovery(code, 33, 12, seed=3)
        assert len(o.repair_times) == 33
        assert o.makespan == max(o.repair_times)
        assert all(t > 0 for t in o.repair_times)

    def test_locality_beats_rs(self):
        rs = simulate_server_recovery(ReedSolomonCode(4, 2), 60, 20, seed=3)
        lrc = simulate_server_recovery(PyramidCode(4, 2, 1), 60, 20, seed=3)
        assert lrc.makespan < rs.makespan
        assert lrc.bytes_read < rs.bytes_read
        assert lrc.max_server_load <= rs.max_server_load

    def test_replication_fastest(self):
        rep = simulate_server_recovery(ReplicationCode(4, 3), 60, 20, seed=3)
        lrc = simulate_server_recovery(PyramidCode(4, 2, 1), 60, 20, seed=3)
        assert rep.makespan < lrc.makespan

    def test_galloper_matches_pyramid(self):
        g = simulate_server_recovery(GalloperCode(4, 2, 1), 40, 18, seed=5)
        p = simulate_server_recovery(PyramidCode(4, 2, 1), 40, 18, seed=5)
        assert g.bytes_read == p.bytes_read
        assert g.makespan == pytest.approx(p.makespan)

    def test_more_bandwidth_faster(self):
        code = PyramidCode(4, 2, 1)
        slow = simulate_server_recovery(code, 30, 15, disk_bandwidth=50 << 20, seed=1)
        fast = simulate_server_recovery(code, 30, 15, disk_bandwidth=200 << 20, seed=1)
        assert fast.makespan < slow.makespan

    def test_byte_accounting_matches_plans(self):
        code = PyramidCode(4, 2, 1)
        block = 64 << 20
        o = simulate_server_recovery(code, code.n, 15, block_bytes=block, seed=2)
        expect = sum(code.repair_plan(b).bytes_read(block) for b in range(code.n))
        assert o.bytes_read == expect

    def test_requires_enough_servers(self):
        with pytest.raises(ValueError):
            simulate_server_recovery(PyramidCode(4, 2, 1), 10, 7)

    def test_zero_blocks(self):
        o = simulate_server_recovery(PyramidCode(4, 2, 1), 0, 10)
        assert o.makespan == 0.0
        assert o.bytes_read == 0

    @pytest.mark.parametrize(
        "code, makespan, mean_repair, bytes_read, hotspot, times_sha",
        [
            (ReedSolomonCode(4, 2), 14.720000000000004, 9.74933333333333, 16106127360, 1275068416, "d5b371eabaeca579"),
            (PyramidCode(4, 2, 1), 10.88, 6.112, 9126805504, 939524096, "30c4364e8de1051e"),
            (GalloperCode(4, 2, 1), 10.88, 6.112, 9126805504, 939524096, "30c4364e8de1051e"),
            (ReplicationCode(4, 3), 5.76, 3.3920000000000003, 4026531840, 402653184, "9a5aef876edfb3ce"),
        ],
        ids=["rs", "pyramid", "galloper", "replication"],
    )
    def test_storm_figure_is_pinned(self, code, makespan, mean_repair, bytes_read, hotspot, times_sha):
        """``extension_recovery_storm``'s four rows (60 blocks, 20 servers,
        seed 3), recorded before the storm lost its admission and batching
        options: the plain storm is the same storm, event for event."""
        import hashlib
        import struct

        o = simulate_server_recovery(code, 60, 20, seed=3)
        assert (o.makespan, o.mean_repair_time) == (makespan, mean_repair)
        assert (o.bytes_read, o.max_server_load) == (bytes_read, hotspot)
        packed = struct.pack(f"<{len(o.repair_times)}d", *o.repair_times)
        assert hashlib.sha256(packed).hexdigest()[:16] == times_sha
