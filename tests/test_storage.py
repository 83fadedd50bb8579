"""Tests for the block store, filesystem and metrics."""

import numpy as np
import pytest

from repro.cluster import Cluster, RoundRobinPlacement
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.storage import (
    BlockUnavailableError,
    DistributedFileSystem,
    FileSystemError,
    MetricsRegistry,
)
from tests.conftest import payload_bytes


class TestMetrics:
    def test_counters(self):
        m = MetricsRegistry()
        m.add("disk_bytes_read", 100, server_id=1)
        m.add("disk_bytes_read", 50, server_id=2)
        assert m.total("disk_bytes_read") == 150
        assert m.by_server("disk_bytes_read") == {1: 100, 2: 50}

    def test_unknown_counter_is_zero(self):
        assert MetricsRegistry().total("nope") == 0

    def test_reset_and_snapshot(self):
        m = MetricsRegistry()
        m.add("x", 3)
        assert m.snapshot() == {"x": 3}
        m.reset()
        assert m.snapshot() == {}


class TestBlockStore:
    @pytest.fixture
    def setup(self):
        cluster = Cluster.homogeneous(4)
        dfs = DistributedFileSystem(cluster)
        return cluster, dfs.store

    def test_put_get(self, setup):
        cluster, store = setup
        block = np.arange(12, dtype=np.uint8).reshape(3, 4)
        store.put(0, "f", 0, block)
        got = store.get(0, "f", 0)
        assert np.array_equal(got, block)

    def test_failed_server_unreadable(self, setup):
        cluster, store = setup
        store.put(1, "f", 0, np.zeros((2, 2), dtype=np.uint8))
        cluster.fail(1)
        with pytest.raises(BlockUnavailableError):
            store.get(1, "f", 0)
        with pytest.raises(BlockUnavailableError):
            store.put(1, "f", 1, np.zeros((2, 2), dtype=np.uint8))

    def test_missing_block(self, setup):
        _, store = setup
        with pytest.raises(BlockUnavailableError):
            store.get(0, "ghost", 0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("width", [234, 16_384], ids=["small", "large"])
    @pytest.mark.parametrize("layout", ["contiguous", "column-slice", "strided-rows"])
    def test_stored_crcs_are_the_crcs_of_the_block_bytes(self, setup, dtype, width, layout):
        """CRCs are computed through the buffer protocol without copying the
        block; the stored values must stay those of ``tobytes()``, whatever
        the block's size and memory layout (a batched encode stores column
        slices, checksummed row by row)."""
        import zlib

        _, store = setup
        wide = np.random.default_rng(8).integers(0, 1 << 8 * np.dtype(dtype).itemsize,
                                                 size=(7, 3 * width)).astype(dtype)
        block = {
            "contiguous": np.ascontiguousarray(wide[:, :width]),
            "column-slice": wide[:, width : 2 * width],  # rows contiguous, block not
            "strided-rows": wide[:, ::3],  # not even the rows are contiguous
        }[layout]
        assert block.flags.c_contiguous == (layout == "contiguous")
        assert block[0].flags.c_contiguous == (layout != "strided-rows")
        store.put(0, "f", 0, block)
        assert store._checksums[0][("f", 0)] == zlib.crc32(block.tobytes())
        assert store._row_checksums[0][("f", 0)] == [zlib.crc32(row.tobytes()) for row in block]
        assert store.verify(0, "f", 0)
        data, _ = store.timed_get(0, "f", 0, verify=True)
        assert np.array_equal(data, block)
        rows, _ = store.timed_read_rows(0, "f", 0, 2, 3, verify=True)
        assert np.array_equal(rows, block[2:5])
        store.corrupt(0, "f", 0, offset=3 * block.shape[1] + 5)
        assert not store.verify(0, "f", 0)
        with pytest.raises(BlockUnavailableError):
            store.timed_read_rows(0, "f", 0, 2, 3, verify=True)

    def test_read_rows_range_checked(self, setup):
        _, store = setup
        store.put(0, "f", 0, np.zeros((3, 4), dtype=np.uint8))
        from repro.storage import StorageError

        with pytest.raises(StorageError):
            store.read_rows(0, "f", 0, 2, 5)

    def test_io_accounting(self, setup):
        _, store = setup
        block = np.zeros((4, 10), dtype=np.uint8)
        store.put(2, "f", 0, block)
        store.get(2, "f", 0)
        assert store.metrics.total("disk_bytes_written") == 40
        assert store.metrics.total("disk_bytes_read") == 40
        assert store.metrics.by_server("blocks_read") == {2: 1}

    def test_drop_server(self, setup):
        _, store = setup
        store.put(3, "f", 0, np.zeros((1, 1), dtype=np.uint8))
        store.put(3, "f", 1, np.zeros((1, 1), dtype=np.uint8))
        assert store.drop_server(3) == 2
        assert store.blocks_on(3) == []

    def test_used_bytes(self, setup):
        _, store = setup
        store.put(0, "a", 0, np.zeros((2, 8), dtype=np.uint8))
        assert store.used_bytes(0) == 16


class TestFileSystem:
    @pytest.fixture
    def dfs(self):
        return DistributedFileSystem(Cluster.homogeneous(10))

    def test_write_read_roundtrip(self, dfs):
        payload = payload_bytes(10_000, seed=1)
        dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
        assert dfs.read_file("f") == payload

    def test_padding_transparent(self, dfs):
        # 1009 is prime: guaranteed padding.
        payload = payload_bytes(1009, seed=2)
        ef = dfs.write_file("f", payload, code=ReedSolomonCode(4, 2))
        assert ef.original_size == 1009
        assert ef.padded_size % 4 == 0
        assert dfs.read_file("f") == payload

    def test_duplicate_name_rejected(self, dfs):
        dfs.write_file("f", b"x" * 100, code=ReedSolomonCode(4, 2))
        with pytest.raises(FileSystemError):
            dfs.write_file("f", b"y" * 100, code=ReedSolomonCode(4, 2))

    def test_exactly_one_code_argument(self, dfs):
        with pytest.raises(FileSystemError):
            dfs.write_file("f", b"x")
        with pytest.raises(FileSystemError):
            dfs.write_file(
                "g",
                b"x",
                code=ReedSolomonCode(4, 2),
                code_factory=lambda p: ReedSolomonCode(4, 2),
            )

    def test_blocks_on_distinct_servers(self, dfs):
        ef = dfs.write_file("f", b"z" * 4000, code=PyramidCode(4, 2, 1))
        assert len(set(ef.placement.values())) == 7

    def test_read_bytes_extent(self, dfs):
        payload = payload_bytes(9000, seed=3)
        dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
        assert dfs.read_bytes("f", 123, 456) == payload[123 : 123 + 456]

    def test_read_bytes_past_eof_truncates(self, dfs):
        payload = payload_bytes(1000, seed=4)
        dfs.write_file("f", payload, code=ReedSolomonCode(4, 2))
        assert dfs.read_bytes("f", 900, 500) == payload[900:]
        assert dfs.read_bytes("f", 5000, 10) == b""

    def test_degraded_read_single_failure(self, dfs):
        payload = payload_bytes(7000, seed=5)
        ef = dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
        dfs.cluster.fail(ef.server_of(2))
        assert dfs.read_file("f") == payload
        assert dfs.metrics.total("degraded_reads") >= 1

    def test_degraded_read_double_failure(self, dfs):
        payload = payload_bytes(7000, seed=6)
        ef = dfs.write_file("f", payload, code=PyramidCode(4, 2, 1))
        dfs.cluster.fail(ef.server_of(0))
        dfs.cluster.fail(ef.server_of(6))
        assert dfs.read_file("f") == payload

    def test_too_many_failures_raise(self, dfs):
        payload = payload_bytes(3000, seed=7)
        ef = dfs.write_file("f", payload, code=ReedSolomonCode(4, 2))
        for b in (0, 1, 2):
            dfs.cluster.fail(ef.server_of(b))
        from repro.codes import DecodingError

        with pytest.raises(DecodingError):
            dfs.read_file("f")

    def test_code_factory_receives_placed_performance(self):
        cluster = Cluster.heterogeneous([1, 1, 1, 1, 0.4, 0.4, 0.4])
        dfs = DistributedFileSystem(cluster)
        seen = []

        def factory(perf):
            seen.append(perf)
            return GalloperCode(4, 2, 1, performances=perf)

        dfs.write_file("f", payload_bytes(7000, seed=8), code_factory=factory)
        assert seen[-1] == [1, 1, 1, 1, 0.4, 0.4, 0.4]

    def test_delete_file(self, dfs):
        ef = dfs.write_file("f", b"q" * 1000, code=ReedSolomonCode(4, 2))
        server0 = ef.server_of(0)
        dfs.delete_file("f")
        assert dfs.list_files() == []
        assert not dfs.store.holds(server0, "f", 0)

    def test_virtual_file(self, dfs):
        ef = dfs.write_virtual_file("v", 7 * 450 * (1 << 20) // 7 * 4, code=GalloperCode(4, 2, 1))
        assert ef.tags["virtual"]
        assert ef.block_size > 0
        # No payload was stored.
        assert all(not dfs.store.holds(s, "v", b) for b, s in ef.placement.items())

    def test_stripe_holder_lookup(self, dfs):
        ef = dfs.write_file("f", payload_bytes(2800, seed=9), code=GalloperCode(4, 2, 1))
        holder = ef.stripe_holder(0)
        assert holder is not None
        block, row = holder
        assert row == 0 and block == 0

    def test_read_stripes_range_checked(self, dfs):
        dfs.write_file("f", payload_bytes(2800, seed=10), code=GalloperCode(4, 2, 1))
        with pytest.raises(FileSystemError):
            dfs.read_stripes("f", 0, 999)

    def test_missing_file(self, dfs):
        with pytest.raises(FileSystemError):
            dfs.read_file("ghost")
