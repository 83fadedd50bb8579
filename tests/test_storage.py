"""Tests for the block store, filesystem and metrics."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, RoundRobinPlacement
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.faults import FaultModel, SilentCorruption
from repro.storage import (
    BlockStore,
    BlockUnavailableError,
    DistributedFileSystem,
    FileSystemError,
    MetricsRegistry,
    TransientReadError,
)
from tests.conftest import forget_file, payload_bytes


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
        """The one checksum store holds ``zlib``'s CRC-32 of each stripe
        row's bytes — whichever backend computed it, whatever the block's
        size and memory layout (a batched encode stores column slices)."""
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
        assert store._row_checksums[0][("f", 0)][0] == [zlib.crc32(row.tobytes()) for row in block]
        assert not hasattr(store, "_checksums")  # nothing checksums the block a second time
        assert store.verify(0, "f", 0)
        data, _ = store.timed_get(0, "f", 0, verify=True)
        assert np.array_equal(data, block)
        rows, _ = store.timed_read_rows(0, "f", 0, 2, 3, verify=True)
        assert np.array_equal(rows, block[2:5])
        store.corrupt(0, "f", 0, offset=3 * block.shape[1] + 5)
        assert not store.verify(0, "f", 0)
        with pytest.raises(BlockUnavailableError):
            store.timed_read_rows(0, "f", 0, 2, 3, verify=True)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("width", [40, 9_363], ids=["small", "large"])
    @pytest.mark.parametrize("shape", ["1-D", "one-row", "seven-rows", "column-slice"])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_any_flipped_byte_is_caught(self, dtype, width, shape, data):
        """Every stored byte is under exactly one row CRC: flip any one —
        first, last, one in each row — and the scrub, the whole-block read
        and the row read covering it all fail, naming the stripe."""
        store = BlockStore(Cluster.homogeneous(1))
        nrows = 7 if shape in ("seven-rows", "column-slice") else 1
        wide = np.random.default_rng(9).integers(
            0, 1 << 8 * np.dtype(dtype).itemsize, size=(nrows, 3 * width)
        ).astype(dtype)
        block = {
            "1-D": wide[0, :width],
            "one-row": wide[:, :width],
            "seven-rows": np.ascontiguousarray(wide[:, :width]),
            "column-slice": wide[:, width : 2 * width],
        }[shape]
        store.put(0, "f", 0, block)
        rows = block.reshape(nrows, -1)  # views of what the store holds
        row_bytes = rows[0].nbytes
        offsets = {0, block.nbytes - 1}
        offsets.update(
            r * row_bytes + data.draw(st.integers(0, row_bytes - 1), label=f"byte in row {r}")
            for r in range(nrows)
        )
        for offset in sorted(offsets):
            stripe, col = divmod(offset, row_bytes)
            rows[stripe].view(np.uint8)[col] ^= data.draw(st.integers(1, 255), label="flip")
            assert not store.verify(0, "f", 0)
            covering = (0, block.shape[0]) if block.ndim == 1 else (stripe, 1)
            for read in (
                lambda: store.timed_get(0, "f", 0, verify=True),
                lambda: store.timed_read_rows(0, "f", 0, *covering, verify=True),
                lambda: store.timed_read_rows(0, "f", 0, 0, block.shape[0], verify=True),
            ):
                with pytest.raises(TransientReadError) as caught:
                    read()
                assert caught.value.cause == "checksum"
                assert f"stripe {stripe} of block" in str(caught.value)
            if block.ndim == 2 and nrows > 1:  # rows not covering the flip still read clean
                other = (stripe + 1) % nrows
                store.timed_read_rows(0, "f", 0, other, 1, verify=True)
            store.put(0, "f", 0, block)  # the flipped bytes become the truth ...
            assert store.verify(0, "f", 0)  # ... under fresh CRCs

    @pytest.mark.parametrize("fraction", [1.0, 3 / 7])
    def test_verified_read_checks_every_row_it_returns(self, setup, fraction):
        """A whole-block read verifies every row of the block; a row read
        verifies exactly the rows it returns, and bills exactly those."""
        _, store = setup
        block = np.random.default_rng(5).integers(0, 256, size=(7, 64), dtype=np.uint8)
        store.put(0, "f", 0, block)
        nrows = round(7 * fraction)

        def read(verify):
            if nrows == 7:
                return store.timed_get(0, "f", 0, verify=verify)
            return store.timed_read_rows(0, "f", 0, 2, nrows, verify=verify)

        expect = block if nrows == 7 else block[2 : 2 + nrows]
        before = store.metrics.total("disk_bytes_read")
        data, _ = read(True)
        assert np.array_equal(data, expect)
        assert data.nbytes == store.metrics.total("disk_bytes_read") - before == nrows * 64
        # Rot in the last row: caught by every read that returns that row, and only those.
        store.corrupt(0, "f", 0, offset=6 * 64 + 5)
        if nrows == 7:
            with pytest.raises(TransientReadError, match="stripe 6 of block"):
                read(True)
        else:
            assert np.array_equal(read(True)[0], expect)
        store.put(0, "f", 0, block)
        # A transfer that alters its first byte is caught whichever rows it carries.
        store.install_faults(FaultModel(SilentCorruption(rate=1.0), seed=1))
        failures = store.metrics.total("checksum_failures")
        with pytest.raises(TransientReadError) as caught:
            read(True)
        assert caught.value.cause == "checksum"
        assert store.metrics.total("checksum_failures") == failures + 1
        # Unverified reads hand the altered bytes on, as before.
        data, _ = read(False)
        assert not np.array_equal(data, expect)

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
        assert not store.holds(3, "f", 0) and not store.holds(3, "f", 1)



class TestFileSystem:
    @pytest.fixture
    def dfs(self):
        return DistributedFileSystem(Cluster.homogeneous(10))

    def test_write_read_roundtrip(self, dfs):
        payload = payload_bytes(10_000, seed=1)
        dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
        assert dfs.read_file("f") == payload

    @pytest.mark.parametrize("wide_field", [False, True], ids=["gf256", "gf65536"])
    @pytest.mark.parametrize("size", [2_800, 2_801], ids=["exact", "padded"])
    def test_stored_blocks_never_alias_the_callers_buffer(self, dfs, wide_field, size):
        """``write_file`` encodes straight from the caller's buffer; what it
        stores is the encode's own output, so the buffer is the caller's
        again — to overwrite or resize — the moment the write returns."""
        from repro.gf import GF65536

        payload = payload_bytes(size, seed=11)
        buffer = bytearray(payload)
        code = GalloperCode(4, 2, 1, gf=GF65536) if wide_field else GalloperCode(4, 2, 1)
        dfs.write_file("f", buffer, code=code)
        buffer[:] = bytes(len(buffer))
        buffer.extend(b"no view of the buffer is still exported")
        assert dfs.read_bytes("f", 0, size) == payload
        dfs.write_file("g", memoryview(payload)[100:], code=code)
        assert dfs.read_bytes("g", 0, size) == payload[100:]

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

    def test_virtual_file(self, dfs):
        ef = dfs.write_virtual_file("v", 7 * 450 * (1 << 20) // 7 * 4, code=GalloperCode(4, 2, 1))
        assert ef.tags["virtual"]
        assert ef.block_size > 0
        # No payload was stored.
        assert all(not dfs.store.holds(s, "v", b) for b, s in ef.placement.items())

    def test_stripe_holder_lookup(self, dfs):
        dfs.write_file("f", payload_bytes(2800, seed=9), code=GalloperCode(4, 2, 1))
        assert dfs.stripe_holders("f")[0] == (0, 0)

    def test_read_stripes_range_checked(self, dfs):
        dfs.write_file("f", payload_bytes(2800, seed=10), code=GalloperCode(4, 2, 1))
        with pytest.raises(FileSystemError):
            dfs.read_stripes("f", 0, 999)

    def test_missing_file(self, dfs):
        with pytest.raises(FileSystemError):
            dfs.read_file("ghost")


class TestCodeInterning:
    """One code object, and so one set of compiled plans, per parameter set."""

    @pytest.fixture
    def dfs(self):
        return DistributedFileSystem(Cluster.homogeneous(10))

    def test_equal_parameters_share_the_first_writers_object(self, dfs):
        first, second, third = (GalloperCode(4, 2, 1) for _ in range(3))
        a = dfs.write_file("a", payload_bytes(5_600, seed=1), code=first)
        blocks = second.encode(np.zeros((second.data_stripe_total, 8), dtype=np.uint8))
        b = dfs.write_encoded("b", second, blocks, original_size=blocks[0].size * 4)
        c = dfs.write_virtual_file("c", 1 << 20, code=third)
        d = dfs.write_file(
            "d", payload_bytes(2_800, seed=2), code_factory=lambda perf: GalloperCode(4, 2, 1)
        )
        assert a.code is first  # the first writer stays canonical
        assert b.code is first and c.code is first and d.code is first
        assert dfs.read_file("a") == payload_bytes(5_600, seed=1)
        assert dfs.read_file("d") == payload_bytes(2_800, seed=2)

    def test_files_share_one_plan_cache(self, dfs):
        names = [f"f{i}" for i in range(4)]
        for i, name in enumerate(names):
            dfs.write_file(name, payload_bytes(5_600, seed=i), code=GalloperCode(4, 2, 1))
        code = dfs.file(names[0]).code
        for name in names:  # the same block lost from every file
            ef = dfs.file(name)
            dfs.store.drop(ef.server_of(2), name, 2)
        before = code.plan_cache_info()
        for i, name in enumerate(names):
            assert dfs.read_file(name) == payload_bytes(5_600, seed=i)
        after = code.plan_cache_info()
        # One repair plan compiled for the four files, then three hits.
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == len(names) - 1

    def test_different_parameters_stay_distinct(self, dfs):
        from repro.gf import GF65536

        codes = {
            "galloper": GalloperCode(4, 2, 1),
            "weighted": GalloperCode(4, 2, 1, performances=[1, 1, 1, 1, 0.4, 0.4, 0.4]),
            "wide field": GalloperCode(4, 2, 1, gf=GF65536),
            "pyramid": PyramidCode(4, 2, 1),
            "rs": ReedSolomonCode(4, 3),
            "other k": GalloperCode(6, 2, 1),
        }
        for name, code in codes.items():
            assert dfs.write_file(name, payload_bytes(8_400, seed=3), code=code).code is code
        assert len({id(dfs.file(name).code) for name in codes}) == len(codes)
        for name in codes:
            assert dfs.read_bytes(name, 100, 3_000) == payload_bytes(8_400, seed=3)[100:3_100]

    def test_code_factory_weights_never_alias(self):
        # Same factory, different placed servers: different weights, so
        # different generators, so different objects.
        cluster = Cluster.heterogeneous([1, 1, 1, 1, 0.4, 0.4, 0.4, 1, 1, 1, 1, 1, 1, 1])
        dfs = DistributedFileSystem(cluster)

        def factory(perf):
            return GalloperCode(4, 2, 1, performances=perf)

        slow = dfs.write_file(
            "slow", payload_bytes(7_000, seed=4), code_factory=factory,
            placement=RoundRobinPlacement(offset=0),
        )
        even = dfs.write_file(
            "even", payload_bytes(7_000, seed=5), code_factory=factory,
            placement=RoundRobinPlacement(offset=7),
        )
        again = dfs.write_file(
            "again", payload_bytes(7_000, seed=6), code_factory=factory,
            placement=RoundRobinPlacement(offset=7),
        )
        assert slow.code is not even.code
        assert slow.code.weights != even.code.weights
        assert again.code is even.code

    def test_two_filesystems_share_nothing(self):
        one = DistributedFileSystem(Cluster.homogeneous(10))
        two = DistributedFileSystem(Cluster.homogeneous(10))
        a = one.write_file("f", payload_bytes(2_800, seed=7), code=GalloperCode(4, 2, 1))
        b = two.write_file("f", payload_bytes(2_800, seed=7), code=GalloperCode(4, 2, 1))
        assert a.code is not b.code

    def test_a_parameter_set_is_forgotten_with_its_last_file(self, dfs):
        import gc

        dfs.write_file("f", payload_bytes(2_800, seed=8), code=GalloperCode(4, 2, 1))
        forget_file(dfs, "f")
        gc.collect()
        fresh = GalloperCode(4, 2, 1)
        assert dfs.write_file("g", payload_bytes(2_800, seed=9), code=fresh).code is fresh
