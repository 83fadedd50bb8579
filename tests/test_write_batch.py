"""A write stores all its blocks in one store batch.

``BlockStore._put_many`` hashes every block the native kernel can take in
place in one ``crc32_ranges`` call and adds the write counters once per
server, while each block still takes ``put``'s steps in order.  So a batch
and a ``put`` per item end in the same store: the same arrays, the same
row CRCs, the same counters by server in the same key order, the same
partial store when a server is down mid-batch.  A striped write hands
every full group to one ``DistributedFileSystem._write_encoded_many``;
twin filesystems, one writing in a batch and one group by group, end
alike.
"""

import gc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode, RotatedPyramidCode
from repro.core import GalloperCode
from repro.gf import GF256, GF65536
from repro.storage import (
    BlockStore,
    DistributedFileSystem,
    FileSystemError,
    Scrubber,
    StorageError,
    StripedFileSystem,
)
from repro.storage.health import RESET_TIMEOUT
from tests.conftest import forget_file, payload_bytes

SERVERS = 4
NATIVE = BlockStore(Cluster.homogeneous(1))._crc_backend is not None
BACKENDS = [True, False] if NATIVE else [False]
SHAPES = ("1-d", "contiguous", "column-slice", "row-strided", "element-strided")


def fresh_store(native: bool, down: int | None) -> BlockStore:
    """A store on a fresh cluster; without ``native`` it is the store a host
    without the CRC kernel builds."""
    cluster = Cluster.homogeneous(SERVERS)
    if down is not None:
        cluster.fail(down)
    store = BlockStore(cluster)
    if not native:
        store._crc_backend = store._native_row_crcs = None
    return store


@st.composite
def blocks(draw) -> np.ndarray:
    """u8 / u16 blocks of every shape a store is given, below and above 4 KiB."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    rows = draw(st.integers(1, 7))
    cols = draw(st.sampled_from([1, 5, 300, 1_200, 4_700]))
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    wide = rng.integers(0, 1 << 8 * np.dtype(dtype).itemsize, size=(2 * rows, 2 * cols + 3), dtype=dtype)
    if shape == "1-d":
        return np.ascontiguousarray(wide[:rows, :cols]).reshape(-1)
    if shape == "contiguous":
        return np.ascontiguousarray(wide[:rows, :cols])
    if shape == "column-slice":  # a block of a batched encode
        return wide[:rows, 3 : 3 + cols]
    if shape == "row-strided":  # rows contiguous, two rows apart
        return wide[::2, :cols]
    return wide[:rows, : 2 * cols : 2]  # no row is one buffer


items = st.lists(
    st.tuples(st.integers(0, SERVERS - 1), st.sampled_from(["a", "b"]), st.integers(0, 2), blocks()),
    min_size=1,
    max_size=8,
)


def outcome(fn):
    try:
        fn()
    except StorageError as exc:
        return type(exc), str(exc), vars(exc)
    return None


def row_crcs(block: np.ndarray) -> list[int]:
    rows = block if block.ndim == 2 else block.reshape(1, -1)
    return [zlib.crc32(np.ascontiguousarray(row).tobytes()) for row in rows]


def counters(store: BlockStore) -> dict:
    metrics = store.metrics
    return {name: (total, list(metrics.by_server(name).items())) for name, total in metrics.snapshot().items()}


@pytest.mark.parametrize("native", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(items=items, down=st.none() | st.integers(0, SERVERS - 1))
def test_a_batch_is_a_put_per_item(native, items, down):
    batched, looped = fresh_store(native, down), fresh_store(native, down)
    raised = outcome(lambda: batched._put_many(items))
    assert raised == outcome(lambda: [looped.put(*item) for item in items])
    assert (raised is not None) == any(server == down for server, *_ in items)
    assert counters(batched) == counters(looped)
    for server in range(SERVERS):
        stored = batched._disks[server]
        assert [(key, id(block)) for key, block in stored.items()] == [
            (key, id(block)) for key, block in looped._disks[server].items()
        ]  # the same array objects, in the same order
        for store in (batched, looped):
            entries = store._row_checksums[server]
            assert list(entries) == list(stored)
            for key, (crcs, owner, _) in entries.items():
                assert owner is stored[key] and crcs == row_crcs(owner)
        assert [entry[2] is None for entry in batched._row_checksums[server].values()] == [
            entry[2] is None for entry in looped._row_checksums[server].values()
        ]  # a handle kept wherever put keeps one

    # A later batched read vouches for the stored rows through the handles the write kept.
    verdicts = []
    for store in (batched, looped):
        ranges = [
            (server, *key, 0, block.shape[0])
            for server, disk in store._disks.items()
            for key, block in disk.items()
            if block.ndim == 2
        ]
        kept = {r[:3]: store._row_checksums[r[0]][r[1:3]][2] for r in ranges}
        held = [store._disks[r[0]][r[1:3]] for r in ranges]
        verdicts.append(store._clean_ranges(ranges, held, held))
        for r, block, clean in zip(ranges, held, verdicts[-1]):
            assert clean == (not native or block.strides[1] == block.itemsize)
            if kept[r[:3]] is not None:
                assert store._row_checksums[r[0]][r[1:3]][2] is kept[r[:3]]
    assert verdicts[0] == verdicts[1]


CODES = {
    "rs": lambda gf: ReedSolomonCode(4, 3, gf=gf),
    "pyramid": lambda gf: PyramidCode(4, 2, 1, gf=gf),
    "galloper": lambda gf: GalloperCode(4, 2, 1, gf=gf),
    "rotated": lambda gf: RotatedPyramidCode(4, 2, 1, gf=gf),
}
FIELDS = {"gf8": GF256, "gf16": GF65536}
BLOCK = 7 * 1_300  # divides into N rows for every code; over 4 KiB


def written(dfs) -> dict:
    store = dfs.store
    return {
        "files": [
            (name, ef.placement, ef.stripe_size, ef.original_size, ef.code._built)
            for name, ef in dfs.files.items()
        ],
        "blocks": [
            (server, key, block.tobytes(), store._row_checksums[server][key][0])
            for server, disk in store._disks.items()
            for key, block in disk.items()
        ],
        "counters": counters(store),
    }


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("code_name", CODES)
def test_a_striped_write_is_its_groups_one_at_a_time(code_name, field, monkeypatch):
    code = CODES[code_name](FIELDS[field])
    payload = payload_bytes(4 * code.k * BLOCK + 3_001, seed=3)  # four full groups and a tail
    batched = DistributedFileSystem(Cluster.homogeneous(3 * code.n))
    looped = DistributedFileSystem(Cluster.homogeneous(3 * code.n))
    whole = looped._write_encoded_many
    monkeypatch.setattr(looped, "_write_encoded_many", lambda c, entries: [whole(c, [e])[0] for e in entries])
    for dfs in (batched, looped):
        StripedFileSystem(dfs).write_file("s", payload, lambda: code, max_block_bytes=BLOCK)
    assert len(batched.files) == 5
    assert written(batched) == written(looped)


@pytest.mark.skipif(not NATIVE, reason="needs the native CRC kernel")
def test_a_striped_write_hashes_its_full_groups_in_one_call(monkeypatch):
    code = GalloperCode(4, 2, 1)
    dfs = DistributedFileSystem(Cluster.homogeneous(3 * code.n))
    backend = dfs.store._crc_backend
    calls = []
    for name in ("crc32_ranges", "crc32_rows_in_place"):
        real = getattr(backend, name)
        monkeypatch.setattr(backend, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    payload = payload_bytes(5 * code.k * BLOCK + 3_001, seed=4)  # the tail's blocks are under 4 KiB
    StripedFileSystem(dfs).write_file("s", payload, lambda: code, max_block_bytes=BLOCK)
    assert calls == ["crc32_ranges"]
    dfs.store.put(0, "lone", 0, np.zeros((7, 1_300), dtype=np.uint8))  # a batch of one keeps its own call
    assert calls == ["crc32_ranges", "crc32_rows_in_place"]


def stored_ranges(dfs) -> tuple[list, list]:
    """Every stored 2-D block of ``dfs`` as a whole-block read range, and the block."""
    store = dfs.store
    ranges = [
        (server, *key, 0, block.shape[0])
        for server, disk in store._disks.items()
        for key, block in disk.items()
        if block.ndim == 2
    ]
    return ranges, [store._disks[r[0]][r[1:3]] for r in ranges]


@pytest.mark.skipif(not NATIVE, reason="needs the native CRC kernel")
def test_handles_into_a_shared_buffer_outlive_the_writer():
    """A batched striped write keeps, per block, a checksum handle that
    points into the batch's one encode buffer, each owning nothing but the
    first of its file's.  With every array and handle the writer held
    gone and the freed memory written over, batched reads still vouch for
    every block through those handles, and ``verify`` passes; a corrupted
    block fails its read's checksum and is recovered, and the block the
    scrubber rebuilds in its place is hashed afresh."""
    code = GalloperCode(4, 2, 1)
    dfs = DistributedFileSystem(Cluster.homogeneous(3 * code.n))
    sfs = StripedFileSystem(dfs)
    payload = payload_bytes(6 * code.k * BLOCK, seed=6)  # six full groups, no tail
    sfs.write_file("s", payload, lambda: code, max_block_bytes=BLOCK)
    store = dfs.store
    ranges, held = stored_ranges(dfs)
    assert len(ranges) == 6 * code.n
    # Ids, not the handles: holding one here would keep alive what it points into.
    kept = {r[:3]: id(store._row_checksums[r[0]][r[1:3]][2]) for r in ranges}
    assert id(None) not in kept.values()
    group_bytes = code.n * BLOCK

    def scribble():
        """Drop what this test holds of the write, collect, and fill memory
        of the sizes the write allocated with a byte no block is made of."""
        gc.collect()
        return [np.full(size, 0xA5, dtype=np.uint8) for size in (group_bytes, BLOCK, 6 * group_bytes) * 8]

    del held
    junk = scribble()
    ranges, held = stored_ranges(dfs)
    assert all(store._clean_ranges(ranges, held, held))
    assert all(id(store._row_checksums[r[0]][r[1:3]][2]) == kept[r[:3]] for r in ranges)  # no handle retaken
    assert all(store.verify(*r[:3]) for r in ranges)

    # Rot the block whose entry owns its file's handle: its next read fails the
    # checksum and is recovered, and the read takes a fresh handle for it.
    ef = dfs.file("s#g0000")
    victim = (ef.server_of(0), "s#g0000", 0)
    store.corrupt(*victim, offset=5)
    assert sfs.read_file("s") == payload
    assert dfs.metrics.total("checksum_failures") >= 1
    del held, junk
    junk = scribble()
    ranges, held = stored_ranges(dfs)
    clean = store._clean_ranges(ranges, held, held)
    assert [r[:3] for r, ok in zip(ranges, clean) if not ok] == [victim]
    assert [r[:3] for r in ranges if not store.verify(*r[:3])] == [victim]

    # The scrubber rebuilds the rotten block (once the read's failures have
    # cooled off the server's breaker); the rebuilt block is hashed afresh.
    dfs.clock.advance(RESET_TIMEOUT)
    assert Scrubber(dfs).scrub().corrupted == [("s#g0000", 0)]
    crcs, owner, _ = store._row_checksums[victim[0]][victim[1:]]
    assert owner is store._disks[victim[0]][victim[1:]]
    assert crcs == [zlib.crc32(row.tobytes()) for row in owner]
    del held, junk
    junk = scribble()
    ranges, held = stored_ranges(dfs)
    assert all(store._clean_ranges(ranges, held, held))
    assert all(store.verify(*r[:3]) for r in ranges)
    failures = dfs.metrics.total("checksum_failures")
    assert sfs.read_file("s") == payload
    assert dfs.metrics.total("checksum_failures") == failures


@pytest.mark.parametrize("clash", ["a full group", "the ragged tail"])
def test_a_rejected_striped_write_stores_and_registers_nothing(clash):
    code = ReedSolomonCode(4, 3)
    dfs = DistributedFileSystem(Cluster.homogeneous(2 * code.n))
    sfs = StripedFileSystem(dfs)
    dfs.write_file("f#g0003", payload_bytes(100, seed=1), code=code)
    full = 5 if clash == "a full group" else 3
    payload = payload_bytes(full * code.k * 700 + 9, seed=2)
    before = dfs.list_files()
    with pytest.raises(FileSystemError, match="f#g0003"):
        sfs.write_file("f", payload, lambda: code, max_block_bytes=700)
    assert dfs.list_files() == before and not sfs.striped
    assert not any(dfs.store.holds(s, "f#g0000", b) for s in range(len(dfs.cluster)) for b in range(code.n))
    forget_file(dfs, "f#g0003")
    sfs.write_file("f", payload, lambda: code, max_block_bytes=700)  # a retry is a fresh write
    assert sfs.read_file("f") == payload
