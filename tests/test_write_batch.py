"""A write stores all its blocks in one store batch.

``BlockStore._put_many`` hashes every block the native kernel can take in
place in one ``crc32_ranges`` call, checks each server once and adds the
write counters once per server, yet stores what a ``put`` per item would:
the same arrays, the same row CRCs, an address wherever ``put`` takes one,
the same counters by server in the same key order, the same partial store
when a server is down mid-batch.  Every write, plain or striped, is one
``DistributedFileSystem._write``: one kernel call encodes every group (the
ragged tail included) and folds each stored row's CRC as it writes it, and
one ``_store_files`` stores them; twin filesystems, one writing in a batch
and one group by group, end alike, and so does a store given each
codes-layer block by ``put``.
"""

import gc
import zlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.placement import RoundRobinPlacement, _round_robin
from repro.codes import PyramidCode, ReedSolomonCode, RotatedPyramidCode
from repro.core import GalloperCode
from repro.gf import GF256, GF65536
from repro.gf.native import reset_native_backend
from repro.storage import (
    BlockStore,
    BlockUnavailableError,
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
        store._crc_backend = None
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
        assert [(key, id(record[1])) for key, record in stored.items()] == [
            (key, id(record[1])) for key, record in looped._disks[server].items()
        ]  # the same array objects, in the same order
        for store in (batched, looped):
            for crcs, block, where in store._disks[server].values():
                assert crcs == row_crcs(block)
                assert (where is not None) == (native and addressable(block))  # an address wherever put takes one

    # A later batched read vouches for the stored rows at the addresses the
    # write kept, and changes no record.
    verdicts = []
    for store in (batched, looped):
        ranges = [
            (server, *key, 0, record[1].shape[0])
            for server, disk in store._disks.items()
            for key, record in disk.items()
            if record[1].ndim == 2
        ]
        records = {r[:3]: store._disks[r[0]][r[1:3]] for r in ranges}
        _, plain = store._range_reader(ranges, verify=True)
        verdicts.append([booked is not None for booked in plain])
        for r, clean in zip(ranges, verdicts[-1]):
            block = records[r[:3]][1]
            # A batch of three ranges or more shares one pass, which vouches
            # only for rows the kernel can address; one or two are each checked alone.
            checked = len(ranges) <= 2 or not native or block.strides[1] == block.itemsize
            assert clean == (r[0] != down and checked)
            assert store._disks[r[0]][r[1:3]] is records[r[:3]]
    assert verdicts[0] == verdicts[1]


def addressable(block: np.ndarray) -> bool:
    """Whether the native kernel reads ``block``'s rows in place."""
    return block.ndim == 2 and block.size > 0 and block.strides[1] == block.itemsize


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
            (server, key, block.tobytes(), crcs)
            for server, disk in store._disks.items()
            for key, (crcs, block, _) in disk.items()
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
    whole = looped._store_files
    monkeypatch.setattr(looped, "_store_files", lambda c, placed, *_: [whole(c, [p])[0] for p in placed])
    for dfs in (batched, looped):
        StripedFileSystem(dfs).write_file("s", payload, lambda: code, max_block_bytes=BLOCK)
    assert len(batched.files) == 5
    assert written(batched) == written(looped)


@pytest.mark.skipif(not NATIVE, reason="needs the native CRC kernel")
def test_a_striped_write_hashes_no_row_twice(monkeypatch):
    """The encode folds the CRC of every row it writes, so a write makes no
    CRC call of its own: not for a striped file's full groups, nor for a
    tail or a plain file the kernel codes in place; a tail it codes some
    other way (under 1 024 symbols a stripe) is hashed by the store, here
    with ``zlib``.  A lone ``put`` is one ``crc32_ranges`` call."""
    code = GalloperCode(4, 2, 1)
    dfs = DistributedFileSystem(Cluster.homogeneous(3 * code.n))
    backend = dfs.store._crc_backend
    calls = []
    for name in ("crc32_ranges", "crc32_rows"):
        real = getattr(backend, name)
        monkeypatch.setattr(backend, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    sfs = StripedFileSystem(dfs)
    for name, tail in (("short", 3_001), ("long", 37_001)):  # 108 and 1 322 symbols a tail stripe
        payload = payload_bytes(5 * code.k * BLOCK + tail, seed=4)
        sfs.write_file(name, payload, lambda: code, max_block_bytes=BLOCK)
        assert calls == []
        assert sfs.read_file(name) == payload
        assert dfs.metrics.total("checksum_failures") == 0  # the read's CRC pass vouched for every row
        calls.clear()
    payload = payload_bytes(code.data_stripe_total * 1_300 - 5, seed=5)  # 1 300 symbols a stripe, padded
    dfs.write_file("plain", payload, code=code)
    assert calls == []
    assert dfs.read_file("plain") == payload
    calls.clear()
    assert all(crcs == row_crcs(block) for disk in dfs.store._disks.values() for crcs, block, _ in disk.values())
    dfs.store.put(0, "lone", 0, np.zeros((7, 1_300), dtype=np.uint8))
    assert calls == ["crc32_ranges"]


@contextmanager
def native_tier(native: bool, code):
    """Run with the native backend, or as a host without one
    (``REPRO_NATIVE_DISABLE=1``): ``code`` compiles its plans afresh on
    the way in and again on the way out."""
    with pytest.MonkeyPatch.context() as env:
        if not native:
            env.setenv("REPRO_NATIVE_DISABLE", "1")
        reset_native_backend()
        code.clear_plan_cache()
        try:
            yield
        finally:
            code.clear_plan_cache()
    reset_native_backend()


@pytest.mark.parametrize("native", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(
    code_name=st.sampled_from(["rs", "pyramid", "galloper"]),
    field=st.sampled_from(list(FIELDS)),
    groups=st.integers(0, 3),
    tail=st.sampled_from([0, 3_001, 37_001]),
    block=st.sampled_from([700, BLOCK]),  # stripes under and over 1 024 symbols
    down=st.none() | st.integers(0, 1_000),
    plain=st.booleans(),
)
def test_a_striped_write_stores_what_put_stores(native, code_name, field, groups, tail, block, down, plain):
    """Block for block, a striped write — or a plain ``write_file`` of the
    same payload, its stripes under or over 1 024 symbols, padded or not —
    stores the bytes and the row CRCs that ``BlockStore.put`` of each
    codes-layer block stores, and counts them alike; with a server failing
    as the store batch starts, the blocks before its first stay stored and
    counted, and none after it."""
    assume(groups or tail)
    code = CODES[code_name](FIELDS[field])
    payload = payload_bytes(groups * code.k * block + tail, seed=groups * 7 + tail)
    total = code.data_stripe_total
    group_payload = len(payload) if plain else code.k * block
    with native_tier(native, code):
        batched = DistributedFileSystem(Cluster.homogeneous(3 * code.n))
        reference = BlockStore(Cluster.homogeneous(3 * code.n))
        count = -(-len(payload) // group_payload)
        if plain:
            servers, names = [RoundRobinPlacement().place(reference.cluster, code.n)], ["s"]
        else:
            servers = _round_robin(reference.cluster, code.n, range(0, count * code.n, code.n))
            names = [f"s#g{g:04d}" for g in range(count)]
        items = []
        for g in range(count):
            symbols = np.frombuffer(payload[g * group_payload : (g + 1) * group_payload], dtype=np.uint8)
            grid = np.zeros(max(total, -(-symbols.size // total) * total), dtype=code.gf.dtype)
            grid[: symbols.size] = symbols
            blocks = code.encode(grid.reshape(total, -1))
            items += [(servers[g][b], names[g], b, blocks[b]) for b in range(code.n)]
        if down is not None:
            victim = items[down % len(items)][0]
            reference.cluster.fail(victim)
            put_many = batched.store._put_many

            def failing(*args):
                batched.cluster.fail(victim)  # after placement, as the batch starts
                return put_many(*args)

            batched.store._put_many = failing
        if plain:
            got = outcome(lambda: batched.write_file("s", payload, code=code))
        else:
            sfs = StripedFileSystem(batched)
            got = outcome(lambda: sfs.write_file("s", payload, lambda: code, max_block_bytes=block))
        want = outcome(lambda: [reference.put(*item) for item in items])
    assert got == want and (got is None) == (down is None)
    if got is not None:
        assert got[0] is BlockUnavailableError and not batched.files
    for server in range(3 * code.n):
        assert [(key, block.tobytes(), crcs) for key, (crcs, block, _) in batched.store._disks[server].items()] == [
            (key, block.tobytes(), crcs) for key, (crcs, block, _) in reference._disks[server].items()
        ]
    for name in ("disk_bytes_written", "blocks_written"):
        assert batched.metrics.by_server(name) == reference.metrics.by_server(name)


def stored_ranges(dfs) -> tuple[list, list]:
    """Every stored 2-D block of ``dfs`` as a whole-block read range, and the block."""
    store = dfs.store
    ranges = [
        (server, *key, 0, record[1].shape[0])
        for server, disk in store._disks.items()
        for key, record in disk.items()
        if record[1].ndim == 2
    ]
    return ranges, [store._disks[r[0]][r[1:3]][1] for r in ranges]


def vouched(store: BlockStore, ranges: list) -> list[bool]:
    """Per range, whether one batched verified read's CRC pass vouched for
    its rows (on clean hardware with every server up: whether it is plain)."""
    _, plain = store._range_reader(ranges, verify=True)
    return [booked is not None for booked in plain]


@pytest.mark.skipif(not NATIVE, reason="needs the native CRC kernel")
def test_handles_into_a_shared_buffer_outlive_the_writer():
    """A batched striped write keeps, per block, an address that points
    into the batch's one encode buffer and owns nothing.  With every array
    and handle the writer held gone and the freed memory written over,
    batched reads still vouch for every block at those addresses, and
    ``verify`` passes; a corrupted block gets a record of its own with a
    fresh address, fails its read's checksum and is recovered, and the
    block the scrubber rebuilds in its place is hashed afresh."""
    code = GalloperCode(4, 2, 1)
    dfs = DistributedFileSystem(Cluster.homogeneous(3 * code.n))
    sfs = StripedFileSystem(dfs)
    payload = payload_bytes(6 * code.k * BLOCK, seed=6)  # six full groups, no tail
    sfs.write_file("s", payload, lambda: code, max_block_bytes=BLOCK)
    store = dfs.store
    ranges, held = stored_ranges(dfs)
    assert len(ranges) == 6 * code.n
    # Ids, not the addresses: holding one here would keep alive what it points into.
    kept = {r[:3]: id(store._disks[r[0]][r[1:3]][2]) for r in ranges}
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
    assert all(vouched(store, ranges))
    assert all(id(store._disks[r[0]][r[1:3]][2]) == kept[r[:3]] for r in ranges)  # no address retaken
    assert all(store.verify(*r[:3]) for r in ranges)

    # Rot the first block of a group: it is stored anew with a fresh address,
    # and its next read fails the checksum and is recovered.
    ef = dfs.file("s#g0000")
    victim = (ef.server_of(0), "s#g0000", 0)
    store.corrupt(*victim, offset=5)
    assert id(store._disks[victim[0]][victim[1:]][2]) != kept[victim]
    assert sfs.read_file("s") == payload
    assert dfs.metrics.total("checksum_failures") >= 1
    del held, junk
    junk = scribble()
    ranges, held = stored_ranges(dfs)
    clean = vouched(store, ranges)
    assert [r[:3] for r, ok in zip(ranges, clean) if not ok] == [victim]
    assert [r[:3] for r in ranges if not store.verify(*r[:3])] == [victim]

    # The scrubber rebuilds the rotten block (once the read's failures have
    # cooled off the server's breaker); the rebuilt block is hashed afresh.
    dfs.clock.advance(RESET_TIMEOUT)
    assert Scrubber(dfs).scrub().corrupted == [("s#g0000", 0)]
    crcs, owner, _ = store._disks[victim[0]][victim[1:]]
    assert crcs == [zlib.crc32(row.tobytes()) for row in owner]
    del held, junk
    junk = scribble()
    ranges, held = stored_ranges(dfs)
    assert all(vouched(store, ranges))
    assert all(store.verify(*r[:3]) for r in ranges)
    failures = dfs.metrics.total("checksum_failures")
    assert sfs.read_file("s") == payload
    assert dfs.metrics.total("checksum_failures") == failures


@pytest.mark.parametrize("native", BACKENDS)
def test_a_batched_read_changes_no_record(native):
    """Every block's record is made when it is stored, address included:
    a batched verified read of small (``zlib``-hashed) and large blocks, of
    a corrupted one, of a 1-D one, of rows out of range and of a block not
    held replaces no record object and reads what a read range by range
    reads."""
    store = fresh_store(native, None)
    rng = np.random.default_rng(9)
    store.put(0, "small", 0, rng.integers(0, 256, size=(4, 100), dtype=np.uint8))
    store.put(0, "large", 0, rng.integers(0, 256, size=(4, 3_000), dtype=np.uint8))
    stack = rng.integers(0, 256, size=(3, 4, 1_500), dtype=np.uint8)  # one C-contiguous parent
    store._put_many([(1, "parent", b, block) for b, block in enumerate(stack)], [stack])
    store.put(1, "flat", 0, rng.integers(0, 256, size=5_000, dtype=np.uint8))
    store.put(2, "rot", 0, rng.integers(0, 256, size=(4, 2_000), dtype=np.uint8))
    store.corrupt(2, "rot", 0, offset=2_000 + 3)  # row 1
    records = {(server, key): record for server, disk in store._disks.items() for key, record in disk.items()}
    assert all((record[2] is not None) == (native and record[1].ndim == 2) for record in records.values())
    ranges = [
        (0, "small", 0, 0, 4), (0, "large", 0, 1, 3), (1, "parent", 1, 0, 4), (1, "parent", 2, 2, 2),
        (1, "flat", 0, 0, 5_000), (2, "rot", 0, 0, 1), (2, "rot", 0, 0, 4),
        (0, "large", 0, 3, 2), (3, "ghost", 0, 0, 1),
    ]

    def outcomes(read, count):
        return [outcome(lambda i=i: read(i)) or read(i)[0].tobytes() for i in range(count)]

    read, plain = store._range_reader(ranges, verify=True)
    assert [booked is not None for booked in plain] == [True, True, True, True, False, True, False, False, False]
    got = outcomes(read, len(ranges))
    alone = [outcomes(store._range_reader([r], verify=True)[0], 1)[0] for r in ranges]
    assert got == alone
    assert [type(o) for o in got] == [bytes] * 6 + [tuple] * 3
    assert {(server, key): record for server, disk in store._disks.items() for key, record in disk.items()} == records
    assert all(store._disks[server][key] is record for (server, key), record in records.items())


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
