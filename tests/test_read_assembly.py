"""Reads deliver, they do not stage.

Every whole-file and extent read is assembled from *pieces* — the
CRC-verified row views the resilient client returned, or slices of what a
degraded read rebuilt — joined once into the bytes returned.  This file
holds that contract:

* byte-exact reads for every code family x GF(2^8) / GF(2^16) x file size
  (empty, one byte, an exact multiple of ``k*N``, a padded tail, a striped
  file with a ragged last group) x failure mode (clean, one server down,
  two down so the file decodes in full, a helper that returns corrupted
  data, a flaky survivor, a stored row gone rotten on the clean path,
  checked by the native CRC kernel and by ``zlib``) x entry point, over
  blocks stored contiguously
  (``write_file``) and as column slices of a batched encode
  (``write_encoded``), with narrow rows (gathered) and wide ones (joined
  row by row);
* the I/O is the parent commit's, counter for counter: assembly changed
  the memory traffic, not the reads;
* a held view is as good as a copy: a stored array is never written in
  place, so bytes read before a later ``put``, ``corrupt``, repair or
  scrub heal do not change;
* a clean whole-file read allocates about the bytes it returns, not twice
  that (under ``tracemalloc``: no clock involved);
* reading a virtual file's content raises ``FileSystemError`` before any
  block is touched.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.codes import (
    CarouselCode,
    PyramidCode,
    ReedSolomonCode,
    ReplicationCode,
    RotatedPyramidCode,
)
from repro.core import GalloperCode
from repro.faults import FaultModel
from repro.faults.model import SilentCorruption, TransientErrors
from repro.gf import GF256, GF65536
from repro.storage import (
    BlockStore,
    DistributedFileSystem,
    FileSystemError,
    RepairManager,
    Scrubber,
    StripedFileSystem,
)
from repro.storage.health import RESET_TIMEOUT
from repro.storage.striped import group_name
from tests.conftest import payload_bytes, stored_block

CODES = {
    "rs": lambda gf: ReedSolomonCode(4, 3, gf=gf),
    "pyramid": lambda gf: PyramidCode(4, 2, 1, gf=gf),
    "galloper": lambda gf: GalloperCode(4, 2, 1, gf=gf),
    "galloper-hetero": lambda gf: GalloperCode(4, 2, 1, performances=[2, 1, 1, 2, 1, 1, 1], gf=gf),
    "rotated": lambda gf: RotatedPyramidCode(4, 2, 1, gf=gf),
    "carousel": lambda gf: CarouselCode(4, 2, gf=gf),
    "replication": lambda gf: ReplicationCode(3, 3, gf=gf),
}
FIELDS = {"gf8": GF256, "gf16": GF65536}
SCENARIOS = (
    "clean", "one_down", "two_down", "corrupting_helper", "flaky_survivor", "rotten_row", "rotten_row_zlib"
)

#: Symbols per stripe: rows of a few bytes, where a read's per-row costs
#: dominate, and rows over a kilobyte.
NARROW, WIDE = 24, 1100


@functools.lru_cache(maxsize=None)
def make_code(code_name: str, field: str = "gf8"):
    return CODES[code_name](FIELDS[field])


def file_sizes(code, stripe: int) -> dict[str, int]:
    total = code.data_stripe_total
    return {"empty": 0, "one": 1, "exact": total * stripe, "padded": total * stripe - stripe - 5}


def write_files(dfs, code, stripe: int) -> dict[str, bytes]:
    """Every size class, stored contiguously and as column slices of one encode of two files side by side."""
    payloads = {}
    for label, size in file_sizes(code, stripe).items():
        name = f"contig-{label}-{stripe}"
        payloads[name] = payload_bytes(size, seed=size + stripe)
        dfs.write_file(name, payloads[name], code=code)
    total = code.data_stripe_total
    pair = [payload_bytes(total * stripe, seed=stripe + i) for i in (1, 2)]
    grids = [np.frombuffer(p, dtype=np.uint8).astype(code.gf.dtype).reshape(total, stripe) for p in pair]
    both = code.encode(np.concatenate(grids, axis=1))
    for i, payload in enumerate(pair):
        blocks = both[:, :, i * stripe : (i + 1) * stripe]
        cut = (0, stripe + 5)[i]  # the second one carries padding behind its last stripe
        name = f"sliced-{i}-{stripe}"
        payloads[name] = payload[: len(payload) - cut]
        dfs.write_encoded(name, code, blocks, original_size=len(payload) - cut)
        assert not stored_block(dfs, dfs.file(name), 0).flags.c_contiguous or code.N == 1
    return payloads


def write_striped(sfs, code, stripe: int) -> bytes:
    """Three groups, the last one short and padded: full groups from one batched encode, the tail on its own."""
    block = code.N * stripe
    payload = payload_bytes(3 * code.k * block - (code.k * block // 2 + 11), seed=stripe)
    sfs.write_file(f"striped-{stripe}", payload, lambda: code, max_block_bytes=block)
    return payload


def rot_returned_rows(dfs) -> None:
    """In every file, flip a byte of the first and of the last stored row a
    clean read returns file bytes from: the file's first byte, and its last.
    No fault model is involved, so every read finds the rot on the clean
    path, where the rows are checked as they are read."""
    for ef in dfs.files.values():
        if not ef.original_size:
            continue
        holders = ef.code.read_plan().holders
        size = ef.stripe_size
        last = ef.original_size - 1
        spots = {(*holders[0], 0), (*holders[last // size], last % size)}
        for block, row, col in spots:
            dfs.store.corrupt(ef.server_of(block), ef.name, block, offset=row * size + col)


def apply_scenario(scenario: str, cluster, dfs, code) -> None:
    """Break the cluster the way the scenario says; block ``b`` of every plain file is on server ``b``."""
    serving = list(dict.fromkeys(run[0] for run in code.read_plan().runs))
    if scenario == "clean":
        return
    if scenario.startswith("rotten_row"):
        rot_returned_rows(dfs)
        if scenario == "rotten_row_zlib":
            dfs.store._crc_backend = None
        # Rot opens its server's breaker; reads a breaker timeout apart find
        # it half-open, so no read sees more servers lost than its own rot.
        read = dfs._read
        dfs._read = lambda *args, **kwargs: (dfs.clock.advance(RESET_TIMEOUT), read(*args, **kwargs))[1]
        return
    cluster.fail(serving[0])
    if scenario == "two_down":
        cluster.fail(serving[1])
    elif scenario == "corrupting_helper":
        helper = code.repair_plan(serving[0], {serving[0]}).helpers[0]
        dfs.store.install_faults(FaultModel(SilentCorruption(rate=1.0, servers=frozenset({helper}))), dfs.clock)
    elif scenario == "flaky_survivor":
        dfs.store.install_faults(
            FaultModel(TransientErrors(rate=0.6, servers=frozenset({serving[1]})), seed=5), dfs.clock
        )


def read_into(dfs, name: str) -> bytes:
    buf = bytearray(dfs.file(name).original_size)
    assert dfs.read_file_into(name, buf) == len(buf)
    return bytes(buf)


def extents(size: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        offset = int(rng.integers(0, size))
        yield offset, int(rng.integers(1, size - offset + 1))


# ------------------------------------------------------------ (a) byte-exact


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("code_name", CODES)
def test_every_read_is_byte_exact(code_name, field, scenario):
    code = make_code(code_name, field)
    cluster = Cluster.homogeneous(3 * code.n)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    files, striped = {}, {}
    for stripe in (NARROW, WIDE):
        files.update(write_files(dfs, code, stripe))
        striped[f"striped-{stripe}"] = write_striped(sfs, code, stripe)
    apply_scenario(scenario, cluster, dfs, code)

    for name, payload in files.items():
        assert dfs.read_file(name) == payload, name
        assert read_into(dfs, name) == payload, name
        assert dfs.read_bytes(name, 0, len(payload) + 9) == payload, name  # truncated at the end
        for offset, length in extents(len(payload), 4, seed=len(payload)) if payload else ():
            assert dfs.read_bytes(name, offset, length) == payload[offset : offset + length], (name, offset)
        for offset in {0, max(len(payload) - 3, 0)} if payload else ():  # the rows holding both ends, in part
            assert dfs.read_bytes(name, offset, 2) == payload[offset : offset + 2], (name, offset)
    group_payload = code.k * code.N * WIDE
    for name, payload in striped.items():
        assert sfs.read_file(name) == payload, name
        for offset, length in extents(len(payload), 6, seed=len(payload)):
            assert sfs.read_bytes(name, offset, length) == payload[offset : offset + length], (name, offset)
        for offset in (1, group_payload - 1, len(payload) - 2):  # within a group's first row, across groups, the end
            assert sfs.read_bytes(name, offset, 3) == payload[offset : offset + 3], (name, offset)
    if scenario == "clean":
        assert dfs.metrics.total("degraded_reads") == 0
    if scenario.startswith("rotten_row"):
        assert dfs.metrics.total("checksum_failures") > 0


def test_blocks_with_no_contiguous_rows_are_read_exactly():
    """``write_encoded`` stores what it is given: a Fortran-ordered array has no row that is one buffer."""
    code = make_code("galloper")
    for stripe in (NARROW, WIDE):
        dfs = DistributedFileSystem(Cluster.homogeneous(code.n))
        payload = payload_bytes(code.data_stripe_total * stripe, seed=stripe)
        grid = np.frombuffer(payload, dtype=np.uint8).reshape(code.data_stripe_total, stripe)
        dfs.write_encoded("f", code, np.asfortranarray(code.encode(grid)), original_size=len(payload) - 7)
        assert stored_block(dfs, dfs.file("f"), 0).strides[1] != 1
        assert dfs.read_file("f") == payload[:-7]
        assert dfs.read_bytes("f", stripe + 3, 3 * stripe) == payload[stripe + 3 : 4 * stripe + 3]


def test_whole_stripe_reads_return_fresh_arrays():
    code = make_code("galloper")
    dfs = DistributedFileSystem(Cluster.homogeneous(code.n))
    payload = payload_bytes(code.data_stripe_total * NARROW, seed=3)
    ef = dfs.write_file("f", payload, code=code)
    grid = dfs.read_stripes("f", 0, code.data_stripe_total)
    assert grid.tobytes() == payload
    grid[:] = 0  # the caller's own array, not a view of a disk
    assert dfs.read_file("f") == payload
    assert dfs.read_stripes("f", 3, 0).shape == (0, ef.stripe_size)


# ----------------------------------------------- (b) same reads as the parent

# ``Galloper/RS/Pyramid(4, ...)`` over GF(2^8), a plain file and a striped
# one (3 groups, ragged tail, 24-byte stripes), the server of block 0 down;
# recorded at the parent commit by running ``io_counters`` there.
# The Galloper cell was re-recorded when a degraded whole-file read began
# to read, of block 0's group mates, only the rows its four data rows are
# rebuilt from (``helper_rows.reads(0, 4)``) instead of both blocks whole:
# each of the three whole-file reads (plain, ``read_file_into``, striped
# group 0) reads 4 of 7 rows from servers 1 and 2 (885 -> 675 bytes each),
# and server 2's named rows are two runs, one range each (9 -> 12 reads).
# The RS and Pyramid cells (a row is the block) did not move.
PARENT_COUNTERS = {
    "rs": {
        "blocks_read": {1: 12, 2: 10, 3: 11, 4: 4, 7: 2, 8: 2, 9: 2, 10: 3, 14: 2, 15: 2, 16: 2, 17: 1},
        "disk_bytes_read": {1: 232, 2: 198, 3: 215, 4: 75, 7: 48, 8: 48, 9: 48, 10: 72, 14: 20, 15: 20, 16: 20, 17: 10},
        "degraded_reads": 4,
    },
    "pyramid": {
        "blocks_read": {1: 12, 2: 4, 3: 6, 4: 7, 7: 2, 8: 2, 10: 2, 11: 3, 14: 2, 15: 2, 17: 2, 18: 1},
        "disk_bytes_read": {
            1: 232, 2: 75, 3: 123, 4: 140, 7: 48, 8: 48, 10: 48, 11: 72, 14: 20, 15: 20, 17: 20, 18: 10
        },
        "degraded_reads": 4,
    },
    "galloper": {
        "blocks_read": {
            1: 8, 2: 12, 3: 7, 4: 6, 5: 7, 6: 7, 7: 2, 8: 2, 9: 2, 10: 2, 11: 2, 12: 2, 13: 2, 14: 3, 15: 2,
            16: 2, 17: 2, 18: 2, 19: 1, 20: 1
        },
        "disk_bytes_read": {
            1: 675, 2: 675, 3: 633, 4: 564, 5: 587, 6: 470, 7: 192, 8: 192, 9: 192, 10: 192, 11: 192, 12: 192,
            13: 192, 14: 144, 15: 60, 16: 96, 17: 96, 18: 96, 19: 48, 20: 48
        },
        "degraded_reads": 4,
    },
}


def io_counters(code_name: str) -> dict:
    """Counters of a fixed degraded workload: every kind of read, once the server of block 0 is down."""
    code = make_code(code_name)
    cluster = Cluster.homogeneous(3 * code.n)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    plain = payload_bytes(code.data_stripe_total * NARROW - 29, seed=1)
    dfs.write_file("plain", plain, code=code)
    striped = write_striped(sfs, code, NARROW)
    cluster.fail(0)
    dfs.metrics.reset()
    assert dfs.read_file("plain") == plain
    assert read_into(dfs, "plain") == plain
    assert sfs.read_file(f"striped-{NARROW}") == striped
    for offset, length in extents(len(plain), 4, seed=2):
        assert dfs.read_bytes("plain", offset, length) == plain[offset : offset + length]
    for offset, length in extents(len(striped), 4, seed=3):
        assert sfs.read_bytes(f"striped-{NARROW}", offset, length) == striped[offset : offset + length]
    return {
        "blocks_read": dfs.metrics.by_server("blocks_read"),
        "disk_bytes_read": dfs.metrics.by_server("disk_bytes_read"),
        "degraded_reads": dfs.metrics.total("degraded_reads"),
    }


@pytest.mark.parametrize("code_name", PARENT_COUNTERS)
def test_reads_issued_are_the_parents(code_name):
    assert io_counters(code_name) == PARENT_COUNTERS[code_name]


def test_copy_accounting_counts_field_narrowing_and_nothing_else():
    for field, narrowed in (("gf8", False), ("gf16", True)):
        code = make_code("galloper", field)
        dfs = DistributedFileSystem(Cluster.homogeneous(3 * code.n))
        sfs = StripedFileSystem(dfs)
        payload = write_striped(sfs, code, NARROW)  # a padded tail group: padding is trimmed, not copied
        dfs.write_file("plain", payload[:1000], code=code)
        dfs.metrics.reset()
        assert sfs.read_file(f"striped-{NARROW}") == payload
        assert read_into(dfs, "plain") == payload[:1000]
        delivered = len(payload) + 1000
        assert dfs.metrics.total("bytes_copied") == (delivered if narrowed else 0)
        assert dfs.metrics.total("bytes_moved_zero_copy") == (0 if narrowed else delivered)


# ------------------------------------------------ (c) a held view stays valid


def test_bytes_read_before_a_later_write_never_change():
    code = make_code("galloper")
    cluster = Cluster.homogeneous(2 * code.n)
    dfs = DistributedFileSystem(cluster)
    payload = payload_bytes(code.data_stripe_total * WIDE, seed=4)
    ef = dfs.write_file("f", payload, code=code)
    server = ef.server_of(0)
    (pieces,), _ = dfs._read_available_stripes([(ef, code.read_plan().runs)])
    assert np.shares_memory(pieces[0], stored_block(dfs, ef, 0))  # views, not copies
    held = [piece.copy() for piece in pieces]

    def unchanged():
        return all(np.array_equal(piece, copy) for piece, copy in zip(pieces, held))

    dfs.store.corrupt(server, "f", 0, offset=3)  # rot replaces the stored array
    assert unchanged() and not np.shares_memory(pieces[0], stored_block(dfs, ef, 0))
    report = Scrubber(dfs).scrub()  # heals block 0 back onto its server
    assert report.corrupted == [("f", 0)] and unchanged() and dfs.read_file("f") == payload
    cluster.fail(ef.server_of(1))
    RepairManager(dfs).repair_block("f", 1)  # rebuilt elsewhere
    assert unchanged()
    dfs.store.put(server, "f", 0, np.zeros_like(stored_block(dfs, ef, 0)))  # overwritten outright
    assert unchanged()
    assert b"".join(piece.tobytes() for piece in pieces) == payload


def test_no_block_store_method_writes_into_a_stored_array():
    cluster = Cluster.homogeneous(2)
    store = BlockStore(cluster)
    block = np.arange(4 * 300, dtype=np.uint8).reshape(4, 300)
    pristine = block.copy()
    block.flags.writeable = False  # an in-place write would raise
    store.install_faults(FaultModel(SilentCorruption(rate=1.0)))
    for key in ("a", "b"):
        store.put(0, key, 0, block)
    rows, _ = store.timed_read_rows(0, "a", 0, 1, 2)  # corrupted on the way out: a copy was
    assert not np.array_equal(rows, pristine[1:3]) and not np.shares_memory(rows, block)
    assert not np.array_equal(store.get(0, "a", 0), pristine)
    assert store.read_rows(0, "a", 0, 0, 4) is not None and store.verify(0, "a", 0)
    store.corrupt(0, "a", 0, offset=7)
    assert not store.verify(0, "a", 0) and store.verify(0, "b", 0)
    store.put(0, "a", 0, block)
    store.drop(0, "a", 0)
    assert store.drop_server(0) == 1
    assert np.array_equal(block, pristine)


# ------------------------------------------------ (d) one pass, by allocation


def traced_peak(fn) -> tuple[int, object]:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def test_a_whole_file_read_allocates_about_what_it_returns():
    code = make_code("galloper")
    cluster = Cluster.homogeneous(30)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    block = 7 * 9000  # rows wide enough to be joined where they lie
    payload = payload_bytes(8 * code.k * block - 12_345, seed=6)
    sfs.write_file("f", payload, lambda: code, max_block_bytes=block)
    assert sfs.read_file("f") == payload  # plans compiled, caches warm
    size = len(payload)

    peak, data = traced_peak(lambda: sfs.read_file("f"))
    assert data == payload
    assert peak < 1.25 * size  # the parent staged it: a zeroed bytearray plus the bytes, >= 2x

    victim = dfs.file(group_name("f", 0)).server_of(0)
    rebuilt = sum(dfs.file(g).block_size for g in sfs.file("f").group_names() if dfs.file(g).blocks_on_server(victim))
    cluster.fail(victim)
    assert sfs.read_file("f") == payload
    peak, data = traced_peak(lambda: sfs.read_file("f"))
    assert data == payload
    # The rebuilt blocks are held until the join; their stacked helpers are gone by then.
    assert peak < 1.25 * size + rebuilt
    dfs_peak, data = traced_peak(lambda: dfs.read_file(group_name("f", 1)))
    assert data == payload[code.k * block : 2 * code.k * block]
    assert dfs_peak < 1.25 * code.k * block + dfs.file(group_name("f", 1)).block_size


# ------------------------------------------------------- (e) virtual files


def test_reading_a_virtual_file_raises_before_any_read():
    code = make_code("galloper")
    dfs = DistributedFileSystem(Cluster.homogeneous(code.n))
    dfs.write_virtual_file("v", 10_000, code=code)
    reads = (
        lambda: dfs.read_file("v"),
        lambda: dfs.read_file_into("v", bytearray(10_000)),
        lambda: dfs.read_bytes("v", 10, 100),
        lambda: dfs.read_stripes("v", 0, 2),
    )
    for read in reads:
        with pytest.raises(FileSystemError) as err:
            read()
        assert err.value.cause == "virtual" and err.value.file == "v"
    assert dfs.metrics.snapshot() == {}  # not one block probed
    assert dfs.file("v").original_size == 10_000  # metadata stays readable
