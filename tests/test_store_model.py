"""A stateful model of the block store.

Hypothesis drives a ``BlockStore`` through interleavings of writes (a lone
``put``, a ``_put_many`` batch over one C-contiguous parent with and
without the encode's row CRCs, and one over a repair bucket's blocks of
several files as one list parent), rot (``corrupt``), loss (``drop``,
``drop_server``), server failure and recovery, verified reads (a lone
``read_rows``, a batch of three ranges or more through ``_range_reader``,
and one of one to three ranges delivered into a fresh output, as a read
that returns the bytes makes it) and scrubs (``verify``), and checks every
step against a dict model: each held block's bytes, the ``zlib`` CRC-32 of
each of its rows as written, and which servers are down.  A verified read
returns the model's bytes or raises with the cause the model names, a
batch marks plain exactly the ranges an attempt reads clean, the window of
every plain range of a delivered batch holds the model's bytes, and the
three read counters add up to what the model says every attempt moved.  The machine runs on the native CRC
kernel and on a store without it (``_crc_backend = None``).
"""

import zlib
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.cluster import Cluster
from repro.storage import BlockStore, BlockUnavailableError, StorageError

SERVERS = 3
FILES = ("a", "b")
BLOCKS = 3
READ_COUNTERS = ("disk_bytes_read", "blocks_read", "read_latency")
NATIVE = BlockStore(Cluster.homogeneous(1))._crc_backend is not None

keys = st.tuples(st.integers(0, SERVERS - 1), st.sampled_from(FILES), st.integers(0, BLOCKS - 1))
servers = st.integers(0, SERVERS - 1)


def row_crcs(data: np.ndarray) -> list[int]:
    """``zlib``'s CRC-32 of each row; a 1-D block is one row."""
    rows = data.reshape(1, -1) if data.ndim == 1 else data
    return [zlib.crc32(np.ascontiguousarray(row).tobytes()) for row in rows]


def addressable(data: np.ndarray) -> bool:
    """Whether the native kernel can read ``data``'s rows in place."""
    return data.ndim == 2 and data.size > 0 and data.strides[1] == data.itemsize


@st.composite
def payloads(draw) -> np.ndarray:
    """uint8 / uint16 blocks: 1-D, 2-D, a column slice, zero-width; under and over 4 KiB."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    kind = draw(st.sampled_from(["1-d", "2-d", "column-slice", "zero-width"]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.sampled_from([3, 200, 2_500]))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    wide = rng.integers(0, 1 << 8 * np.dtype(dtype).itemsize, size=(rows, 2 * cols + 1), dtype=dtype)
    if kind == "1-d":
        return wide.reshape(-1)[: rows * cols]
    if kind == "column-slice":
        return wide[:, 1 : 1 + cols]
    if kind == "zero-width":
        return np.zeros((rows, 0), dtype=dtype)
    return np.ascontiguousarray(wide[:, :cols])


def outcome(fn):
    """What one verified read did: the rows it returned, or why it raised."""
    try:
        rows, _ = fn()
    except BlockUnavailableError as exc:
        return exc.cause
    except StorageError:
        return "range"
    return rows.dtype, rows.shape, rows.tobytes()


class StoreMachine(RuleBasedStateMachine):
    native = True

    def __init__(self):
        super().__init__()
        self.store = BlockStore(Cluster.homogeneous(SERVERS))
        if not self.native:
            self.store._crc_backend = None
        self.bandwidth = self.store.cluster.server(0).disk_bandwidth
        # (server, file, block) -> (bytes on disk, row CRCs as written, rows the kernel reads in place)
        self.blocks: dict[tuple, tuple[np.ndarray, list[int], bool]] = {}
        self.down: set[int] = set()
        self.moved = {name: defaultdict(float) for name in READ_COUNTERS}
        self.totals = dict.fromkeys(READ_COUNTERS, 0.0)
        # Every array handed to the store stays alive here, so an address a
        # record should no longer use still reads live memory, not garbage.
        self.arrays: list[np.ndarray] = []

    # ------------------------------------------------------------ the model

    def book(self, name: str, server: int, amount: float) -> None:
        self.moved[name][server] += amount
        self.totals[name] += amount

    def attempt(self, key: tuple, start: int, count: int):
        """One verified attempt at rows ``start .. start + count`` of ``key``,
        by the model: what :func:`outcome` should see, with the counters an
        attempt that reaches the disk adds booked."""
        server = key[0]
        if server in self.down:
            return "server_down"
        if key not in self.blocks:
            return "missing"
        data, crcs, _ = self.blocks[key]
        if start + count > len(data):
            return "range"
        rows = data[start : start + count]
        self.book("disk_bytes_read", server, rows.nbytes)
        self.book("blocks_read", server, 1 if count else 0)
        self.book("read_latency", server, rows.nbytes / self.bandwidth)
        if row_crcs(rows) != crcs[start : start + (count if data.ndim == 2 else 1)]:
            return "checksum"
        return rows.dtype, rows.shape, rows.tobytes()

    def plain(self, key: tuple, start: int, count: int, want) -> bool:
        """Whether a batch of three ranges or more marks the range plain:
        it reads clean, 2-D rows, one or more of them, and the shared pass
        can check them (``zlib`` row by row, or the kernel at the address
        the record keeps)."""
        if not isinstance(want, tuple) or not count:
            return False
        data, _, in_place = self.blocks[key]
        return data.ndim == 2 and (not self.native or in_place)

    def pick(self, data) -> tuple:
        """A key: one the model holds as often as not."""
        return data.draw(st.sampled_from(sorted(self.blocks)) | keys if self.blocks else keys)

    def held(self, key: tuple, data: np.ndarray, crcs: list[int] | None = None) -> None:
        self.arrays.append(data)
        self.blocks[key] = (data, row_crcs(data) if crcs is None else crcs, addressable(data))

    # ---------------------------------------------------------------- rules

    @initialize(given=st.booleans(), seed=st.integers(0, 1 << 16), rot=st.none() | st.integers(0, 1 << 20))
    def a_file(self, given, seed, rot):
        """Every run starts with a file's blocks held, one per server, one
        of them rotten as often as not."""
        self.put_many("a", list(range(SERVERS)), 2, 2_100, given, seed)
        if rot is not None:
            self.rot((rot % SERVERS, "a", rot % SERVERS), rot)

    @rule(key=keys, payload=payloads())
    def put(self, key, payload):
        if key[0] in self.down:
            with pytest.raises(BlockUnavailableError) as caught:
                self.store.put(*key, payload)
            assert caught.value.cause == "server_down"
            return
        self.store.put(*key, payload)
        self.held(key, payload)

    @rule(
        file=st.sampled_from(FILES),
        homes=st.lists(servers, min_size=1, max_size=BLOCKS),
        rows=st.integers(1, 3),
        cols=st.sampled_from([5, 2_100]),  # blocks of two rows or more are over 4 KiB
        given=st.booleans(),
        seed=st.integers(0, 1 << 16),
    )
    def put_many(self, file, homes, rows, cols, given, seed):
        """A file's blocks as one C-contiguous parent, block ``b`` on
        ``homes[b]``; ``given`` hands over the encode's row CRCs."""
        stack = np.random.default_rng(seed).integers(0, 256, size=(len(homes), rows, cols), dtype=np.uint8)
        items = [(server, file, b, stack[b]) for b, server in enumerate(homes)]
        crcs = [np.array([zlib.crc32(row) for row in stack.reshape(-1, cols)], dtype=np.uint32)] if given else None
        stop = next((i for i, server in enumerate(homes) if server in self.down), len(items))
        if stop < len(items):
            with pytest.raises(BlockUnavailableError) as caught:
                self.store._put_many(items, [stack], crcs)
            assert (caught.value.cause, caught.value.server, caught.value.block) == ("server_down", homes[stop], stop)
        else:
            self.store._put_many(items, [stack], crcs)
        for server, _, b, block in items[:stop]:
            self.held((server, file, b), block)

    @rule(
        block=st.integers(0, BLOCKS - 1),
        homes=st.lists(servers, min_size=1, max_size=len(FILES)),
        rows=st.integers(1, 3),
        widths=st.lists(st.sampled_from([5, 1_300, 2_100]), min_size=len(FILES), max_size=len(FILES)),
        given=st.booleans(),
        seed=st.integers(0, 1 << 16),
    )
    def put_bucket(self, block, homes, rows, widths, given, seed):
        """The shape a repair bucket stores: block ``block`` of several
        files, ``FILES[j]``'s on ``homes[j]``, as one list parent whose
        blocks (ragged widths, one row count) lie end to end in one buffer;
        ``given`` hands over the kernel's row CRCs."""
        widths = widths[: len(homes)]
        buf = np.random.default_rng(seed).integers(0, 256, size=rows * sum(widths), dtype=np.uint8)
        bounds = np.cumsum([0, *widths]) * rows
        blocks = [buf[lo:hi].reshape(rows, -1) for lo, hi in zip(bounds[:-1], bounds[1:])]
        items = [(server, FILES[j], block, blocks[j]) for j, server in enumerate(homes)]
        crcs = [np.array([c for b in blocks for c in row_crcs(b)], dtype=np.uint32)] if given else None
        stop = next((i for i, server in enumerate(homes) if server in self.down), len(items))
        if stop < len(items):
            with pytest.raises(BlockUnavailableError) as caught:
                self.store._put_many(items, [blocks], crcs)
            assert (caught.value.cause, caught.value.server, caught.value.file) == ("server_down", homes[stop], FILES[stop])
        else:
            self.store._put_many(items, [blocks], crcs)
        for server, file, b, data in items[:stop]:
            self.held((server, file, b), data)

    @rule(data=st.data(), offset=st.integers(0, 1 << 20))
    def corrupt(self, data, offset):
        self.rot(self.pick(data), offset)

    def rot(self, key: tuple, offset: int) -> None:
        if key not in self.blocks or not self.blocks[key][0].size:
            with pytest.raises(StorageError, match="cannot corrupt"):
                self.store.corrupt(*key, offset=offset)
            return
        block, crcs, _ = self.blocks[key]
        rotten = block.copy()
        flat = rotten.reshape(-1)
        flat[offset % flat.size] ^= 0xFF
        self.store.corrupt(*key, offset=offset)
        self.held(key, rotten, crcs)

    @rule(data=st.data())
    def drop(self, data):
        key = self.pick(data)
        self.store.drop(*key)
        self.blocks.pop(key, None)

    @rule(server=servers)
    def drop_server(self, server):
        lost = [key for key in self.blocks if key[0] == server]
        assert self.store.drop_server(server) == len(lost)
        for key in lost:
            del self.blocks[key]

    @rule(server=servers)
    def fail(self, server):
        if server not in self.down:
            self.store.cluster.fail(server)
            self.down.add(server)

    @rule(server=servers)
    def recover(self, server):
        if server in self.down:
            self.store.cluster.recover(server)
            self.down.discard(server)

    @rule(data=st.data(), start=st.integers(0, 4), count=st.integers(0, 4), whole=st.booleans())
    def read_rows(self, data, start, count, whole):
        key = self.pick(data)
        if whole and key in self.blocks:
            start, count = 0, len(self.blocks[key][0])
        want = self.attempt(key, start, count)
        assert outcome(lambda: self.store.timed_read_rows(*key, start, count, verify=True)) == want

    @precondition(lambda self: self.blocks)
    @rule(data=st.data())
    def read_batch(self, data):
        """Three ranges or more, of held blocks (whole, in part, past their
        end), of keys held or not, on servers up or down: one
        ``_range_reader`` batch, every range attempted once.  Half the
        batches read every held block whole, then a key not held and rows
        past the end of a held block."""
        ranges = []
        if data.draw(st.booleans()):
            ranges = [(*key, 0, len(self.blocks[key][0])) for key in sorted(self.blocks)]
            ranges.append((0, "ghost", 0, 0, 1))
            key = data.draw(st.sampled_from(sorted(self.blocks)))
            ranges.append((*key, len(self.blocks[key][0]), 1))
        for _ in range(data.draw(st.integers(3, 6)) if not ranges else 0):
            key = self.pick(data)
            start = data.draw(st.integers(0, 4) | st.just(0))
            count = data.draw(st.integers(0, 4) | st.none())
            if count is None:  # every row from start on
                count = max(0, len(self.blocks[key][0]) - start) if key in self.blocks else 1
            ranges.append((*key, start, count))
        read, plain = self.store._range_reader(ranges, verify=True)
        for i, (server, file, block, start, count) in enumerate(ranges):
            want = self.attempt((server, file, block), start, count)
            assert (plain[i] is not None) == self.plain((server, file, block), start, count, want)
            if plain[i] is not None:
                rows, nbytes, latency = plain[i]
                assert (rows.dtype, rows.shape, rows.tobytes()) == want
                assert (nbytes, latency) == (rows.nbytes, rows.nbytes / self.bandwidth)
            assert outcome(lambda i=i: read(i)) == want

    @precondition(lambda self: self.blocks)
    @rule(data=st.data(), kind=st.sampled_from([bytes, bytearray]))
    def read_delivered(self, data, kind):
        """One to three ranges, each with a window of its rows' bytes, read
        in one ``_range_reader`` batch that delivers into a fresh output of
        ``kind``: the batch marks plain what the shared pass marks, and if
        the pass asked for the output (the native kernel checked a range),
        every plain range's window holds the model's bytes; ``zlib`` asks
        for none.  Every range is then attempted once."""
        ranges, windows, at = [], [], 0
        for _ in range(data.draw(st.integers(1, 3))):
            key = self.pick(data)
            start, count = data.draw(st.integers(0, 4) | st.just(0)), data.draw(st.integers(0, 4))
            block = self.blocks.get(key, (None,))[0]
            inside = block is not None and block.ndim == 2 and start + count <= len(block)
            nbytes = block[start : start + count].nbytes if inside else 0
            lo = data.draw(st.integers(0, nbytes))
            hi = data.draw(st.integers(lo, nbytes))
            ranges.append((*key, start, count))
            windows += (at, lo, hi)
            at += hi - lo
        made = []

        def output():
            made.append(kind(at))
            return made[-1]

        read, plain = self.store._range_reader(ranges, verify=True, into=(output, windows))
        assert len(made) <= 1
        assert not made or self.native
        for i, (server, file, block, start, count) in enumerate(ranges):
            want = self.attempt((server, file, block), start, count)
            assert (plain[i] is not None) == self.plain((server, file, block), start, count, want)
            if plain[i] is not None:
                assert (plain[i][0].dtype, plain[i][0].shape, plain[i][0].tobytes()) == want
                if made:
                    place, lo, hi = windows[3 * i : 3 * i + 3]
                    assert bytes(made[0][place : place + hi - lo]) == want[2][lo:hi]
            assert outcome(lambda i=i: read(i)) == want

    @rule(data=st.data())
    def verify(self, data):
        key = self.pick(data)
        if key[0] in self.down or key not in self.blocks:
            with pytest.raises(BlockUnavailableError) as caught:
                self.store.verify(*key)
            assert caught.value.cause == ("server_down" if key[0] in self.down else "missing")
            return
        block, crcs, _ = self.blocks[key]
        self.book("disk_bytes_read", key[0], block.nbytes)
        assert self.store.verify(*key) == (row_crcs(block) == crcs)

    # ----------------------------------------------------------- invariants

    @invariant()
    def holds_what_the_model_holds(self):
        stored = {(server, *key) for server, disk in self.store._disks.items() for key in disk}
        assert stored == set(self.blocks)

    @invariant()
    def read_counters_match(self):
        metrics = self.store.metrics
        for name in READ_COUNTERS:
            assert metrics.total(name) == self.totals[name], name
            got = {server: amount for server, amount in metrics.by_server(name).items() if amount}
            assert got == {server: amount for server, amount in self.moved[name].items() if amount}, name


MODEL_SETTINGS = settings(max_examples=25, stateful_step_count=30, deadline=None)


@pytest.mark.skipif(not NATIVE, reason="needs the native CRC kernel")
class TestStoreOnTheNativeKernel(StoreMachine.TestCase):
    settings = MODEL_SETTINGS


class ZlibStoreMachine(StoreMachine):
    native = False


class TestStoreOnZlib(ZlibStoreMachine.TestCase):
    settings = MODEL_SETTINGS
