"""What a read books, pinned; how it delivers the bytes, checked.

A read makes one pass over the bytes it reads and returns: the CRC pass over
the rows it reads copies them into the output as it hashes them
(``NativeBackend.crc32_deliver``), into a ``bytes`` made for it — no
``crc32_ranges`` pass first, no ``bytes.join`` after; a degraded read
copies what it rebuilt into the same output.  A buffer a read cannot fill
is refused before any block is read.

Two seeded read workloads, one shaped like ``bulk_io`` (two stripe groups
of large blocks) and one like ``striped_io`` (many groups of small blocks,
a ragged tail, extents of a few stripes), each read clean and then with
the server of block 0 down, through every entry point: striped
``read_file`` / ``read_bytes``, and on one group ``read_file``,
``read_file_into``, ``read_bytes`` and ``read_stripes``.  After every read
the state is dumped (per-server ``blocks_read``, ``disk_bytes_read`` and
``read_latency``, the ``read_latency_s`` samples, every breaker and the
DFS clock), and each workload is reduced to one SHA-256 per code.  The
digests were recorded before reads began to verify rows as they copy
them; how a read assembles its bytes is free to change, what it books is
not.
"""

import hashlib
import json
import sys

import pytest

from repro.cluster import Cluster
from repro.gf.native import get_backend
from repro.storage import DistributedFileSystem, FileSystemError, StripedFileSystem
from repro.storage.striped import group_name
from tests.conftest import payload_bytes
from tests.test_read_batch import health_state
from tests.test_read_plan import make_code

CODES = ("rs", "pyramid", "galloper")

#: ``(groups, tail bytes, block bytes, servers, extents, extent bytes)``.
SHAPES = {
    "bulk": (2, 0, 7 * 3000, 12, 3, 5000),
    "striped": (24, 301, 7 * 300, 30, 20, 512),
}


def state(dfs) -> dict:
    metrics = dfs.metrics
    return {
        "counters": {
            name: sorted(metrics.by_server(name).items())
            for name in ("blocks_read", "disk_bytes_read", "read_latency")
        },
        "latencies": [value.hex() for value in metrics.histogram("read_latency_s")._values],
        "health": health_state(dfs.health),
        "clock": dfs.clock.now.hex(),
    }


def reads(code_name: str, shape: str, seed: int = 3):
    """Run the workload; returns the SHA-256 of the states after each read."""
    groups, tail, block, servers, count, size = SHAPES[shape]
    code = make_code(code_name)
    cluster = Cluster.homogeneous(servers)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    payload = payload_bytes(groups * code.k * block + tail, seed=seed)
    sfs.write_file("f", payload, lambda: code, max_block_bytes=block)
    group = group_name("f", 1)
    base = sfs.file("f").group_payload
    inner = payload[base : 2 * base]
    stripe = dfs.file(group).stripe_size
    offsets = payload_bytes(4 * count, seed=seed + 1)
    extents = [int.from_bytes(offsets[4 * i : 4 * i + 4], "little") % (len(payload) - size) for i in range(count)]
    states = []
    for phase in ("clean", "degraded"):
        if phase == "degraded":
            cluster.fail(dfs.file(group_name("f", 0)).server_of(0))
        assert sfs.read_file("f") == payload
        states.append(state(dfs))
        for offset in extents:
            assert sfs.read_bytes("f", offset, size) == payload[offset : offset + size]
        states.append(state(dfs))
        assert dfs.read_file(group) == inner
        buf = bytearray(len(inner))
        assert dfs.read_file_into(group, buf) == len(inner) and buf == inner
        assert dfs.read_bytes(group, stripe // 2, 3 * stripe) == inner[stripe // 2 : stripe // 2 + 3 * stripe]
        assert dfs.read_stripes(group, 1, 2).tobytes() == inner[stripe : 3 * stripe]
        states.append(state(dfs))
    return hashlib.sha256(json.dumps(states, sort_keys=True).encode()).hexdigest()


PINNED = {
    ("rs", "bulk"): "e80b73bf2062a793a18f62a1457a1d68a25a771dbec6e92d11276d508edb0d5f",
    ("rs", "striped"): "1cc3ca9da0b99dd10ffc5f85d2deb8e0d2bdbe73a5a68bf80faf605ebc64f7e8",
    ("pyramid", "bulk"): "fa0f0c133b52ec8cc6b6745c2f96a8b3a4fdce6bcd7927f3fca7b5bebd6916bf",
    ("pyramid", "striped"): "6feb63d2fda628dbb8bf6e13797c5bad2b831aef8236a587e93d0ee6d4e77492",
    ("galloper", "bulk"): "7dee9f18a2b9d82cc614e14d1d63493301b21729328375f7d6bf570f554915c2",
    ("galloper", "striped"): "07eca54e119e8ff76f70d334317249bd0dce40803cb89ee1d460cacdb873cf24",
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("code_name", CODES)
def test_reads_book_what_the_parent_booked(code_name, shape):
    assert reads(code_name, shape) == PINNED[code_name, shape]


def c_calls(fn):
    """``fn()``'s result and the builtins it called, as ``(type of their
    self, name)``, through a profile hook."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append((type(getattr(arg, "__self__", None)).__name__, arg.__name__))

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


@pytest.mark.skipif(get_backend() is None or not get_backend().has_crc32, reason="needs the native CRC kernel")
@pytest.mark.parametrize("code_name", CODES)
def test_a_clean_read_makes_one_pass(code_name, monkeypatch):
    """A clean whole-file read, striped or plain, and a clean extent are
    each one delivering kernel call: no other CRC call, no join."""
    code = make_code(code_name)
    dfs = DistributedFileSystem(Cluster.homogeneous(2 * code.n))
    sfs = StripedFileSystem(dfs)
    block = code.N * 2000
    payload = payload_bytes(5 * code.k * block - 77, seed=12)
    sfs.write_file("f", payload, lambda: code, max_block_bytes=block)
    group = group_name("f", 2)
    backend = dfs.store._crc_backend
    kernel = []
    for name in ("crc32_ranges", "crc32_rows", "crc32_deliver"):
        real = getattr(backend, name)
        monkeypatch.setattr(backend, name, lambda *args, _real=real, _name=name: kernel.append(_name) or _real(*args))
    reads = {
        "striped read_file": (lambda: sfs.read_file("f"), payload),
        "read_file": (lambda: dfs.read_file(group), payload[2 * code.k * block : 3 * code.k * block]),
        "extent": (lambda: sfs.read_bytes("f", 3 * block - 5, 4096), payload[3 * block - 5 : 3 * block + 4091]),
    }
    for what, (read, want) in reads.items():
        kernel.clear()
        data, calls = c_calls(read)
        assert data == want, what
        assert kernel == ["crc32_deliver"], what
        assert ("bytes", "join") not in calls, what
    assert dfs.metrics.total("degraded_reads") == 0
    # A degraded read delivers what it read in the same one call; its helper
    # rows are checked in a batch of their own, and what it rebuilt is copied.
    dfs.cluster.fail(dfs.file(group).server_of(0))
    for what in ("striped read_file", "read_file"):
        read, want = reads[what]
        kernel.clear()
        assert read() == want, what
        assert kernel.count("crc32_deliver") == 1, what
    assert dfs.metrics.total("degraded_reads") > 0


def test_read_file_into_refuses_a_buffer_it_cannot_fill_before_reading():
    code = make_code("galloper")
    dfs = DistributedFileSystem(Cluster.homogeneous(code.n))
    payload = payload_bytes(635, seed=8)
    dfs.write_file("f", payload, code=code)
    before = (dfs.metrics.snapshot(), dfs.clock.now)
    for buf, what in ((bytearray(10), "writable buffer of 10 bytes"), (bytes(635), "read-only buffer of 635 bytes")):
        with pytest.raises(FileSystemError) as err:
            dfs.read_file_into("f", buf)
        assert err.value.cause == "buffer" and err.value.file == "f"
        assert "635 bytes" in str(err.value) and what in str(err.value)
    assert (dfs.metrics.snapshot(), dfs.clock.now) == before  # not one block probed, no clock advance
    buf = bytearray(640)
    assert dfs.read_file_into("f", buf) == 635 and buf[:635] == payload and buf[635:] == bytes(5)
