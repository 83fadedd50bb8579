"""Every read entry point against a bytes model.

Hypothesis draws a code (RS, Pyramid, Galloper, rotated-RAID) over GF(2^8)
or GF(2^16), a plain or a striped file, 0, 1 or 2 failed servers, maybe a
flaky helper, and a few whole-file reads and ``(offset, length)`` extents.
``read_bytes``, ``read_file``, ``read_file_into`` and ``read_stripes``
(and the striped ``read_file`` / ``read_bytes``) must each return the
slice of the payload the read names: the model is the payload itself.

They are one routine, so one rule prices them all.  With one block lost
and nothing flaky a read reads, per server, exactly the runs it covers
that survive plus the helper rows (``helper_rows.reads``) of the rows
between the first and the last missing one.  Missing runs in two blocks
send the read to the full decode, extents included.
"""

import functools
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode, RotatedPyramidCode
from repro.core import GalloperCode
from repro.faults import FaultModel
from repro.faults.model import TransientErrors
from repro.gf import GF256, GF65536
from repro.obs import Tracer, use_tracer
from repro.storage import DistributedFileSystem, FileSystemError, StripedFileSystem
from tests.conftest import payload_bytes

CODES = {
    "rs": lambda gf: ReedSolomonCode(4, 3, gf=gf),
    "pyramid": lambda gf: PyramidCode(4, 2, 1, gf=gf),
    "galloper": lambda gf: GalloperCode(4, 2, 1, gf=gf),
    "rotated": lambda gf: RotatedPyramidCode(4, 2, 1, gf=gf),
}
FIELDS = {"gf8": GF256, "gf16": GF65536}
STRIPE = 24  # symbols per stripe


@functools.lru_cache(maxsize=None)
def make_code(code_name: str, field: str):
    return CODES[code_name](FIELDS[field])


def build(code, striped: bool, seed: int):
    """A plain file ``"f"``, or a striped ``"s"`` of three groups (the last
    short), on ``n + 2`` servers: a server holds blocks of several groups."""
    cluster = Cluster.homogeneous(code.n + 2)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    if striped:
        block = code.N * STRIPE
        payload = payload_bytes(3 * code.k * block - (code.k * block // 2 + 11), seed=seed)
        sfs.write_file("s", payload, lambda: code, max_block_bytes=block)
        files = [dfs.file(g) for g in sfs.file("s").group_names()]
    else:
        payload = payload_bytes(code.data_stripe_total * STRIPE - 3, seed=seed)  # padded, still 24 wide
        files = [dfs.write_file("f", payload, code=code)]
    return cluster, dfs, sfs, payload, files


def extent_spans(files, lo: int, hi: int):
    """``(file, runs)`` per file payload bytes ``lo .. hi`` of the files laid end to end touch."""
    spans, base = [], 0
    for ef in files:
        a, b = max(lo - base, 0), min(hi - base, ef.original_size)
        base += ef.original_size
        if a < b:
            size = ef.stripe_size
            spans.append((ef, list(ef.code.read_plan().runs_within(a // size, -(-b // size)))))
    return spans


def expected_disk_reads(spans, down: int) -> dict[int, int]:
    """Bytes per server a read of ``spans`` costs once server ``down`` failed."""
    expect: dict[int, int] = defaultdict(int)
    for ef, runs in spans:
        row_bytes = ef.stripe_size * ef.code.gf.dtype.itemsize
        missing = [run for run in runs if ef.server_of(run[0]) == down]
        for block, _, nrows, _ in runs:
            if ef.server_of(block) != down:
                expect[ef.server_of(block)] += nrows * row_bytes
        if missing:
            (block,) = {run[0] for run in missing}
            row0 = min(run[1] for run in missing)
            nrows = max(run[1] + run[2] for run in missing) - row0
            for helper, _, count in ef.code.repair_plan(block, {block}).helper_rows.reads(row0, nrows):
                expect[ef.server_of(helper)] += count * row_bytes
    return dict(expect)


def read_into(dfs, name: str) -> bytes:
    buf = bytearray(dfs.file(name).original_size)
    assert dfs.read_file_into(name, buf) == len(buf)
    return bytes(buf)


def stripes_as_bytes(grid: np.ndarray) -> bytes:
    return grid.reshape(-1).astype(np.uint8).tobytes()


def reads(dfs, sfs, files, payload, request):
    """``(label, call, expected bytes, spans)`` for one drawn read."""
    if sfs.striped:
        if request is None:
            return [("sfs.read_file", lambda: sfs.read_file("s"), payload, [(ef, ef.code.read_plan().runs) for ef in files])]
        offset, length = request
        return [(
            "sfs.read_bytes", lambda: sfs.read_bytes("s", offset, length),
            payload[offset : offset + length], extent_spans(files, offset, offset + length),
        )]
    (ef,) = files
    assert ef.stripe_size == STRIPE
    whole = [(ef, ef.code.read_plan().runs)]
    padded = payload + bytes(ef.code.data_stripe_total * ef.stripe_size - ef.original_size)
    total = ef.code.data_stripe_total
    if request is None:
        return [
            ("read_file", lambda: dfs.read_file("f"), payload, whole),
            ("read_file_into", lambda: read_into(dfs, "f"), payload, whole),
            ("read_stripes", lambda: stripes_as_bytes(dfs.read_stripes("f", 0, total)), padded, whole),
        ]
    offset, length = request
    end = min(offset + length, len(payload))
    first, stop = offset // STRIPE, -(-end // STRIPE)
    return [
        ("read_bytes", lambda: dfs.read_bytes("f", offset, length), payload[offset:end],
         extent_spans(files, offset, end)),
        ("read_stripes", lambda: stripes_as_bytes(dfs.read_stripes("f", first, stop - first)),
         padded[first * STRIPE : stop * STRIPE], extent_spans(files, first * STRIPE, stop * STRIPE)),
    ]


requests = st.lists(
    st.none() | st.tuples(st.integers(0, 10**6), st.integers(1, 4 * STRIPE * 7)), min_size=1, max_size=4
)


@settings(max_examples=120, deadline=None)
@given(
    code_name=st.sampled_from(sorted(CODES)),
    field=st.sampled_from(sorted(FIELDS)),
    striped=st.booleans(),
    lost=st.lists(st.integers(0, 6), max_size=2, unique=True),
    flaky=st.booleans(),
    drawn=requests,
    seed=st.integers(0, 2**16),
)
def test_every_read_entry_point_returns_the_payload_slice(code_name, field, striped, lost, flaky, drawn, seed):
    code = make_code(code_name, field)
    assume(not (flaky and len(lost) == 2))  # three erasures: not every code decodes them
    assume(code.can_decode([b for b in range(code.n) if b not in lost]))
    cluster, dfs, sfs, payload, files = build(code, striped, seed)
    group0 = files[0]
    for block in lost:
        cluster.fail(group0.server_of(block))
    if flaky:
        helper = code.repair_plan(lost[0], {lost[0]}).helpers[0] if lost else 0
        flaky_servers = frozenset({group0.server_of(helper)})
        dfs.store.install_faults(FaultModel(TransientErrors(rate=0.5, servers=flaky_servers), seed=seed), dfs.clock)
    accounted = len(lost) == 1 and not flaky

    for request in drawn:
        if request is not None:
            request = (request[0] % len(payload), request[1])
        for label, call, expected, spans in reads(dfs, sfs, files, payload, request):
            dfs.metrics.reset()
            assert call() == expected, (label, request)
            if accounted:
                down = group0.server_of(lost[0])
                got = {s: n for s, n in dfs.metrics.by_server("disk_bytes_read").items() if n}
                assert got == expected_disk_reads(spans, down), (label, request)
            if not lost and not flaky:
                assert dfs.metrics.total("degraded_reads") == 0


# ---------------------------------------------- what moved: the two-block extent


def two_lost_blocks(code_name: str):
    """Galloper-family file of 24-byte stripes whose blocks 0 and 1 are lost."""
    code = make_code(code_name, "gf8")
    cluster, dfs, _, payload, (ef,) = build(code, striped=False, seed=3)
    for block in (0, 1):
        cluster.fail(ef.server_of(block))
    return dfs, ef, payload


#: Disk bytes of one extent over the last stripe of block 0 and the first
#: of block 1, both lost.  It is decoded in full, as a whole-file read of
#: that file is: the greedy minimal survivor set, ``k + 1`` blocks here,
#: read whole (``5 * N * 24`` bytes).  Before the read paths became one,
#: each missing run was rebuilt on its own from the helper rows of a
#: global repair plan: 1344 bytes over 8 reads for Galloper, 192 for Pyramid.
TWO_BLOCK_EXTENT_BYTES = {"galloper": 5 * 7 * STRIPE, "pyramid": 5 * STRIPE}


@pytest.mark.parametrize("code_name", sorted(TWO_BLOCK_EXTENT_BYTES))
def test_an_extent_missing_runs_in_two_blocks_is_decoded_in_full(code_name):
    dfs, ef, payload = two_lost_blocks(code_name)
    plan = ef.code.read_plan()
    (run0,) = [run for run in plan.runs if run[0] == 0]
    (run1,) = [run for run in plan.runs if run[0] == 1]
    assert run0[3] + run0[2] == run1[3]  # block 1's stripes follow block 0's
    lo = (run1[3] - 1) * STRIPE + 5
    dfs.metrics.reset()
    tracer = Tracer()
    with use_tracer(tracer):
        assert dfs.read_bytes("f", lo, STRIPE) == payload[lo : lo + STRIPE]
    assert dfs.metrics.total("disk_bytes_read") == TWO_BLOCK_EXTENT_BYTES[code_name]
    assert dfs.metrics.total("blocks_read") == ef.code.k + 1
    assert dfs.metrics.total("degraded_reads") == 1
    assert tracer.find("dfs.degraded_decode") and not tracer.find("dfs.local_repair")


def test_a_degraded_striped_extent_recovers_its_groups_in_one_call():
    """An extent over groups 0 and 1, which lost different blocks to one
    server: one recovery call, one local rebuild per lost block, no decode."""
    code = make_code("galloper", "gf8")
    cluster, dfs, sfs, payload, files = build(code, striped=True, seed=4)
    victim = files[0].server_of(0)
    cluster.fail(victim)
    lost = [ef.blocks_on_server(victim) for ef in files[:2]]
    assert lost[0] == [0] and len(lost[1]) == 1 and lost[1] != [0]
    lo, hi = 5, 2 * sfs.file("s").group_payload - 5
    dfs.metrics.reset()
    tracer = Tracer()
    with use_tracer(tracer):
        assert sfs.read_bytes("s", lo, hi - lo) == payload[lo:hi]
    (recovery,) = tracer.find("sfs.batch_degraded_decode")
    local = tracer.find("dfs.local_repair")
    assert recovery.attrs["groups"] == 2 and len(local) == 2
    assert all(span.parent is recovery for span in local)
    assert not tracer.find("dfs.degraded_decode")
    assert dfs.metrics.total("degraded_reads") == 2


# ----------------------------------------------------- delivered-bytes accounting


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_every_whole_file_read_counts_its_bytes_once(field):
    code = make_code("galloper", field)
    cluster, dfs, _, payload, (ef,) = build(code, striped=False, seed=5)
    moved, copied = ("bytes_moved_zero_copy", "bytes_copied") if field == "gf8" else ("bytes_copied", "bytes_moved_zero_copy")
    for read in (lambda: dfs.read_file("f"), lambda: read_into(dfs, "f")):
        dfs.metrics.reset()
        assert read() == payload
        assert dfs.metrics.total(moved) == len(payload) and dfs.metrics.total(copied) == 0
    dfs.metrics.reset()
    assert dfs.read_bytes("f", 0, len(payload)) == payload
    dfs.read_stripes("f", 0, code.data_stripe_total)
    assert dfs.metrics.total(moved) == 0  # extents and stripe grids count nothing


def test_read_stripes_checks_its_range_and_returns_a_fresh_grid():
    code = make_code("galloper", "gf8")
    _, dfs, _, payload, _ = build(code, striped=False, seed=6)
    total = code.data_stripe_total
    for start, count in ((-1, 2), (3, -1), (total - 1, 2)):
        with pytest.raises(FileSystemError):
            dfs.read_stripes("f", start, count)
    assert dfs.read_stripes("f", total, 0).shape == (0, STRIPE)
    grid = dfs.read_stripes("f", 2, 5)
    assert stripes_as_bytes(grid) == payload[2 * STRIPE : 7 * STRIPE]
    grid[:] = 0  # the caller's own array
    assert dfs.read_bytes("f", 2 * STRIPE, 5 * STRIPE) == payload[2 * STRIPE : 7 * STRIPE]
