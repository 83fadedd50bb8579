"""Read plans: run-coalesced reads and locality-aware degraded reads.

Seeded property tests over RS(4,3), Pyramid(4,2,1), Galloper(4,2,1) with
uniform and heterogeneous weights, Carousel(4,2) and the rotated-RAID
baseline (scattered ``file_stripes``: every run has length one), over
GF(2^8) and GF(2^16), with and without a ragged (padded) tail:

* the compiled runs cover every file stripe exactly once and agree with
  ``BlockInfo.file_stripes``;
* every read path returns the bytes of a per-stripe reference read that
  knows nothing of the plan;
* a single lost block is rebuilt from exactly the helper rows its repair
  plan names for its lost data rows (checked per server against the
  disk-read accounting), fused across the groups of a striped read by
  ``pipeline.batch_reconstruct``;
* failure patterns the local path cannot serve fall back to the full
  decode of a minimal decodable subset, read whole and fused per
  survivor set, and stay byte-exact; a corrupted row inside a run is
  caught by its CRC.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.codes import CarouselCode, PyramidCode, ReedSolomonCode, RotatedPyramidCode
from repro.codes.base import BlockInfo, CodeError, DecodingError, ReadPlan
from repro.core import GalloperCode
from repro.faults import FaultModel
from repro.faults.model import FaultComponent, FaultDecision
from repro.gf import GF256, GF65536
from repro.obs import Tracer, use_tracer
from repro.storage import DistributedFileSystem, StripedFileSystem
from repro.storage.striped import group_name
from tests.conftest import codes_layer_read, payload_bytes

CODES = {
    "rs": lambda gf: ReedSolomonCode(4, 3, gf=gf),
    "pyramid": lambda gf: PyramidCode(4, 2, 1, gf=gf),
    "galloper": lambda gf: GalloperCode(4, 2, 1, gf=gf),
    "galloper-hetero": lambda gf: GalloperCode(4, 2, 1, performances=[2, 1, 1, 2, 1, 1, 1], gf=gf),
    "carousel": lambda gf: CarouselCode(4, 2, gf=gf),
    "rotated": lambda gf: RotatedPyramidCode(4, 2, 1, gf=gf),
}
FIELDS = {"gf8": GF256, "gf16": GF65536}

code_matrix = pytest.mark.parametrize("code_name", CODES)
field_matrix = pytest.mark.parametrize("field", FIELDS)
tail_matrix = pytest.mark.parametrize("ragged", [False, True], ids=["aligned", "ragged"])

STRIPE = 24  # symbols per stripe of the single-codeword files


def make_code(code_name, field="gf8"):
    return CODES[code_name](FIELDS[field])


def block_runs(code, block: int) -> list:
    """The runs of the read plan ``block`` serves: which of its rows are which file stripes."""
    return [run for run in code.read_plan().runs if run[0] == block]


def data_row_reads(code, block: int, lost=frozenset()):
    """What a whole-file read that lost ``block`` (and the blocks in
    ``lost``, which carry no data) reads to rebuild it: the helper rows
    its repair plan names for the block's data rows (its top
    ``data_stripes``), ``(helper, row0, nrows)`` each."""
    data_rows = code.block_infos[block].data_stripes
    if not data_rows:
        return ()
    return code.repair_plan(block, {block, *lost}).helper_rows.reads(0, data_rows)


def file_size(code, ragged: bool) -> int:
    return code.data_stripe_total * STRIPE - (37 if ragged else 0)


def write(code, ragged: bool, seed: int = 0, **dfs_kwargs):
    """One single-codeword file ``"f"`` on a fresh cluster."""
    cluster = Cluster.homogeneous(code.n + 3)
    dfs = DistributedFileSystem(cluster, **dfs_kwargs)
    payload = payload_bytes(file_size(code, ragged), seed=seed)
    ef = dfs.write_file("f", payload, code=code)
    return cluster, dfs, ef, payload


def write_striped(code, ragged: bool, groups: int = 3, seed: int = 0, **dfs_kwargs):
    """A striped file ``"s"`` of ``groups`` groups, the last one short when ``ragged``."""
    cluster = Cluster.homogeneous(3 * code.n)
    dfs = DistributedFileSystem(cluster, **dfs_kwargs)
    sfs = StripedFileSystem(dfs)
    block = code.N * STRIPE
    size = groups * code.k * block - (code.k * block // 2 + 11 if ragged else 0)
    payload = payload_bytes(size, seed=seed)
    sfs.write_file("s", payload, lambda: code, max_block_bytes=block)
    return cluster, dfs, sfs, payload


def reference_read(dfs, ef) -> bytes:
    """The file assembled one stripe at a time from ``BlockInfo.file_stripes``, plan-free."""
    grid = np.zeros((ef.code.data_stripe_total, ef.stripe_size), dtype=ef.code.gf.dtype)
    for info in ef.code.block_infos:
        for row, fs in enumerate(info.file_stripes):
            grid[fs] = dfs.store.read_rows(ef.server_of(info.index), ef.name, info.index, row, 1)[0]
    # One payload byte per symbol, over GF(2^8) and GF(2^16) alike.
    return grid.reshape(-1)[: ef.original_size].astype(np.uint8).tobytes()


def read_into(dfs, name: str) -> bytes:
    buf = bytearray(dfs.file(name).original_size)
    assert dfs.read_file_into(name, buf) == len(buf)
    return bytes(buf)


# ------------------------------------------------------------ (a) the plan


@code_matrix
@field_matrix
def test_runs_cover_every_stripe_once_and_match_block_infos(code_name, field):
    code = make_code(code_name, field)
    plan = code.read_plan()
    covered = []
    for block, row0, nrows, fs0 in plan.runs:
        assert nrows >= 1
        for i in range(nrows):
            assert code.block_infos[block].file_stripes[row0 + i] == fs0 + i
            covered.append(fs0 + i)
    assert covered == list(range(code.data_stripe_total))  # once each, in file order
    assert plan.starts == tuple(run[3] for run in plan.runs)
    assert len(plan.holders) == code.data_stripe_total
    for fs, (block, row) in enumerate(plan.holders):
        assert code.block_infos[block].file_stripes[row] == fs
    for info in code.block_infos:
        rows = [row0 + i for _, row0, nrows, _ in block_runs(code, info.index) for i in range(nrows)]
        assert sorted(rows) == list(range(info.data_stripes))
    assert code.read_plan() is plan  # compiled once per code object


def test_layout_that_leaves_a_stripe_unstored_is_rejected():
    infos = [
        BlockInfo(index=0, role="data", group=None, data_stripes=1, total_stripes=1, file_stripes=(0,)),
        BlockInfo(index=1, role="data", group=None, data_stripes=1, total_stripes=1, file_stripes=(2,)),
    ]
    with pytest.raises(CodeError, match=r"\[1\]"):
        ReadPlan.compile(infos, 3)


def test_run_shapes_per_layout():
    galloper = make_code("galloper").read_plan()
    assert [(b, n) for b, _, n, _ in galloper.runs] == [(b, 4) for b in range(7)]
    rotated = make_code("rotated").read_plan()
    assert len(rotated.runs) == 28 and {n for _, _, n, _ in rotated.runs} == {1}
    assert len(make_code("rs").read_plan().runs) == 4


@code_matrix
def test_runs_within_clips_to_the_extent(code_name):
    code = make_code(code_name)
    plan = code.read_plan()
    total = code.data_stripe_total
    rng = np.random.default_rng(3)
    for _ in range(50):
        start = int(rng.integers(0, total))
        stop = int(rng.integers(start, total + 1))
        got = []
        for block, row0, nrows, fs0 in plan.runs_within(start, stop):
            assert start <= fs0 and fs0 + nrows <= stop
            got += [(fs0 + i, (block, row0 + i)) for i in range(nrows)]
        assert got == [(fs, plan.holders[fs]) for fs in range(start, stop)]


# ------------------------------------------------- (b) clean reads, all paths


@code_matrix
@field_matrix
@tail_matrix
def test_whole_file_reads_match_the_per_stripe_reference(code_name, field, ragged):
    code = make_code(code_name, field)
    _, dfs, ef, payload = write(code, ragged)
    expected = reference_read(dfs, ef)
    assert expected == payload
    dfs.metrics.reset()
    assert dfs.read_file("f") == expected
    # One range read per run: 7 for Galloper where the per-stripe loop made 28.
    assert dfs.metrics.total("blocks_read") == len(code.read_plan().runs)
    assert read_into(dfs, "f") == expected
    assert dfs.stripe_holders("f") == dict(enumerate(code.read_plan().holders))
    assert dfs.metrics.total("degraded_reads") == 0


@code_matrix
@field_matrix
@tail_matrix
def test_extent_reads_match_the_payload(code_name, field, ragged):
    code = make_code(code_name, field)
    _, dfs, ef, payload = write(code, ragged, seed=1)
    rng = np.random.default_rng(11)
    for _ in range(25):
        offset = int(rng.integers(0, len(payload)))
        length = int(rng.integers(1, 6 * STRIPE))
        assert dfs.read_bytes("f", offset, length) == payload[offset : offset + length]
    total = code.data_stripe_total
    grid = dfs.read_stripes("f", 0, total)
    start, count = total // 3, total // 2
    assert np.array_equal(dfs.read_stripes("f", start, count), grid[start : start + count])


@code_matrix
@tail_matrix
def test_striped_reads_match_the_payload(code_name, ragged):
    code = make_code(code_name)
    _, dfs, sfs, payload = write_striped(code, ragged, seed=2)
    assert b"".join(reference_read(dfs, dfs.file(g)) for g in sfs.file("s").group_names()) == payload
    assert sfs.read_file("s") == payload
    rng = np.random.default_rng(12)
    for _ in range(15):
        offset = int(rng.integers(0, len(payload)))
        length = int(rng.integers(1, 2 * code.k * code.N * STRIPE))
        assert sfs.read_bytes("s", offset, length) == payload[offset : offset + length]


@code_matrix
def test_striped_extent_reads_over_the_wide_field(code_name):
    code = make_code(code_name, "gf16")
    _, _, sfs, payload = write_striped(code, ragged=True, seed=3)
    rng = np.random.default_rng(13)
    for _ in range(15):
        offset = int(rng.integers(0, len(payload)))
        length = int(rng.integers(1, 2 * code.k * code.N * STRIPE))
        assert sfs.read_bytes("s", offset, length) == payload[offset : offset + length]


# -------------------------------------- (c) single loss: helpers and nothing else


def spy_on_decode_plans(dfs, monkeypatch) -> dict[str, list[int]]:
    """Record, per file name, the survivors ``_plan_decode_blocks`` chose for the full decode."""
    chosen: dict[str, list[int]] = {}
    real = dfs._plan_decode_blocks

    def spy(ef, *args):
        chosen[ef.name] = real(ef, *args)
        return chosen[ef.name]

    monkeypatch.setattr(dfs, "_plan_decode_blocks", spy)
    return chosen


def expected_disk_reads(dfs, names, dead_servers, decoded=None) -> dict[int, float]:
    """Bytes each server serves in a degraded whole-file read after ``dead_servers`` died.

    Every surviving data-carrying block serves its runs once.  A group
    that the full decode served (its name is in ``decoded``) then reads
    whole the minimal decodable subset recorded there; any other group
    that lost a data-carrying block reads, from that block's repair
    helpers, the rows its plan names for the lost data rows — nothing
    else.
    """
    decoded = decoded or {}
    expect: dict[int, float] = defaultdict(float)
    for name in names:
        ef = dfs.file(name)
        code = ef.code
        itemsize = code.gf.dtype.itemsize
        row_bytes = ef.stripe_size * itemsize
        lost = {b for server in dead_servers for b in ef.blocks_on_server(server)}
        for info in code.block_infos:
            if info.index not in lost:
                expect[ef.server_of(info.index)] += info.data_stripes * row_bytes
        if name in decoded:
            whole = decoded[name]
            assert code.can_decode(whole) and not lost & set(whole)
            assert len(whole) == code.k or not code.can_decode(whole[:-1])  # no block too many
            for h in whole:
                expect[ef.server_of(h)] += ef.block_size * itemsize
            continue
        for b in lost:
            for h, _, count in data_row_reads(code, b, lost - {b}):
                expect[ef.server_of(h)] += count * row_bytes
    return {server: nbytes for server, nbytes in expect.items() if nbytes}


#: Helper rows a whole-file read reads per lost block of role ``data``:
#: Galloper 8 of the 14 rows its two group mates hold, Carousel 8 of 12,
#: the rotated baseline 8 where it decoded 28 (``k * N``) before; RS and
#: Pyramid (``N = 1``) read their ``k`` and ``k / l`` helpers whole.
HELPER_ROWS_PER_LOST_DATA_BLOCK = {"rs": 4, "pyramid": 2, "galloper": 8, "carousel": 8, "rotated": 8}


@code_matrix
@field_matrix
@tail_matrix
def test_single_loss_reads_exactly_the_repair_helpers(code_name, field, ragged):
    """... and of each helper exactly the rows the lost data rows need."""
    for lost in range(make_code(code_name, field).n):
        code = make_code(code_name, field)
        cluster, dfs, ef, payload = write(code, ragged, seed=lost)
        victim = ef.server_of(lost)
        cluster.fail(victim)
        info = code.block_infos[lost]
        carries_data = info.data_stripes > 0
        row_bytes = ef.stripe_size * code.gf.dtype.itemsize
        survivors_bytes = (code.data_stripe_total - info.data_stripes) * row_bytes
        for read in (lambda: dfs.read_file("f"), lambda: read_into(dfs, "f")):
            dfs.metrics.reset()
            tracer = Tracer()
            with use_tracer(tracer):
                assert read() == payload
            assert dfs.metrics.by_server("disk_bytes_read") == expected_disk_reads(dfs, ["f"], {victim})
            if info.role == "data" and code_name in HELPER_ROWS_PER_LOST_DATA_BLOCK:
                helper_bytes = dfs.metrics.total("disk_bytes_read") - survivors_bytes
                assert helper_bytes == HELPER_ROWS_PER_LOST_DATA_BLOCK[code_name] * row_bytes
            assert len(tracer.find("dfs.local_repair")) == (1 if carries_data else 0)
            assert not tracer.find("dfs.degraded_decode")
            assert dfs.metrics.total("degraded_reads") == (1 if carries_data else 0)
        assert dfs.read_bytes("f", 5, 3 * STRIPE) == payload[5 : 5 + 3 * STRIPE]


@code_matrix
@tail_matrix
def test_striped_single_loss_is_fused_through_batch_reconstruct(code_name, ragged):
    for lost in range(make_code(code_name).n):
        code = make_code(code_name)
        cluster, dfs, sfs, payload = write_striped(code, ragged, groups=4, seed=lost)
        names = sfs.file("s").group_names()
        victim = dfs.file(names[0]).server_of(lost)
        cluster.fail(victim)
        degraded = [
            (name, b)
            for name in names
            for b in dfs.file(name).blocks_on_server(victim)
            if code.block_infos[b].data_stripes
        ]
        dfs.metrics.reset()
        tracer = Tracer()
        with use_tracer(tracer):
            assert sfs.read_file("s") == payload
        assert dfs.metrics.by_server("disk_bytes_read") == expected_disk_reads(dfs, names, {victim})
        assert dfs.metrics.total("degraded_reads") == len(degraded)
        # One fused reconstruct (under its own ``dfs.local_repair``) per
        # distinct lost block index, and no full decode.
        (recovery,) = tracer.find("sfs.batch_degraded_decode") if degraded else (None,)
        reconstructs = tracer.find("pipeline.batch_reconstruct")
        assert len(reconstructs) == len(tracer.find("dfs.local_repair")) == len({b for _, b in degraded})
        assert all(s.parent.name == "dfs.local_repair" and s.parent.parent is recovery for s in reconstructs)
        assert not tracer.find("dfs.degraded_decode") and not tracer.find("pipeline.batch_decode")
        assert codes_layer_read(dfs, names) == payload


def test_repair_plans_are_memoised_across_the_groups_of_one_read(monkeypatch):
    code = make_code("rs")
    cluster, dfs, sfs, payload = write_striped(code, ragged=False, groups=2 * code.n + 1)
    names = sfs.file("s").group_names()
    victim = dfs.file(names[0]).server_of(0)
    cluster.fail(victim)
    lost = [b for name in names for b in dfs.file(name).blocks_on_server(victim)]
    assert len(lost) > 1 and set(lost) == {0}  # several groups, one failure pattern
    calls = []
    real = type(code).repair_plan
    monkeypatch.setattr(
        type(code), "repair_plan", lambda self, *a, **kw: calls.append(a) or real(self, *a, **kw)
    )
    assert sfs.read_file("s") == payload
    assert len(calls) == 1


# --------------------------------------------- (d) fall back to the full decode


@code_matrix
@tail_matrix
def test_two_lost_data_blocks_fall_back_to_the_full_decode(code_name, ragged, monkeypatch):
    """Each decoded file reads a minimal decodable subset whole, and a
    striped read fuses its decodes into one ``batch_decode`` with one
    bucket per distinct survivor set."""
    code = make_code(code_name)
    cluster, dfs, ef, payload = write(code, ragged)
    decoded = spy_on_decode_plans(dfs, monkeypatch)
    dead = {ef.server_of(0), ef.server_of(1)}
    for server in dead:
        cluster.fail(server)
    dfs.metrics.reset()
    tracer = Tracer()
    with use_tracer(tracer):
        assert dfs.read_file("f") == payload
    assert list(decoded) == ["f"]
    assert dfs.metrics.by_server("disk_bytes_read") == expected_disk_reads(dfs, ["f"], dead, decoded)
    (decode,) = tracer.find("pipeline.batch_decode")
    assert decode.attrs["buckets"] == 1 and decode.parent.name == "dfs.degraded_decode"
    assert not tracer.find("dfs.local_repair")

    cluster, dfs, sfs, payload = write_striped(code, ragged)
    decoded = spy_on_decode_plans(dfs, monkeypatch)
    names = sfs.file("s").group_names()
    group0 = dfs.file(group_name("s", 0))
    dead = {group0.server_of(0), group0.server_of(1)}
    for server in dead:
        cluster.fail(server)
    dfs.metrics.reset()
    tracer = Tracer()
    with use_tracer(tracer):
        assert sfs.read_file("s") == payload
    assert group0.name in decoded
    assert dfs.metrics.by_server("disk_bytes_read") == expected_disk_reads(dfs, names, dead, decoded)
    (recovery,) = tracer.find("sfs.batch_degraded_decode")
    (decode,) = tracer.find("pipeline.batch_decode")
    assert decode.attrs["buckets"] == len({tuple(sorted(chosen)) for chosen in decoded.values()})
    assert decode.parent.name == "dfs.degraded_decode" and decode.parent.parent is recovery
    assert codes_layer_read(dfs, names) == payload


@pytest.mark.parametrize("code_name", ["pyramid", "galloper"])
def test_degraded_group_cannot_repair_locally_and_stays_exact(code_name):
    """Block 0 and its group's parity block 2 are gone: the group alone cannot rebuild block 0."""
    code = make_code(code_name)
    cluster, dfs, ef, payload = write(code, ragged=True)
    cluster.fail(ef.server_of(0))
    cluster.fail(ef.server_of(2))
    plan = code.repair_plan(0, {0, 2})
    # The global fallback, not the k/l group mates: it reaches into the other
    # group and the global parity, and names no helper it reads nothing from
    # (the other group's local parity, which the greedy prefix passes over).
    assert set(plan.helpers) == {1, 3, 4, 6}
    dfs.metrics.reset()
    tracer = Tracer()
    with use_tracer(tracer):
        assert dfs.read_file("f") == payload
    # Pyramid's parity holds no data, so only block 0 has missing stripes and
    # its k-helper fallback plan rebuilds it; Galloper lost data in two
    # blocks and decodes in full from a minimal survivor set.
    local = code_name == "pyramid"
    assert bool(tracer.find("dfs.local_repair")) == local
    assert bool(tracer.find("dfs.degraded_decode")) == (not local)
    whole_blocks = [s for s, n in dfs.metrics.by_server("disk_bytes_read").items() if n >= ef.block_size]
    assert len(whole_blocks) >= code.k


@code_matrix
@field_matrix
def test_degraded_extent_reads_only_the_helper_rows_it_needs(code_name, field):
    """An extent inside a lost block costs the rows its stripes depend on, not a decode of the file."""
    for lost in range(make_code(code_name, field).n):
        code = make_code(code_name, field)
        runs = block_runs(code, lost)
        if not runs:
            continue
        cluster, dfs, ef, payload = write(code, ragged=True, seed=lost)
        cluster.fail(ef.server_of(lost))
        _, row0, nrows, fs0 = runs[0]
        lo, hi = fs0 * ef.stripe_size + 3, min((fs0 + nrows) * ef.stripe_size - 2, len(payload))
        helper_rows = code.repair_plan(lost).helper_rows
        expect: dict[int, float] = defaultdict(float)
        for helper, _, count in helper_rows.reads(row0, nrows):
            expect[ef.server_of(helper)] += count * ef.stripe_size * code.gf.dtype.itemsize
        dfs.metrics.reset()
        tracer = Tracer()
        with use_tracer(tracer):
            assert dfs.read_bytes("f", lo, hi - lo) == payload[lo:hi]
        assert dfs.metrics.by_server("disk_bytes_read") == expect
        assert len(tracer.find("dfs.local_repair")) == 1 and not tracer.find("dfs.degraded_decode")
        assert dfs.metrics.total("degraded_reads") == 1


@pytest.mark.parametrize("code_name", ["rs", "pyramid", "galloper"])
def test_degraded_extent_read_falls_back_to_the_decode_when_a_helper_row_fails(code_name):
    code = make_code(code_name)
    helper = code.repair_plan(0).helpers[0]
    probe = write(code, ragged=False)[2]
    faults = FaultModel(ReadErrors(servers=frozenset({probe.server_of(helper)})), seed=4)
    cluster, dfs, ef, payload = write(code, ragged=False, fault_model=faults)
    cluster.fail(ef.server_of(0))
    tracer = Tracer()
    with use_tracer(tracer):  # inside block 0's first stripe: the helper's own runs are not read
        assert dfs.read_bytes("f", 5, STRIPE - 10) == payload[5 : STRIPE - 5]
    assert dfs.metrics.total("retries") > 0
    assert tracer.find("dfs.local_repair") and tracer.find("dfs.degraded_decode")


def test_more_losses_than_the_code_tolerates_fail_loudly():
    code = make_code("galloper")
    cluster, dfs, ef, _ = write(code, ragged=False)
    for b in range(4):
        cluster.fail(ef.server_of(b))
    with pytest.raises(DecodingError):
        dfs.read_file("f")


@dataclass(frozen=True)
class ReadErrors(FaultComponent):
    """Every read fails, on the component's servers from its ``start`` on."""

    def sample(self, rng, server_id, nbytes, now):
        return FaultDecision(error=True)


def write_with_flaky_helper(code, striped: bool):
    """A striped file whose group 0 lost block 0, and the last helper of
    block 0's plan failing every read from the instant the read of what
    survives ends — of the whole striped file, or of group 0 alone.

    The helper's own runs are read before that, so block 0 is the only
    block with missing stripes and the local rebuild is tried — and fails
    on the helper's rows, after the other helpers were read.
    """
    helper = code.repair_plan(0).helpers[-1]

    def lose_block_0(**dfs_kwargs):
        cluster, dfs, sfs, payload = write_striped(code, ragged=False, **dfs_kwargs)
        group0 = dfs.file(group_name("s", 0))
        cluster.fail(group0.server_of(0))
        return dfs, sfs, payload, group0

    probe, sfs, _, group0 = lose_block_0()
    files = [probe.file(g) for g in sfs.file("s").group_names()] if striped else [group0]
    probe._read_available_stripes([(ef, code.read_plan().runs) for ef in files])
    flaky = ReadErrors(servers=frozenset({group0.server_of(helper)}), start=probe.clock.now)
    return lose_block_0(fault_model=FaultModel(flaky, seed=4))


@pytest.mark.parametrize("code_name", ["rs", "pyramid", "galloper"])
def test_helper_exhausting_its_retries_mid_bucket_falls_back(code_name):
    dfs, sfs, payload, _ = write_with_flaky_helper(make_code(code_name), striped=True)
    tracer = Tracer()
    with use_tracer(tracer):
        assert sfs.read_file("s") == payload
    assert dfs.metrics.total("retries") > 0
    assert not tracer.find("pipeline.batch_reconstruct")  # the bucket's only group dropped out
    assert tracer.find("pipeline.batch_decode")  # ... and was decoded in full

    dfs, _, payload, group0 = write_with_flaky_helper(make_code(code_name), striped=False)
    tracer = Tracer()
    with use_tracer(tracer):
        assert read_into(dfs, group0.name) == payload[: group0.original_size]
    assert dfs.metrics.total("retries") > 0
    assert tracer.find("dfs.local_repair") and tracer.find("dfs.degraded_decode")


# ------------------------------------------------- (e) corruption inside a run


@code_matrix
@field_matrix
def test_corrupted_row_inside_a_run_is_caught_by_its_crc(code_name, field):
    code = make_code(code_name, field)
    _, dfs, ef, payload = write(code, ragged=True, seed=6)
    # The longest run, hit in its middle row.
    block, row0, nrows, _ = max(code.read_plan().runs, key=lambda run: run[2])
    row = row0 + nrows // 2
    dfs.store.corrupt(ef.server_of(block), "f", block, offset=row * ef.stripe_size + 3)
    assert reference_read(dfs, ef) != payload  # the rot is real
    assert dfs.read_file("f") == payload
    assert dfs.metrics.total("checksum_failures") > 0
    assert dfs.metrics.total("degraded_reads") == 1
    assert read_into(dfs, "f") == payload
    lo = (code.read_plan().runs[0][3]) * ef.stripe_size
    assert dfs.read_bytes("f", lo, 4 * STRIPE) == payload[lo : lo + 4 * STRIPE]
