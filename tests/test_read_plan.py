"""Read plans: run-coalesced reads and locality-aware degraded reads.

Seeded property tests over RS(4,3), Pyramid(4,2,1), Galloper(4,2,1) with
uniform and heterogeneous weights and the rotated-RAID baseline (scattered
``file_stripes``: every run has length one), over GF(2^8) and GF(2^16),
with and without a ragged (padded) tail:

* the compiled runs cover every file stripe exactly once and agree with
  ``BlockInfo.file_stripes``;
* every read path returns the bytes of a per-stripe reference read that
  knows nothing of the plan;
* a single lost block is rebuilt from exactly its repair-plan helpers
  (checked per server against the disk-read accounting), fused across
  the groups of a striped read by ``pipeline.batch_reconstruct``;
* failure patterns the local path cannot serve fall back to the full
  decode and stay byte-exact, and a corrupted row inside a run is caught
  by its CRC.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode, RotatedPyramidCode
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
    "rotated": lambda gf: RotatedPyramidCode(4, 2, 1, gf=gf),
}
FIELDS = {"gf8": GF256, "gf16": GF65536}

code_matrix = pytest.mark.parametrize("code_name", CODES)
field_matrix = pytest.mark.parametrize("field", FIELDS)
tail_matrix = pytest.mark.parametrize("ragged", [False, True], ids=["aligned", "ragged"])

STRIPE = 24  # symbols per stripe of the single-codeword files


def make_code(code_name, field="gf8"):
    return CODES[code_name](FIELDS[field])


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
    for fs in range(code.data_stripe_total):
        block, row = plan.holder(fs)
        assert code.block_infos[block].file_stripes[row] == fs
    assert plan.holder(-1) is None and plan.holder(code.data_stripe_total) is None
    for info in code.block_infos:
        rows = [row0 + i for _, row0, nrows, _ in plan.block_runs[info.index] for i in range(nrows)]
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


def repairs_locally(code, block: int) -> bool:
    """Whether a read that lost only ``block`` rebuilds it from its repair helpers.

    Helpers are read whole, so a plan naming more than ``k`` of them (the
    rotated baseline takes a fraction of 5 survivors) costs more than the
    minimal decodable subset and the read decodes in full instead.
    """
    return len(code.repair_plan(block, {block}).helpers) <= code.k


def spy_on_decode_plans(dfs, monkeypatch) -> dict[str, list[int]]:
    """Record, per file name, the survivors ``_plan_decode_blocks`` chose for the full decode."""
    chosen: dict[str, list[int]] = {}
    real = dfs._plan_decode_blocks

    def spy(ef, *args):
        chosen[ef.name] = real(ef, *args)
        return chosen[ef.name]

    monkeypatch.setattr(dfs, "_plan_decode_blocks", spy)
    return chosen


def expected_disk_reads(dfs, names, dead_server: int, decoded: dict[str, list[int]]) -> dict[int, float]:
    """Bytes each server serves in a degraded whole-file read after one server died.

    Every surviving data-carrying block serves its runs once, and a group
    that lost a data-carrying block reads whole either that block's repair
    helpers or, when those outnumber ``k``, the minimal decodable subset
    recorded in ``decoded`` — nothing else.
    """
    expect: dict[int, float] = defaultdict(float)
    for name in names:
        ef = dfs.file(name)
        code = ef.code
        itemsize = code.gf.dtype.itemsize
        lost = ef.blocks_on_server(dead_server)
        for info in code.block_infos:
            if info.index not in lost:
                expect[ef.server_of(info.index)] += info.data_stripes * ef.stripe_size * itemsize
        for b in lost:
            if not code.block_infos[b].data_stripes:
                continue
            if repairs_locally(code, b):
                whole = code.repair_plan(b, {b}).helpers
            else:
                whole = decoded[name]
                assert code.can_decode(whole) and b not in whole
                assert len(whole) == code.k or not code.can_decode(whole[:-1])  # no block too many
            for h in whole:
                expect[ef.server_of(h)] += ef.block_size * itemsize
    return {server: nbytes for server, nbytes in expect.items() if nbytes}


@code_matrix
@field_matrix
@tail_matrix
def test_single_loss_reads_exactly_the_repair_helpers(code_name, field, ragged, monkeypatch):
    for lost in range(make_code(code_name, field).n):
        code = make_code(code_name, field)
        cluster, dfs, ef, payload = write(code, ragged, seed=lost)
        decoded = spy_on_decode_plans(dfs, monkeypatch)
        victim = ef.server_of(lost)
        cluster.fail(victim)
        carries_data = code.block_infos[lost].data_stripes > 0
        local = repairs_locally(code, lost)
        for read in (lambda: dfs.read_file("f"), lambda: read_into(dfs, "f")):
            dfs.metrics.reset()
            tracer = Tracer()
            with use_tracer(tracer):
                assert read() == payload
            assert dfs.metrics.by_server("disk_bytes_read") == expected_disk_reads(
                dfs, ["f"], victim, decoded
            )
            assert len(tracer.find("dfs.local_repair")) == (1 if carries_data and local else 0)
            assert len(tracer.find("dfs.degraded_decode")) == (1 if carries_data and not local else 0)
            assert dfs.metrics.total("degraded_reads") == (1 if carries_data else 0)
        assert dfs.read_bytes("f", 5, 3 * STRIPE) == payload[5 : 5 + 3 * STRIPE]


@code_matrix
@tail_matrix
def test_striped_single_loss_is_fused_through_batch_reconstruct(code_name, ragged, monkeypatch):
    for lost in range(make_code(code_name).n):
        code = make_code(code_name)
        cluster, dfs, sfs, payload = write_striped(code, ragged, groups=4, seed=lost)
        decoded = spy_on_decode_plans(dfs, monkeypatch)
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
        assert dfs.metrics.by_server("disk_bytes_read") == expected_disk_reads(
            dfs, names, victim, decoded
        )
        assert dfs.metrics.total("degraded_reads") == len(degraded)
        # One fused reconstruct (under its own ``dfs.local_repair``) per
        # distinct lost block index with a local plan and no full decode;
        # the rest go through one ``dfs.degraded_decode`` whose single
        # ``batch_decode`` fuses them per survivor set.
        local = {b for _, b in degraded if repairs_locally(code, b)}
        (recovery,) = tracer.find("sfs.batch_degraded_decode") if degraded else (None,)
        reconstructs = tracer.find("pipeline.batch_reconstruct")
        assert len(reconstructs) == len(tracer.find("dfs.local_repair")) == len(local)
        assert all(s.parent.name == "dfs.local_repair" and s.parent.parent is recovery for s in reconstructs)
        survivor_sets = {tuple(sorted(decoded[name])) for name, b in degraded if b not in local}
        decodes = tracer.find("pipeline.batch_decode")
        assert len(decodes) == len(tracer.find("dfs.degraded_decode")) == (1 if survivor_sets else 0)
        assert sum(s.attrs["buckets"] for s in decodes) == len(survivor_sets)
        assert all(s.parent.name == "dfs.degraded_decode" and s.parent.parent is recovery for s in decodes)
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


@pytest.mark.parametrize("code_name", ["rs", "pyramid", "galloper", "galloper-hetero"])
@tail_matrix
def test_two_lost_data_blocks_fall_back_to_the_full_decode(code_name, ragged):
    code = make_code(code_name)
    cluster, dfs, ef, payload = write(code, ragged)
    cluster.fail(ef.server_of(0))
    cluster.fail(ef.server_of(1))
    tracer = Tracer()
    with use_tracer(tracer):
        assert dfs.read_file("f") == payload
    assert tracer.find("dfs.degraded_decode") and not tracer.find("dfs.local_repair")

    cluster, dfs, sfs, payload = write_striped(code, ragged)
    group0 = dfs.file(group_name("s", 0))
    cluster.fail(group0.server_of(0))
    cluster.fail(group0.server_of(1))
    tracer = Tracer()
    with use_tracer(tracer):
        assert sfs.read_file("s") == payload
    assert tracer.find("pipeline.batch_decode")


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
        runs = code.read_plan().block_runs[lost]
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
        assert len(tracer.find("dfs.row_repair")) == 1 and not tracer.find("dfs.degraded_decode")
        assert dfs.metrics.total("degraded_reads") == 1


@pytest.mark.parametrize("code_name", ["rs", "pyramid", "galloper"])
def test_degraded_extent_read_falls_back_to_the_decode_when_a_helper_row_fails(code_name):
    code = make_code(code_name)
    helper = code.repair_plan(0).helpers[0]
    probe = write(code, ragged=False)[2]
    faults = FaultModel(WholeBlockReadErrors(servers=frozenset({probe.server_of(helper)})), seed=4)
    cluster, dfs, ef, payload = write(code, ragged=False, fault_model=faults)
    cluster.fail(ef.server_of(0))
    tracer = Tracer()
    with use_tracer(tracer):
        assert dfs.read_bytes("f", 5, STRIPE) == payload[5 : 5 + STRIPE]
    assert dfs.metrics.total("retries") > 0
    assert tracer.find("dfs.row_repair") and tracer.find("dfs.degraded_decode")


def test_more_losses_than_the_code_tolerates_fail_loudly():
    code = make_code("galloper")
    cluster, dfs, ef, _ = write(code, ragged=False)
    for b in range(4):
        cluster.fail(ef.server_of(b))
    with pytest.raises(DecodingError):
        dfs.read_file("f")


@dataclass(frozen=True)
class WholeBlockReadErrors(FaultComponent):
    """Every read of at least ``min_bytes`` fails: a helper that serves its rows but not its block."""

    min_bytes: int = 0

    def sample(self, rng, server_id, nbytes, now):
        return FaultDecision(error=nbytes >= self.min_bytes)


def write_with_flaky_helper(code):
    """A striped file whose group 0 lost block 0 and cannot read one helper of it whole.

    The helper is the one carrying the least data: its rows (if it has
    any) stay readable, so block 0 is the only block with missing stripes
    and the local plan is tried — and fails on the helper read.
    """
    helper = min(code.repair_plan(0).helpers, key=lambda h: code.block_infos[h].data_stripes)
    probe = write_striped(code, ragged=False)[1]
    flaky_server = probe.file(group_name("s", 0)).server_of(helper)
    faults = FaultModel(
        WholeBlockReadErrors(servers=frozenset({flaky_server}), min_bytes=code.N * STRIPE), seed=4
    )
    cluster, dfs, sfs, payload = write_striped(code, ragged=False, fault_model=faults)
    group0 = dfs.file(group_name("s", 0))
    assert group0.server_of(helper) == flaky_server
    cluster.fail(group0.server_of(0))
    return dfs, sfs, payload, group0


@pytest.mark.parametrize("code_name", ["rs", "pyramid", "galloper"])
def test_helper_exhausting_its_retries_mid_bucket_falls_back(code_name):
    dfs, sfs, payload, _ = write_with_flaky_helper(make_code(code_name))
    tracer = Tracer()
    with use_tracer(tracer):
        assert sfs.read_file("s") == payload
    assert dfs.metrics.total("retries") > 0
    assert not tracer.find("pipeline.batch_reconstruct")  # the bucket's only group dropped out
    assert tracer.find("pipeline.batch_decode")  # ... and was decoded in full

    dfs, _, payload, group0 = write_with_flaky_helper(make_code(code_name))
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
