"""Property tests for the batched multi-stripe coding pipeline.

The batched pipeline is the storage layer's only coding path and must
never be a semantic change: for every code family, every fused operation
— encode, decode, reconstruct, striped write/read, bulk repair, scrub
heal — must produce bytes identical to the codes layer's per-group
``encode`` / ``decode`` / ``reconstruct``, including ragged tails,
single-group files, server failures and transiently flaky helpers.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.faults import FaultModel
from repro.faults.model import TransientErrors
from repro.gf import GF256, GF65536
from repro.storage import (
    DistributedFileSystem,
    RepairManager,
    Scrubber,
    StripedFileSystem,
    pipeline,
)
from repro.storage.striped import group_name
from tests.conftest import codes_layer_read, group_grid, payload_bytes, stored_block

CODES = [
    ("rs", lambda: ReedSolomonCode(4, 2)),
    ("pyramid", lambda: PyramidCode(4, 2, 1)),
    ("galloper", lambda: GalloperCode(4, 2, 1)),
]
IDS = [c[0] for c in CODES]


def make_grids(code, widths, seed=3):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, code.gf.order, size=(code.data_stripe_total, w)).astype(code.gf.dtype)
        for w in widths
    ]


def build_striped(make_code, payload_size=120_000, fault_model=None, servers=30):
    cluster = Cluster.homogeneous(servers)
    dfs = DistributedFileSystem(cluster, fault_model=fault_model)
    sfs = StripedFileSystem(dfs)
    payload = payload_bytes(payload_size, seed=9)
    meta = sfs.write_file("f", payload, make_code, max_block_bytes=4096)
    return cluster, dfs, sfs, meta, payload


# ------------------------------------------------------------- primitives


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
class TestPrimitives:
    def test_batch_encode_matches_per_group(self, name, make):
        code = make()
        grids = make_grids(code, [64, 64, 64, 31])  # ragged tail in-batch
        batched = pipeline.batch_encode(code, grids)
        for g, b in zip(grids, batched):
            assert np.array_equal(b, code.encode(g))

    def test_batch_decode_matches_per_group(self, name, make):
        code = make()
        grids = make_grids(code, [48, 48, 17])
        blocks = [code.encode(g) for g in grids]
        # Mixed availability patterns bucket separately but return in order.
        patterns = [
            [b for b in range(code.n) if b != 0],
            [b for b in range(code.n) if b != 1],
            [b for b in range(code.n) if b != 0],
        ]
        availables = [
            {b: blk[b] for b in pat} for blk, pat in zip(blocks, patterns)
        ]
        decoded = pipeline.batch_decode(code, availables)
        for g, out, available in zip(grids, decoded, availables):
            assert np.array_equal(out, g)
            assert np.array_equal(out, code.decode(available))

    def test_batch_reconstruct_matches_per_group(self, name, make):
        code = make()
        grids = make_grids(code, [40, 40, 9])
        blocks = [code.encode(g) for g in grids]
        for target in range(code.n):
            plan = code.repair_plan(target)
            availables = [{h: blk[h] for h in plan.helpers} for blk in blocks]
            rebuilt = pipeline.batch_reconstruct(code, target, plan.helpers, availables)
            for blk, out, available in zip(blocks, rebuilt, availables):
                assert np.array_equal(out, blk[target])
                assert np.array_equal(out, code.reconstruct(target, available, plan)[0])

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_wide_and_narrow_groups_in_one_batch(self, name, make, traced, monkeypatch):
        """Groups wider than a kernel cache block are coded in place into the
        shared output, narrower ones staged first; encode, decode and
        reconstruct stay byte-identical to the per-group calls, and the
        blocks they return are column slices the store can checksum."""
        from repro.obs.trace import Tracer, use_tracer

        monkeypatch.setenv("REPRO_POOL_KB", "64")  # cache block <= 32 768 symbols
        code = make()
        grids = make_grids(code, [40_000, 64, 0, 33_000, 31, 35_000])
        per_group = [code.encode(g) for g in grids]
        target = 0
        plan = code.repair_plan(target)
        survivors = [b for b in range(code.n) if b != target]
        with use_tracer(Tracer() if traced else None):
            batched = pipeline.batch_encode(code, grids)
            decoded = pipeline.batch_decode(
                code, [{b: blk[b] for b in survivors} for blk in batched]
            )
            rebuilt = pipeline.batch_reconstruct(
                code, target, plan.helpers, [{h: blk[h] for h in plan.helpers} for blk in batched]
            )
        for grid, want, got, dec, reb in zip(grids, per_group, batched, decoded, rebuilt):
            assert np.array_equal(got, want)
            assert np.array_equal(dec, grid)
            assert np.array_equal(reb, want[target])
        store = DistributedFileSystem(Cluster.homogeneous(1)).store
        store.put(0, "wide", 0, batched[0][1])
        assert not batched[0][1].flags.c_contiguous or code.N == 1
        assert store.verify(0, "wide", 0)

    def test_single_segment_short_circuits(self, name, make):
        code = make()
        (grid,) = make_grids(code, [33])
        (batched,) = pipeline.batch_encode(code, [grid])
        assert np.array_equal(batched, code.encode(grid))

    def test_batch_encode_rejects_bad_shape(self, name, make):
        code = make()
        with pytest.raises(ValueError):
            pipeline.batch_encode(code, [np.zeros((1, 4), dtype=code.gf.dtype)])


# ----------------------------------------------------------- striped files


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
class TestStripedBatched:
    def test_batched_write_read_roundtrip_with_ragged_tail(self, name, make):
        _, dfs, sfs, meta, payload = build_striped(make)
        assert meta.group_count > 1
        assert meta.original_size % meta.group_payload != 0  # tail exercised
        assert sfs.read_file("f") == payload
        assert codes_layer_read(dfs, meta.group_names()) == payload

    def test_batched_write_matches_per_group_write(self, name, make):
        """The per-group write is the codes layer's: every group's stored
        blocks are ``code.encode`` of that group's stripe grid."""
        payload = payload_bytes(90_000, seed=4)
        dfs = DistributedFileSystem(Cluster.homogeneous(30))
        meta = StripedFileSystem(dfs).write_file("f", payload, make, max_block_bytes=4096)
        assert meta.group_count > 1 and meta.original_size % meta.group_payload  # full groups + tail
        for i, g in enumerate(meta.group_names()):
            ef = dfs.file(g)
            blocks = ef.code.encode(group_grid(payload, meta, i, ef.code))
            assert sorted(ef.placement) == list(range(ef.code.n))
            for b in ef.placement:
                assert np.array_equal(stored_block(dfs, ef, b), blocks[b]), (g, b)

    def test_single_group_file(self, name, make):
        cluster = Cluster.homogeneous(30)
        sfs = StripedFileSystem(DistributedFileSystem(cluster))
        payload = payload_bytes(2_000, seed=6)
        meta = sfs.write_file("f", payload, make, max_block_bytes=1 << 20)
        assert meta.group_count == 1
        assert sfs.read_file("f") == payload

    def test_batched_read_with_server_failure(self, name, make):
        cluster, dfs, sfs, meta, payload = build_striped(make)
        ef = dfs.file(group_name("f", 0))
        cluster.fail(ef.server_of(0))
        assert sfs.read_file("f") == payload
        assert codes_layer_read(dfs, meta.group_names()) == payload
        assert dfs.metrics.total("degraded_reads") > 0

    def test_batched_read_with_flaky_helper(self, name, make):
        # Block 1's server answers every read with a transient error; the
        # degraded read must plan around it and still be byte-exact.
        probe = make()
        cluster = Cluster.homogeneous(30)
        dfs = DistributedFileSystem(cluster)
        sfs = StripedFileSystem(dfs)
        payload = payload_bytes(60_000, seed=12)
        sfs.write_file("f", payload, make, max_block_bytes=4096)
        ef = dfs.file(group_name("f", 0))
        cluster.fail(ef.server_of(0))
        model = FaultModel(TransientErrors(rate=1.0, servers=frozenset({ef.server_of(1)})))
        dfs.store.install_faults(model, dfs.clock)
        assert sfs.read_file("f") == payload

    def test_zero_copy_and_batch_metrics(self, name, make):
        probe = make()
        stripe = 4096 // (probe.N * probe.gf.dtype.itemsize)
        gp = probe.data_stripe_total * stripe * probe.gf.dtype.itemsize
        # Tail of total+1 payload symbols: needs padding.  Padding is
        # trimmed off the last piece, not copied out of a side grid:
        # "copied" means field widening / narrowing and nothing else, and
        # a GF(2^8) file has none (tests/test_read_assembly.py pins the
        # GF(2^16) side).
        cluster = Cluster.homogeneous(30)
        dfs = DistributedFileSystem(cluster)
        sfs = StripedFileSystem(dfs)
        payload = payload_bytes(3 * gp + probe.data_stripe_total + 1, seed=9)
        meta = sfs.write_file("f", payload, make, max_block_bytes=4096)
        assert dfs.metrics.total("batch_applies") >= 1
        assert dfs.metrics.total("batch_groups") >= meta.group_count - 1
        assert sfs.read_file("f") == payload
        stored = dfs.metrics.total("disk_bytes_written") - dfs.file(group_name("f", 3)).block_size * probe.n
        assert dfs.metrics.total("bytes_moved_zero_copy") == stored + len(payload)
        assert dfs.metrics.total("bytes_copied") == 0


# ------------------------------------------------------------- bulk repair


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
class TestBulkRepair:
    def test_batched_repair_server(self, name, make):
        cluster, dfs, sfs, meta, payload = build_striped(make)
        victim = dfs.file(group_name("f", 0)).server_of(0)
        cluster.fail(victim)
        report = RepairManager(dfs).repair_server(victim)
        assert report.blocks_rebuilt > 0
        assert dfs.metrics.total("batch_applies") > 0
        for g in meta.group_names():
            ef = dfs.file(g)
            assert all(s != victim for s in ef.placement.values())
        assert sfs.read_file("f") == payload

    def test_batched_repair_matches_unbatched_accounting(self, name, make):
        """The unbatched reference is the codes layer's: every rebuilt block
        is ``code.reconstruct`` of its plan's helpers, and every report
        carries ``code.repair_plan``'s accounting."""
        cluster, dfs, sfs, meta, payload = build_striped(make)
        victim = dfs.file(group_name("f", 0)).server_of(0)
        lost = {
            (g, b) for g in meta.group_names() for b in dfs.file(g).blocks_on_server(victim)
        }
        cluster.fail(victim)
        report = RepairManager(dfs).repair_server(victim)
        assert {(r.file, r.block) for r in report.reports} == lost and len(lost) > 1
        for r in report.reports:
            ef = dfs.file(r.file)
            plan = ef.code.repair_plan(r.block, {r.block})
            block_bytes = ef.block_size * ef.code.gf.dtype.itemsize
            assert (r.helpers, r.bytes_read) == (plan.helpers, plan.bytes_read(block_bytes))
            assert r.bytes_written == block_bytes and r.target_server == ef.server_of(r.block)
            helpers = {h: stored_block(dfs, ef, h) for h in plan.helpers}
            want, _ = ef.code.reconstruct(r.block, helpers, plan)
            assert np.array_equal(stored_block(dfs, ef, r.block), want)
        assert sfs.read_file("f") == payload

    def test_bulk_repair_with_flaky_helper_falls_back(self, name, make):
        cluster, dfs, sfs, meta, payload = build_striped(make)
        ef = dfs.file(group_name("f", 0))
        victim = ef.server_of(0)
        helper = ef.server_of(1)
        cluster.fail(victim)
        model = FaultModel(TransientErrors(rate=1.0, servers=frozenset({helper})))
        dfs.store.install_faults(model, dfs.clock)
        report = RepairManager(dfs).repair_server(victim)
        assert report.blocks_rebuilt > 0
        assert sfs.read_file("f") == payload


# --------------------------------------------------------------- scrubbing


class TestBatchedScrubHeal:
    def test_batch_heal_reverifies(self):
        cluster, dfs, sfs, meta, payload = build_striped(lambda: GalloperCode(4, 2, 1))
        for i in (0, 1):
            ef = dfs.file(group_name("f", i))
            dfs.store.corrupt(ef.server_of(2), ef.name, 2, offset=3)
        report = Scrubber(dfs).scrub()
        assert len(report.corrupted) == 2
        assert len(report.repairs) == 2
        assert report.reverified == 2
        assert dfs.metrics.total("scrub_reverified") == 2
        assert sfs.read_file("f") == payload
        assert Scrubber(dfs).scrub().healthy

    def test_batch_heal_matches_unbatched(self):
        """The unbatched reference is the codes layer's ``repair_plan`` /
        ``reconstruct``, and the heal lands where the corrupt copy was."""
        cluster, dfs, sfs, meta, payload = build_striped(lambda: PyramidCode(4, 2, 1))
        ef = dfs.file(group_name("f", 1))
        server = ef.server_of(0)
        pristine = stored_block(dfs, ef, 0).copy()
        dfs.store.corrupt(server, ef.name, 0)
        assert not np.array_equal(stored_block(dfs, ef, 0), pristine)
        report = Scrubber(dfs).scrub()
        plan = ef.code.repair_plan(0, {0})
        assert [(r.file, r.block, r.helpers) for r in report.repairs] == [(ef.name, 0, plan.helpers)]
        assert report.repairs[0].bytes_read == plan.bytes_read(pristine.nbytes)
        assert ef.server_of(0) == server  # healed where it was
        helpers = {h: stored_block(dfs, ef, h) for h in plan.helpers}
        assert np.array_equal(stored_block(dfs, ef, 0), ef.code.reconstruct(0, helpers, plan)[0])
        assert np.array_equal(stored_block(dfs, ef, 0), pristine)
        assert sfs.read_file("f") == payload


# ------------------------------------------------------------ stats helper


def test_run_striped_stats_smoke():
    from repro.cli import run_striped_stats

    stats = run_striped_stats(lambda: GalloperCode(4, 2, 1), groups=4, block_bytes=2048)
    assert stats["groups"] == 4
    assert stats["derived"]["groups_per_apply"] >= 1.0
    assert stats["derived"]["zero_copy_fraction"] > 0.5
    assert stats["metrics"]["batch_applies"] >= 1


# ------------------------------------------- one pipeline, any batch size


FIELDS = {"gf8": GF256, "gf16": GF65536}
FAMILIES = {
    "rs": lambda gf: ReedSolomonCode(4, 2, gf=gf),
    "pyramid": lambda gf: PyramidCode(4, 2, 1, gf=gf),
    "galloper": lambda gf: GalloperCode(4, 2, 1, gf=gf),
}
STRIPE = 16  # symbols per stripe: small blocks, the property is about paths not bytes


@st.composite
def damaged_striped_files(draw):
    """A striped file's shape plus the servers that crashed and the one that errors."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    field = draw(st.sampled_from(sorted(FIELDS)))
    groups = draw(st.sampled_from([1, 2, 5]))  # 5 comes with a ragged tail
    code = FAMILIES[family](FIELDS[field])
    servers = list(range(2 * code.n))
    failed = draw(st.lists(st.sampled_from(servers), max_size=code.n - code.k, unique=True))
    flaky = draw(st.none() | st.sampled_from([s for s in servers if s not in failed]))
    return family, field, groups, tuple(failed), flaky


def build_damaged(family, field, groups, failed, flaky):
    code = FAMILIES[family](FIELDS[field])
    cluster = Cluster.homogeneous(2 * code.n)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    group_bytes = code.data_stripe_total * STRIPE
    size = groups * group_bytes - (group_bytes // 2 + 3 if groups == 5 else 0)
    payload = payload_bytes(size, seed=groups)
    meta = sfs.write_file("f", payload, lambda: code, max_block_bytes=code.N * STRIPE)
    assert meta.group_count == groups
    for server in failed:
        cluster.fail(server)
    if flaky is not None:
        faults = FaultModel(TransientErrors(rate=1.0, servers=frozenset({flaky})))
        dfs.store.install_faults(faults, dfs.clock)
    return cluster, dfs, sfs, meta, payload


@given(damaged_striped_files(), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_batch_size_reads_and_repairs_alike(shape, data):
    *_, failed, flaky = shape
    cluster, dfs, sfs, meta, payload = build_damaged(*shape)
    unreadable = set(failed) | {flaky}
    for g in meta.group_names():
        ef = dfs.file(g)
        assume(ef.code.can_decode([b for b, s in ef.placement.items() if s not in unreadable]))

    # Every whole-file read path, one group or many, is byte-exact.
    assert sfs.read_file("f") == payload
    pos = 0
    for g in meta.group_names():
        ef = dfs.file(g)
        chunk = payload[pos : pos + ef.original_size]
        pos += ef.original_size
        assert dfs.read_file(g) == chunk
        buf = bytearray(ef.original_size)
        assert dfs.read_file_into(g, buf) == len(buf) and bytes(buf) == chunk

    # One target rebuilt alone and inside an N-target batch: equal reports.
    lost = [(g, b) for s in failed[:1] for g in meta.group_names()
            for b in dfs.file(g).blocks_on_server(s)]
    if lost:
        alone = data.draw(st.sampled_from(lost))
        bulk = RepairManager(build_damaged(*shape)[1]).repair_blocks_bulk(lost)
        assert [(r.file, r.block) for r in bulk] and {(r.file, r.block) for r in bulk} == set(lost)
        (twin,) = [r for r in bulk if (r.file, r.block) == alone]
        assert RepairManager(build_damaged(*shape)[1]).repair_block(*alone) == twin

    # repair_all() leaves nothing for the next read to recover.
    dead = sum(s in failed for g in meta.group_names() for s in dfs.file(g).placement.values())
    assert len(RepairManager(dfs).repair_all()) == dead
    dfs.store.install_faults(None)  # the flaky server recovers; let its breaker close
    dfs.clock.advance(dfs.health.reset_timeout)
    dfs.metrics.reset()
    assert sfs.read_file("f") == payload
    assert dfs.metrics.total("degraded_reads") == 0
