"""Tests for striped files (bounded block sizes, multi-codeword files)."""

import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.faults import FaultModel
from repro.faults.model import TransientErrors
from repro.gf import GF65536
from repro.mapreduce import DataBlockInputFormat, MapReduceRuntime
from repro.mapreduce.workloads import generate_text, wordcount_job, wordcount_reference
from repro.obs import Tracer, use_tracer
from repro.storage import DistributedFileSystem, FileSystemError, RepairManager
from repro.storage.striped import StripedFileSystem, StripedInputFormat, group_name
from tests.conftest import payload_bytes


@pytest.fixture
def sfs():
    cluster = Cluster.homogeneous(30)
    dfs = DistributedFileSystem(cluster)
    return StripedFileSystem(dfs)


def galloper_factory():
    return GalloperCode(4, 2, 1)


def pyramid_factory():
    return PyramidCode(4, 2, 1)


class TestWriteRead:
    def test_roundtrip(self, sfs):
        payload = payload_bytes(300_000, seed=1)
        meta = sfs.write_file("f", payload, galloper_factory, max_block_bytes=16_384)
        assert meta.group_count > 1
        assert sfs.read_file("f") == payload

    def test_block_size_bounded(self, sfs):
        payload = payload_bytes(500_000, seed=2)
        cap = 16_384
        sfs.write_file("f", payload, galloper_factory, max_block_bytes=cap)
        for g in sfs.file("f").group_names():
            ef = sfs.dfs.file(g)
            assert ef.block_size <= cap

    def test_single_group_small_file(self, sfs):
        payload = payload_bytes(1_000, seed=3)
        meta = sfs.write_file("f", payload, galloper_factory, max_block_bytes=1 << 20)
        assert meta.group_count == 1
        assert sfs.read_file("f") == payload

    def test_group_placements_rotate(self, sfs):
        payload = payload_bytes(300_000, seed=4)
        sfs.write_file("f", payload, galloper_factory, max_block_bytes=16_384)
        meta = sfs.file("f")
        placements = [
            tuple(sorted(sfs.dfs.file(g).placement.values())) for g in meta.group_names()
        ]
        assert len(set(placements)) > 1  # spread over the cluster

    def test_extent_reads(self, sfs):
        payload = payload_bytes(250_000, seed=5)
        meta = sfs.write_file("f", payload, galloper_factory, max_block_bytes=16_384)
        gp = meta.group_payload
        # Within one group, across a boundary, spanning multiple groups.
        assert sfs.read_bytes("f", 100, 500) == payload[100:600]
        assert sfs.read_bytes("f", gp - 7, 14) == payload[gp - 7 : gp + 7]
        assert sfs.read_bytes("f", 10, 3 * gp) == payload[10 : 10 + 3 * gp]

    def test_read_past_eof(self, sfs):
        payload = payload_bytes(50_000, seed=6)
        sfs.write_file("f", payload, galloper_factory, max_block_bytes=16_384)
        assert sfs.read_bytes("f", 49_000, 99_999) == payload[49_000:]

    def test_duplicate_rejected(self, sfs):
        sfs.write_file("f", b"x" * 100, galloper_factory)
        with pytest.raises(FileSystemError):
            sfs.write_file("f", b"y" * 100, galloper_factory)

    def test_delete(self, sfs):
        sfs.write_file("f", payload_bytes(100_000, seed=7), galloper_factory, max_block_bytes=16_384)
        groups = sfs.file("f").group_names()
        sfs.delete_file("f")
        assert sfs.list_files() == []
        for g in groups:
            with pytest.raises(FileSystemError):
                sfs.dfs.file(g)

    def test_missing_file(self, sfs):
        with pytest.raises(FileSystemError):
            sfs.read_file("ghost")


class TestFailuresAndRepair:
    def test_degraded_read_across_groups(self, sfs):
        payload = payload_bytes(200_000, seed=8)
        sfs.write_file("f", payload, galloper_factory, max_block_bytes=16_384)
        victim = sfs.dfs.file(group_name("f", 0)).server_of(1)
        sfs.cluster.fail(victim)
        assert sfs.read_file("f") == payload

    def test_repair_server_heals_all_groups(self, sfs):
        payload = payload_bytes(200_000, seed=9)
        sfs.write_file("f", payload, galloper_factory, max_block_bytes=16_384)
        victim = 0
        sfs.cluster.fail(victim)
        RepairManager(sfs.dfs).repair_server(victim)
        sfs.cluster.recover(victim)
        sfs.dfs.store.drop_server(victim)
        assert sfs.read_file("f") == payload


class TestStripedMapReduce:
    def test_wordcount_correct(self, sfs):
        text = generate_text(300_000, seed=10)
        sfs.write_file("t", text, galloper_factory, max_block_bytes=16_384)
        res = MapReduceRuntime(sfs).run(wordcount_job("t"), StripedInputFormat())
        assert res.output == wordcount_reference(text)

    def test_splits_cover_file(self, sfs):
        text = generate_text(200_000, seed=11)
        sfs.write_file("t", text, galloper_factory, max_block_bytes=16_384)
        splits = sorted(StripedInputFormat().splits(sfs, "t"), key=lambda s: s.start)
        covered = 0
        for s in splits:
            assert s.start == covered
            covered = s.end
        assert covered == len(text)

    def test_more_groups_more_map_tasks(self, sfs):
        text = generate_text(200_000, seed=12)
        sfs.write_file("t", text, galloper_factory, max_block_bytes=16_384)
        meta = sfs.file("t")
        splits = StripedInputFormat().splits(sfs, "t")
        assert len(splits) == meta.group_count * 7

    def test_inner_format_pluggable(self, sfs):
        text = generate_text(150_000, seed=13)
        sfs.write_file(
            "t", text, lambda: PyramidCode(4, 2, 1), max_block_bytes=16_384
        )
        splits = StripedInputFormat(inner=DataBlockInputFormat()).splits(sfs, "t")
        meta = sfs.file("t")
        assert len(splits) == meta.group_count * 4  # data blocks only

    def test_sub_splitting(self, sfs):
        text = generate_text(150_000, seed=14)
        sfs.write_file("t", text, galloper_factory, max_block_bytes=16_384)
        splits = StripedInputFormat(max_split_bytes=4_000).splits(sfs, "t")
        assert all(s.length <= 4_000 for s in splits)
        res = MapReduceRuntime(sfs).run(
            wordcount_job("t"), StripedInputFormat(max_split_bytes=4_000)
        )
        assert res.output == wordcount_reference(text)


class TestSharedPlans:
    def test_groups_share_one_code_instance(self, sfs):
        payload = payload_bytes(300_000, seed=21)
        sfs.write_file("f", payload, galloper_factory, max_block_bytes=16_384)
        meta = sfs.file("f")
        assert meta.group_count > 1
        codes = {id(sfs.dfs.file(g).code) for g in meta.group_names()}
        assert len(codes) == 1  # compiled plans shared by every group

    @pytest.mark.parametrize("fused", [True, False])
    def test_files_with_equal_parameters_share_one_code_instance(self, sfs, fused):
        # The factory builds a fresh object per file; the filesystem keeps
        # the first and hands it to every later group, whether the group
        # arrives pre-encoded from the fused encode (whole groups only) or
        # through the single-group write (one short group).
        total = galloper_factory().data_stripe_total
        size = 4 * (4 * 16_384 // total * total) if fused else 30_000
        for name, seed in (("f", 22), ("g", 24)):
            meta = sfs.write_file(
                name, payload_bytes(size, seed=seed), galloper_factory, max_block_bytes=16_384
            )
            assert (meta.group_count, size % meta.group_payload == 0) == ((4, True) if fused else (1, False))
        sfs.write_file("p", payload_bytes(size, seed=25), pyramid_factory, max_block_bytes=16_384)

        def codes_of(name):
            return {id(sfs.dfs.file(g).code) for g in sfs.file(name).group_names()}

        assert len(codes_of("f") | codes_of("g")) == 1
        assert codes_of("p").isdisjoint(codes_of("f"))
        assert sfs.read_file("g") == payload_bytes(size, seed=24)

    def test_shared_code_repair_storm_hits_plan_cache(self, sfs):
        payload = payload_bytes(300_000, seed=23)
        sfs.write_file("f", payload, galloper_factory, max_block_bytes=16_384)
        meta = sfs.file("f")
        rm = RepairManager(sfs.dfs)
        # Lose block 0 of every group: same (target, helpers) pattern, so
        # the shared code compiles one plan and one fused apply rebuilds
        # every group.
        for g in meta.group_names():
            ef = sfs.dfs.file(g)
            sfs.dfs.store.drop(ef.server_of(0), g, 0)
        code = sfs.dfs.file(meta.group_names()[0]).code
        code.clear_plan_cache()
        applies = sfs.dfs.metrics.total("batch_applies")
        assert len(rm.repair_all()) == meta.group_count
        assert code.plan_cache_info()["misses"] == 1
        assert sfs.dfs.metrics.total("batch_applies") == applies + 1
        assert sfs.dfs.metrics.total("batch_groups") >= meta.group_count
        assert sfs.read_file("f") == payload


WIDE_FIELD_CODES = {
    "rs": lambda: ReedSolomonCode(4, 3, gf=GF65536),
    "pyramid": lambda: PyramidCode(4, 2, 1, gf=GF65536),
    "galloper": lambda: GalloperCode(4, 2, 1, gf=GF65536),
}


class TestWideField:
    """GF(2^16) groups hold one payload byte per 16-bit symbol; the whole-file
    read once sized its output in bytes and its groups in symbols."""

    @pytest.mark.parametrize("local", [True, False])
    @pytest.mark.parametrize("code_name", sorted(WIDE_FIELD_CODES))
    def test_read_file_clean_and_one_server_down(self, code_name, local):
        """Both stages of the degraded read over the wide field: the lost
        block rebuilt from its helpers (``local``), or — one of those
        helpers answering every read with an error — decoded in full."""
        cluster = Cluster.homogeneous(9)
        dfs = DistributedFileSystem(cluster)
        sfs = StripedFileSystem(dfs)
        payload = payload_bytes(100_000, seed=31)
        meta = sfs.write_file("f", payload, WIDE_FIELD_CODES[code_name], max_block_bytes=8192)
        assert meta.group_count > 1  # full groups and a ragged tail
        assert sfs.read_file("f") == payload
        assert sfs.read_bytes("f", 0, len(payload)) == payload

        group0 = dfs.file(group_name("f", 0))
        cluster.fail(group0.server_of(0))
        if not local:
            helper = group0.code.repair_plan(0).helpers[0]
            flaky = frozenset({group0.server_of(helper)})
            dfs.store.install_faults(FaultModel(TransientErrors(rate=1.0, servers=flaky)), dfs.clock)
        tracer = Tracer()
        with use_tracer(tracer):
            assert sfs.read_file("f") == payload
        if local:
            assert tracer.find("pipeline.batch_reconstruct") and not tracer.find("pipeline.batch_decode")
        else:
            assert tracer.find("pipeline.batch_decode") and dfs.metrics.total("retries") > 0
        assert dfs.metrics.total("degraded_reads") >= 1
