"""Targeted tests for corners the broad suites skim over."""

import numpy as np
import pytest

from repro.bench.harness import Table, saving, time_call
from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.storage import DistributedFileSystem
from tests.conftest import payload_bytes


class TestEncodedFileHelpers:
    @pytest.fixture
    def ef(self):
        dfs = DistributedFileSystem(Cluster.homogeneous(10))
        return dfs.write_file("f", payload_bytes(14_000, seed=40), code=GalloperCode(4, 2, 1))

    def test_blocks_on_server(self, ef):
        for b, server in ef.placement.items():
            assert b in ef.blocks_on_server(server)

    def test_stripe_holder(self, ef):
        holders = ef.code.read_plan().holders
        assert len(holders) == ef.code.data_stripe_total
        for fs, (block, row) in enumerate(holders):
            assert ef.code.block_infos[block].file_stripes[row] == fs

    def test_stripe_holder_missing(self):
        dfs = DistributedFileSystem(Cluster.homogeneous(8))
        ef = dfs.write_file("f", payload_bytes(4_000, seed=41), code=ReedSolomonCode(4, 2))
        assert 99 not in dfs.stripe_holders("f") and len(dfs.stripe_holders("f")) == ef.code.data_stripe_total


class TestReadStripeRunGrouping:
    def test_run_grouped_reads_touch_each_block_once(self):
        """A contiguous multi-stripe read within one block should issue a
        single range read, not one read per stripe."""
        dfs = DistributedFileSystem(Cluster.homogeneous(10))
        code = GalloperCode(4, 2, 1)
        ef = dfs.write_file("f", payload_bytes(14_000, seed=42), code=code)
        dfs.metrics.reset()
        dfs.read_stripes("f", 0, code.block_infos[0].data_stripes)
        assert dfs.metrics.total("blocks_read") == 1

    def test_cross_block_read_touches_two(self):
        dfs = DistributedFileSystem(Cluster.homogeneous(10))
        code = GalloperCode(4, 2, 1)
        ef = dfs.write_file("f", payload_bytes(14_000, seed=43), code=code)
        c0 = code.block_infos[0].data_stripes
        dfs.metrics.reset()
        dfs.read_stripes("f", c0 - 1, 2)
        assert dfs.metrics.total("blocks_read") == 2


class TestHarness:
    def test_table_column_access(self):
        t = Table(title="t", columns=("a",))
        t.add(a=1)
        t.add(a=2)
        assert t.column("a") == [1, 2]

    def test_time_call_returns_positive(self):
        assert time_call(lambda: sum(range(100)), repeats=2) >= 0

    def test_saving_edge_cases(self):
        assert saving(10, 10) == 0.0
        assert saving(10, 0) == 100.0

    def test_render_empty_table(self):
        t = Table(title="empty", columns=("x", "y"))
        out = t.render()
        assert "empty" in out


class TestStructureEdges:
    def test_mirror_groups(self):
        """l == k gives per-block mirrors (locality 1)."""
        code = PyramidCode(4, 4, 1)
        for b in range(8):
            if code.structure.role_of(b) != "global_parity":
                assert code.repair_plan(b).blocks_read == 1

    def test_galloper_mirror_groups(self):
        code = GalloperCode(4, 4, 1)
        assert code.verify_systematic()
        from repro.gf import random_symbols

        data = random_symbols(code.gf, (code.data_stripe_total, 3), seed=44)
        blocks = code.encode(data)
        rebuilt, plan = code.reconstruct(0, {b: blocks[b] for b in range(code.n) if b != 0})
        assert np.array_equal(rebuilt, blocks[0])
        assert plan.blocks_read == 1


class TestMetricsByServer:
    def test_write_accounting_per_server(self):
        cluster = Cluster.homogeneous(8)
        dfs = DistributedFileSystem(cluster)
        ef = dfs.write_file("f", payload_bytes(7_000, seed=45), code=PyramidCode(4, 2, 1))
        by_server = dfs.metrics.by_server("disk_bytes_written")
        assert set(by_server) == set(ef.placement.values())
        assert len(set(by_server.values())) == 1  # equal-size blocks


class TestCLIFiguresRegistry:
    def test_every_registered_figure_exists(self):
        import repro.bench as bench
        from repro.cli import FIGURES

        for fig, fn_name in FIGURES.items():
            assert hasattr(bench, fn_name), fig
