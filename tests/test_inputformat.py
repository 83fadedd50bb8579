"""Tests for input formats (split computation over encoded files)."""

import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode, ReplicationCode, RotatedPyramidCode
from repro.core import GalloperCode
from repro.mapreduce import DataBlockInputFormat, GalloperInputFormat
from repro.storage import DistributedFileSystem
from tests.conftest import payload_bytes


@pytest.fixture
def dfs():
    return DistributedFileSystem(Cluster.homogeneous(12))


class TestDataBlockInputFormat:
    def test_pyramid_yields_only_data_blocks(self, dfs):
        ef = dfs.write_file("f", payload_bytes(14_000, seed=1), code=PyramidCode(4, 2, 1))
        splits = DataBlockInputFormat().splits(dfs, "f")
        assert len(splits) == 4
        assert {s.block for s in splits} == set(ef.code.structure.data_blocks())

    def test_splits_cover_file_exactly(self, dfs):
        ef = dfs.write_file("f", payload_bytes(14_000, seed=2), code=PyramidCode(4, 2, 1))
        splits = sorted(DataBlockInputFormat().splits(dfs, "f"), key=lambda s: s.start)
        assert splits[0].start == 0
        for a, b in zip(splits, splits[1:]):
            assert a.end == b.start
        assert splits[-1].end == ef.original_size

    def test_locality_hints_match_placement(self, dfs):
        ef = dfs.write_file("f", payload_bytes(8_000, seed=3), code=ReedSolomonCode(4, 2))
        for s in DataBlockInputFormat().splits(dfs, "f"):
            assert s.server == ef.server_of(s.block)


class TestGalloperInputFormat:
    def test_every_block_contributes(self, dfs):
        dfs.write_file("f", payload_bytes(14_000, seed=4), code=GalloperCode(4, 2, 1))
        splits = GalloperInputFormat().splits(dfs, "f")
        assert len(splits) == 7
        assert len({s.server for s in splits}) == 7

    def test_covers_file_exactly_once(self, dfs):
        ef = dfs.write_file("f", payload_bytes(14_000, seed=5), code=GalloperCode(4, 2, 1))
        splits = sorted(GalloperInputFormat().splits(dfs, "f"), key=lambda s: s.start)
        covered = 0
        for s in splits:
            assert s.start == covered
            covered = s.end
        assert covered == ef.original_size

    def test_split_sizes_proportional_to_weights(self, dfs):
        code = GalloperCode(4, 0, 1, performances=[6, 6, 6, 6, 4])
        ef = dfs.write_file("f", payload_bytes(28_000, seed=6), code=code)
        splits = {s.block: s for s in GalloperInputFormat().splits(dfs, "f")}
        assert splits[0].length > splits[4].length
        assert splits[0].length == 6 * ef.stripe_size

    def test_replication_copies_not_double_counted(self, dfs):
        ef = dfs.write_file("f", payload_bytes(4_000, seed=7), code=ReplicationCode(4, 2))
        splits = GalloperInputFormat().splits(dfs, "f")
        total = sum(s.length for s in splits)
        assert total == ef.original_size

    def test_rotated_layout_emits_runs(self, dfs):
        dfs.write_file("f", payload_bytes(28_000, seed=8), code=RotatedPyramidCode(4, 2, 1))
        splits = GalloperInputFormat().splits(dfs, "f")
        # Scattered file stripes produce multiple runs per server block.
        assert len(splits) > 7
        starts = sorted((s.start, s.end) for s in splits)
        covered = 0
        for start, end in starts:
            assert start == covered
            covered = end

    def test_degrades_to_datablock_for_classic_codes(self, dfs):
        dfs.write_file("f", payload_bytes(8_000, seed=9), code=ReedSolomonCode(4, 2))
        g = GalloperInputFormat().splits(dfs, "f")
        d = DataBlockInputFormat().splits(dfs, "f")
        assert {(s.start, s.end, s.block) for s in g} == {(s.start, s.end, s.block) for s in d}


class TestSubSplitting:
    def test_empty_trailing_extent_skipped(self, dfs):
        # Tiny payload: padding means later blocks' extents fall past EOF.
        dfs.write_file("f", b"ab", code=GalloperCode(4, 2, 1))
        splits = GalloperInputFormat().splits(dfs, "f")
        assert sum(s.length for s in splits) == 2
