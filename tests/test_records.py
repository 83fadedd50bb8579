"""Tests for record readers: Hadoop split-boundary semantics.

The crucial invariant: however the file is tiled into splits, every record
is produced by exactly one split.
"""

import pytest

from repro.cluster import Cluster
from repro.codes import ReedSolomonCode
from repro.core import GalloperCode
from repro.mapreduce import FixedLengthRecordReader, LineRecordReader
from repro.storage import DistributedFileSystem


def make_dfs(payload: bytes, code=None):
    dfs = DistributedFileSystem(Cluster.homogeneous(10))
    dfs.write_file("f", payload, code=code or GalloperCode(4, 2, 1))
    return dfs


def collect(reader, dfs, splits):
    out = []
    for start, end in splits:
        out.extend(reader.records(dfs, "f", start, end))
    return out


class TestLineRecords:
    PAYLOAD = b"alpha beta\ngamma\n\ndelta epsilon zeta\neta\ntheta"

    def test_whole_file_single_split(self):
        dfs = make_dfs(self.PAYLOAD)
        lines = list(LineRecordReader().records(dfs, "f", 0, len(self.PAYLOAD)))
        assert lines == self.PAYLOAD.split(b"\n")

    @pytest.mark.parametrize("cut", range(1, 45))
    def test_two_splits_tile_exactly(self, cut):
        dfs = make_dfs(self.PAYLOAD)
        n = len(self.PAYLOAD)
        lines = collect(LineRecordReader(), dfs, [(0, cut), (cut, n)])
        assert lines == self.PAYLOAD.split(b"\n"), cut

    def test_three_way_tiling(self):
        dfs = make_dfs(self.PAYLOAD)
        n = len(self.PAYLOAD)
        for a in (5, 11, 17):
            for b in (23, 30, 40):
                lines = collect(LineRecordReader(), dfs, [(0, a), (a, b), (b, n)])
                assert lines == self.PAYLOAD.split(b"\n"), (a, b)

    def test_split_on_newline_boundary(self):
        payload = b"aa\nbb\ncc\n"
        dfs = make_dfs(payload)
        # Cut exactly after a newline (offset 3): line 'bb' starts at 3,
        # which belongs to the first split under Hadoop semantics.
        lines = collect(LineRecordReader(), dfs, [(0, 3), (3, len(payload))])
        assert lines == [b"aa", b"bb", b"cc"]

    def test_trailing_unterminated_line(self):
        payload = b"one\ntwo\nthree-without-newline"
        dfs = make_dfs(payload)
        lines = collect(LineRecordReader(), dfs, [(0, 6), (6, len(payload))])
        assert lines == [b"one", b"two", b"three-without-newline"]

    def test_file_ending_with_newline(self):
        payload = b"one\ntwo\n"
        dfs = make_dfs(payload)
        lines = list(LineRecordReader().records(dfs, "f", 0, len(payload)))
        assert lines == [b"one", b"two"]

    def test_empty_split(self):
        dfs = make_dfs(self.PAYLOAD)
        assert list(LineRecordReader().records(dfs, "f", 10, 10)) == []

    def test_split_past_eof(self):
        dfs = make_dfs(b"abc\ndef")
        assert list(LineRecordReader().records(dfs, "f", 100, 200)) == []


class TestFixedLengthRecords:
    def test_tiling_never_duplicates(self):
        record = 10
        payload = b"".join(bytes([65 + i]) * record for i in range(8))  # 8 records
        dfs = make_dfs(payload)
        reader = FixedLengthRecordReader(record)
        for cut in range(1, len(payload)):
            recs = collect(reader, dfs, [(0, cut), (cut, len(payload))])
            assert len(recs) == 8, cut
            assert recs == [bytes([65 + i]) * record for i in range(8)], cut

    def test_partial_trailing_record_dropped(self):
        payload = b"A" * 10 + b"B" * 10 + b"C" * 4
        dfs = make_dfs(payload)
        recs = list(FixedLengthRecordReader(10).records(dfs, "f", 0, len(payload)))
        assert recs == [b"A" * 10, b"B" * 10]

    def test_record_spanning_split_boundary(self):
        payload = b"A" * 10 + b"B" * 10
        dfs = make_dfs(payload)
        reader = FixedLengthRecordReader(10)
        first = list(reader.records(dfs, "f", 0, 15))
        second = list(reader.records(dfs, "f", 15, 20))
        assert first == [b"A" * 10, b"B" * 10]  # owns the record starting at 10
        assert second == []

    def test_invalid_record_size(self):
        with pytest.raises(ValueError):
            FixedLengthRecordReader(0)


class TestReadersOverDegradedFiles:
    def test_lines_readable_after_failures(self):
        payload = b"\n".join(b"line %d" % i for i in range(200))
        dfs = make_dfs(payload)
        ef = dfs.file("f")
        dfs.cluster.fail(ef.server_of(0))
        dfs.cluster.fail(ef.server_of(4))
        lines = list(LineRecordReader().records(dfs, "f", 0, len(payload)))
        assert lines == payload.split(b"\n")
