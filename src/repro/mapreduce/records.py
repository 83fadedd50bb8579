"""Record readers with Hadoop split-boundary semantics.

An input split is a byte extent that rarely lands on record boundaries.
Hadoop's convention, reproduced here: a record belongs to exactly one
split even though splits tile the file arbitrarily.  For line records the
rule is positional — split ``[start, end)`` owns the lines whose first
byte falls in ``(start, end]`` (plus the line at offset 0 for the first
split); a reader therefore skips forward past the first newline when
``start > 0`` and reads *past* ``end`` to finish its last line, fetching
the tail from wherever those bytes live (possibly another server).  For
fixed-length records ownership follows the record's first byte.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.storage.filesystem import DistributedFileSystem

#: Read granularity of the buffered scanners.
_CHUNK = 64 * 1024


def _scan_lines(
    dfs: DistributedFileSystem, file_name: str, pos: int, size: int
) -> Iterator[tuple[int, bytes]]:
    """Yield ``(line_start, line)`` for every line starting at/after ``pos``."""
    buf = b""
    line_start = pos
    fetch_at = pos
    while True:
        nl = buf.find(b"\n")
        if nl >= 0:
            yield line_start, buf[:nl]
            line_start += nl + 1
            buf = buf[nl + 1 :]
            continue
        if fetch_at >= size:
            if buf:
                yield line_start, buf
            return
        chunk = dfs.read_bytes(file_name, fetch_at, _CHUNK)
        if not chunk:
            if buf:
                yield line_start, buf
            return
        fetch_at += len(chunk)
        buf += chunk


class RecordReader:
    """Base interface: iterate the records of one split."""

    def records(
        self, dfs: DistributedFileSystem, file_name: str, start: int, end: int
    ) -> Iterator[bytes]:
        raise NotImplementedError


class LineRecordReader(RecordReader):
    """Newline-delimited records (wordcount / grep inputs)."""

    def records(self, dfs, file_name: str, start: int, end: int) -> Iterator[bytes]:
        size = dfs.file(file_name).original_size
        end = min(end, size)
        if start >= size or end <= start:
            return
        if start == 0:
            pos = 0
        else:
            # Find the first line starting strictly after `start` — the
            # partial (or boundary) first line belongs to the previous split.
            pos = self._next_line_start(dfs, file_name, start, size)
            if pos is None:
                return
        for line_start, line in _scan_lines(dfs, file_name, pos, size):
            if line_start > end:
                return
            yield line

    @staticmethod
    def _next_line_start(dfs, file_name: str, start: int, size: int) -> int | None:
        """Offset of the first line starting at a position > ``start``."""
        pos = start
        while pos < size:
            chunk = dfs.read_bytes(file_name, pos, _CHUNK)
            if not chunk:
                return None
            idx = chunk.find(b"\n")
            if idx >= 0:
                nxt = pos + idx + 1
                return nxt if nxt < size else None
            pos += len(chunk)
        return None


class FixedLengthRecordReader(RecordReader):
    """Fixed-size records (terasort's 100-byte rows).

    A record belongs to the split containing its first byte; trailing
    bytes are fetched across the boundary when necessary.  A final partial
    record (file size not a multiple of the record size) is dropped, as
    Hadoop's FixedLengthInputFormat does.
    """

    def __init__(self, record_size: int):
        if record_size < 1:
            raise ValueError("record_size must be >= 1")
        self.record_size = record_size

    def records(self, dfs, file_name: str, start: int, end: int) -> Iterator[bytes]:
        size = dfs.file(file_name).original_size
        end = min(end, size)
        rs = self.record_size
        rec = -(-start // rs)  # ceil: first record starting inside the split
        while rec * rs < end:
            lo = rec * rs
            if lo + rs > size:
                break  # trailing partial record is dropped
            yield dfs.read_bytes(file_name, lo, rs)
            rec += 1
