"""Input formats: how a job sees an encoded file.

The decisive difference between running a job over classic locally
repairable codes and over Galloper codes is *where map tasks can run*
(paper Fig. 2):

* :class:`DataBlockInputFormat` — the stock behaviour: one split per
  *data block*; parity blocks contribute nothing, so a (4, 2, 1) Pyramid
  file fans out to only 4 servers.
* :class:`GalloperInputFormat` — the paper's custom ``FileInputFormat``:
  every block contributes a split covering its original-data extent (the
  boundary comes from the code's :class:`~repro.codes.base.BlockInfo`), so
  all ``k + l + g`` servers run map tasks, sized by the block's weight.

Each split is one whole block extent, the unit whose locality hint the
scheduler honours.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.base import ROLE_DATA
from repro.storage.filesystem import DistributedFileSystem, EncodedFile


@dataclass(frozen=True)
class InputSplit:
    """A byte extent of the original file, with a locality hint.

    Attributes:
        file: file name.
        start / end: byte extent ``[start, end)`` of the *original* file.
        server: the server storing these bytes verbatim (locality target).
        block: the block storing them.
    """

    file: str
    start: int
    end: int
    server: int
    block: int

    @property
    def length(self) -> int:
        return self.end - self.start


class InputFormat:
    """Base: computes splits for a file."""

    def splits(self, dfs: DistributedFileSystem, file_name: str) -> list[InputSplit]:
        ef = dfs.file(file_name)
        raw = self._block_extents(ef)
        out: list[InputSplit] = []
        for block, start_stripe, n_stripes in raw:
            start = start_stripe * ef.stripe_size
            end = min((start_stripe + n_stripes) * ef.stripe_size, ef.original_size)
            if end <= start:
                continue
            out.append(InputSplit(file_name, start, end, ef.server_of(block), block))
        return out

    def _block_extents(self, ef: EncodedFile) -> list[tuple[int, int, int]]:
        """``(block, first_file_stripe, stripe_count)`` contributions."""
        raise NotImplementedError


class DataBlockInputFormat(InputFormat):
    """Splits over data-role blocks only (classic erasure-coded files).

    For systematic N = 1 codes (Reed-Solomon, Pyramid) each data block is
    one contiguous file extent; parity blocks are skipped because general
    map functions cannot run on parity data (paper Sec. I).
    """

    def _block_extents(self, ef: EncodedFile) -> list[tuple[int, int, int]]:
        out = []
        for info in ef.code.block_infos:
            if info.role != ROLE_DATA or not info.data_stripes:
                continue
            out.append((info.index, info.file_stripes[0], info.data_stripes))
        return out


class GalloperInputFormat(InputFormat):
    """Splits over the original-data extent of *every* block.

    Works for any code whose blocks advertise verbatim file stripes —
    Galloper, Carousel, replication (copies beyond the first are skipped
    to avoid double-counting), and even classic codes (where it degrades
    to :class:`DataBlockInputFormat` behaviour).
    """

    def _block_extents(self, ef: EncodedFile) -> list[tuple[int, int, int]]:
        out = []
        claimed: set[int] = set()
        for info in ef.code.block_infos:
            if not info.data_stripes:
                continue
            fresh = [fs for fs in info.file_stripes if fs not in claimed]
            if not fresh:
                continue
            claimed.update(fresh)
            # Emit maximal contiguous runs (Galloper extents are one run;
            # rotated layouts may produce several).
            run_start = fresh[0]
            prev = fresh[0]
            for fs in fresh[1:] + [None]:
                if fs is not None and fs == prev + 1:
                    prev = fs
                    continue
                out.append((info.index, run_start, prev - run_start + 1))
                if fs is not None:
                    run_start = prev = fs
        return out
