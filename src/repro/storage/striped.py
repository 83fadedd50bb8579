"""Striped files: bounded-size blocks for arbitrarily large files.

A single codeword's blocks grow with the file (block = file/k), which is
fine for the paper's fixed-size experiments but not for a storage
system.  Production systems (HDFS-EC striped layout, Azure's extent
model) cap block size and split large files into *stripe groups*, each an
independent codeword.

:class:`StripedFileSystem` layers that on the flat
:class:`~repro.storage.filesystem.DistributedFileSystem`: a file becomes
``ceil(size / (k * max_block_bytes))`` inner codewords named
``name#gNNNN``, placements rotated group-to-group so load (and repair
work) spreads across the cluster.  The wrapper exposes the same
``read_bytes`` / ``file().original_size`` surface the record readers and
input formats consume, so MapReduce jobs run over striped files
unchanged (via :class:`StripedInputFormat`).

A striped read has no loop of its own: the whole file, or the groups an
extent touches, are handed to the filesystem's one read routine
(:meth:`~repro.storage.filesystem.DistributedFileSystem._read`) as one
payload laid end to end — one batch for every run, whose CRC pass
delivers the bytes into the one ``bytes`` returned, and one recovery for
every degraded group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.placement import _round_robin
from repro.mapreduce.inputformat import GalloperInputFormat, InputFormat, InputSplit
from repro.obs.trace import get_tracer
from repro.storage.filesystem import DistributedFileSystem, FileSystemError, _grid


#: The span a striped read recovers its degraded groups under.
_DEGRADED_SPAN = "sfs.batch_degraded_decode"


def group_name(name: str, index: int) -> str:
    return f"{name}#g{index:04d}"


@dataclass
class StripedFileMeta:
    """Namespace entry for one striped file.

    Attributes:
        name: user-visible file name.
        original_size: total payload bytes.
        group_payload: payload bytes per full stripe group.
        group_count: number of inner codewords.
    """

    name: str
    original_size: int
    group_payload: int
    group_count: int

    def group_names(self) -> list[str]:
        return [group_name(self.name, i) for i in range(self.group_count)]


class StripedFileSystem:
    """Large-file facade over a flat DFS.

    Duck-type compatible with :class:`DistributedFileSystem` for the
    surfaces the MapReduce layer uses (``cluster``, ``file``,
    ``read_bytes``), so a :class:`~repro.mapreduce.runtime.MapReduceRuntime`
    can be constructed directly over it.
    """

    def __init__(self, dfs: DistributedFileSystem):
        self.dfs = dfs
        self.striped: dict[str, StripedFileMeta] = {}

    @property
    def cluster(self):
        return self.dfs.cluster

    @property
    def metrics(self):
        return self.dfs.metrics

    # ------------------------------------------------------------- write

    def write_file(
        self,
        name: str,
        payload,
        code_factory,
        max_block_bytes: int = 1 << 20,
    ) -> StripedFileMeta:
        """Write a payload as rotated stripe groups.

        Args:
            name: file name.
            payload: bytes (or byte-like) content.
            code_factory: zero-argument callable building the code; a
                factory keeps the API uniform with performance-aware
                construction.
            max_block_bytes: cap on each stored block's size.

        Group ``i`` is placed round-robin from server ``i * n`` on (over
        the alive servers, in id order), so groups land on different
        servers.  Every group, a ragged tail included, is encoded through
        **one** fused kernel call and stored in one batch.  Every group is
        written with the one code object the filesystem keeps for codes
        built from the factory's constructor arguments, so the compiled
        encode plan and any decode / repair plans are built once and
        shared by all groups — and by every other file written with a
        code built from those arguments.
        """
        if name in self.striped:
            raise FileSystemError(f"striped file {name!r} already exists")
        data = payload if isinstance(payload, (bytes, bytearray, memoryview)) else bytes(payload)
        code = self.dfs._intern_code(code_factory())
        group_payload = code.k * max_block_bytes
        # Align so each group's payload divides into k*N equal stripes.
        total = code.data_stripe_total
        group_payload = max(total, (group_payload // total) * total)
        group_count = max(1, -(-len(data) // group_payload))
        meta = StripedFileMeta(
            name=name,
            original_size=len(data),
            group_payload=group_payload,
            group_count=group_count,
        )
        # Every group name is checked before the first group is stored, so
        # a write that would clash stores and registers nothing.
        names = meta.group_names()
        taken = next((g for g in names if g in self.dfs.files), None)
        if taken is not None:
            raise FileSystemError(f"file {taken!r} already exists")
        with get_tracer().span(
            "sfs.write_file", category="storage", file=name,
            bytes=len(data), groups=group_count,
            clock=getattr(self.dfs, "clock", None),
        ):
            self._write_batched(name, names, data, code, meta)
        self.striped[name] = meta
        return meta

    def _write_batched(self, name, names, data, code, meta: StripedFileMeta) -> None:
        """Encode every group in one fused kernel call, store them in one batch.

        The full groups are viewed as one ``(groups, k*N, S)`` stack
        without copying (``np.frombuffer`` over the caller's bytes), which
        the native gather reads as one row range; the final short group,
        whose stripe width differs after padding (the ragged tail), is
        padded as :meth:`DistributedFileSystem.write_file` pads a file.
        Every group is placed from one ``alive_ids()``, and the stack and
        the tail are one :meth:`DistributedFileSystem._write`.
        """
        gp = meta.group_payload
        total = code.data_stripe_total
        full = len(data) // gp
        arr = np.frombuffer(data, dtype=np.uint8)
        grids, sizes = [], [gp] * full
        if full:
            stack = arr[: full * gp].reshape(full, total, gp // total)
            if stack.dtype != code.gf.dtype:
                stack = stack.astype(code.gf.dtype)
                self.metrics.add("bytes_copied", stack.nbytes)
            grids.append(stack)
        if full < meta.group_count:
            tail = DistributedFileSystem._as_symbols(code, arr[full * gp :])
            grids.append(_grid(tail, total))
            sizes.append(tail.size)
        n = code.n
        with get_tracer().span("dfs.place", category="storage", file=name, files=meta.group_count):
            servers = _round_robin(self.cluster, n, range(0, meta.group_count * n, n))
        self.dfs._write(code, names, grids, servers, sizes)
        if full:
            self.metrics.add("bytes_moved_zero_copy", stack.nbytes // total * n * code.N)

    # -------------------------------------------------------------- read

    def file(self, name: str) -> StripedFileMeta:
        try:
            return self.striped[name]
        except KeyError:
            raise FileSystemError(f"no striped file {name!r}") from None

    def read_bytes(self, name: str, offset: int, length: int) -> bytes:
        """Read an arbitrary extent: the groups it touches, read as one payload.

        One call of the filesystem's read routine
        (:meth:`DistributedFileSystem._read`): the runs within the extent
        of every group it touches are read in one batch, and the groups
        with runs it could not read are recovered together.
        """
        meta = self.file(name)
        if offset < 0:
            raise FileSystemError("negative offset")
        length = min(length, meta.original_size - offset)
        if length <= 0:
            return b""
        group_payload = meta.group_payload
        first = offset // group_payload
        base = first * group_payload
        end = offset + length - base  # the extent's end in the groups from ``first`` on
        dfs = self.dfs
        groups = [dfs.file(group_name(name, g)) for g in range(first, first + 1 + (end - 1) // group_payload)]
        return dfs._read(groups, length, offset - base, end, _DEGRADED_SPAN)

    def read_file(self, name: str) -> bytes:
        """Read the whole file: every group delivered into one new ``bytes``.

        Every run of every group is read in one batch, whose CRC pass
        copies each run's rows, less the padding behind its group's last
        stripe, into their place in the ``bytes`` returned as it hashes
        them: the one pass over the payload — nothing is zeroed beforehand
        or joined afterwards.  Groups with unreadable runs are recovered
        together once every group has been read:
        :meth:`DistributedFileSystem._recover` fuses those that lost the
        same block, or decode from the same survivors, into one kernel
        call per failure pattern, and what it rebuilt is copied into
        those runs' places.
        """
        meta = self.file(name)
        files = [self.dfs.file(g) for g in meta.group_names()]
        with get_tracer().span(
            "sfs.read_file", category="storage", file=name,
            bytes=meta.original_size, groups=meta.group_count, clock=self.dfs.clock,
        ):
            return self.dfs._read(files, meta.original_size, degraded_span=_DEGRADED_SPAN)


class StripedInputFormat(InputFormat):
    """Splits for striped files: Galloper splits, globally offset.

    Applies :class:`~repro.mapreduce.inputformat.GalloperInputFormat` to
    each group and shifts its splits by the group's base offset,
    preserving the locality hints.
    """

    def splits(self, sfs: StripedFileSystem, file_name: str) -> list[InputSplit]:
        meta = sfs.file(file_name)
        inner = GalloperInputFormat()
        out: list[InputSplit] = []
        for i in range(meta.group_count):
            base = i * meta.group_payload
            for s in inner.splits(sfs.dfs, group_name(file_name, i)):
                out.append(InputSplit(file_name, base + s.start, base + s.end, s.server, s.block))
        return out
