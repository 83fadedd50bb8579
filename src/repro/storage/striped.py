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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.placement import PlacementPolicy, RoundRobinPlacement
from repro.mapreduce.inputformat import GalloperInputFormat, InputFormat, InputSplit
from repro.obs.trace import get_tracer
from repro.storage import pipeline
from repro.storage.filesystem import (
    DistributedFileSystem,
    FileSystemError,
    _join_symbols,
    _symbol_chunks,
)


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
    tags: dict = field(default_factory=dict)

    def group_of_offset(self, offset: int) -> int:
        return min(offset // self.group_payload, self.group_count - 1)

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
        placement: PlacementPolicy | None = None,
    ) -> StripedFileMeta:
        """Write a payload as rotated stripe groups.

        Args:
            name: file name.
            payload: bytes (or byte-like) content.
            code_factory: zero-argument callable building the code; a
                factory keeps the API uniform with performance-aware
                construction.
            max_block_bytes: cap on each stored block's size.
            placement: base placement policy; the group index is used as
                a rotation offset so groups land on different servers.

        All full groups are encoded through **one** fused kernel call; a
        ragged tail group rides separately.  Every group is written with
        the one code object the filesystem keeps for the factory's
        parameter set, so the compiled encode plan and any decode / repair
        plans are built once and shared by all groups — and by every other
        file with those parameters.
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
        with get_tracer().span(
            "sfs.write_file", category="storage", file=name,
            bytes=len(data), groups=group_count,
            clock=getattr(self.dfs, "clock", None),
        ):
            self._write_batched(name, data, code, meta, placement)
        self.striped[name] = meta
        return meta

    def _write_batched(self, name, data, code, meta: StripedFileMeta, placement) -> None:
        """Encode every full group in one fused kernel call.

        The payload is viewed as a ``(groups, k*N, S)`` stack without
        copying (``np.frombuffer`` over the caller's bytes); the batch
        apply stacks group columns once and runs one generator product.
        The final short group — whose stripe width differs after padding
        — is the ragged tail and takes the ordinary single-group path
        with the same shared code.
        """
        gp = meta.group_payload
        total = code.data_stripe_total
        stripe = gp // total
        full = len(data) // gp
        arr = np.frombuffer(data, dtype=np.uint8)
        if full:
            grids = arr[: full * gp].reshape(full, total, stripe)
            if grids.dtype != code.gf.dtype:
                grids = grids.astype(code.gf.dtype)
                self.metrics.add("bytes_copied", grids.nbytes)
            blocks = pipeline.batch_encode(code, list(grids), metrics=self.metrics)
            for i in range(full):
                pol = placement or RoundRobinPlacement(offset=i * code.n)
                self.dfs.write_encoded(
                    group_name(name, i), code, blocks[i], original_size=gp, placement=pol
                )
        if full < meta.group_count:
            tail = arr[full * gp :]
            pol = placement or RoundRobinPlacement(offset=full * code.n)
            self.dfs.write_file(group_name(name, full), tail, code=code, placement=pol)

    # -------------------------------------------------------------- read

    def file(self, name: str) -> StripedFileMeta:
        try:
            return self.striped[name]
        except KeyError:
            raise FileSystemError(f"no striped file {name!r}") from None

    def read_bytes(self, name: str, offset: int, length: int) -> bytes:
        """Read an arbitrary extent, stitching across stripe groups."""
        meta = self.file(name)
        if offset < 0:
            raise FileSystemError("negative offset")
        length = max(0, min(length, meta.original_size - offset))
        parts: list[bytes] = []
        pos = offset
        remaining = length
        while remaining > 0:
            g = meta.group_of_offset(pos)
            inner_off = pos - g * meta.group_payload
            inner = self.dfs.file(group_name(name, g))
            take = min(remaining, inner.original_size - inner_off)
            if take <= 0:  # pragma: no cover - defensive
                break
            parts.append(self.dfs.read_bytes(group_name(name, g), inner_off, take))
            pos += take
            remaining -= take
        return b"".join(parts)  # an extent inside one group is returned as it came

    def read_file(self, name: str) -> bytes:
        """Read the whole file: collect every group's pieces, join once.

        A group contributes the row views its reads returned
        (:meth:`DistributedFileSystem._read_available_stripes`), less the
        padding behind its last stripe; the one ``b"".join`` over all of
        them is the only pass over the payload — no output buffer is
        allocated, zeroed or copied beforehand.  Groups with unreadable
        runs are recovered together once every group has been read:
        :meth:`DistributedFileSystem._recover` fuses those that lost the
        same block, or decode from the same survivors, into one kernel
        call per failure pattern, and their pieces are slices of what it
        rebuilt.
        """
        meta = self.file(name)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "sfs.read_file", category="storage", file=name,
                bytes=meta.original_size, groups=meta.group_count,
                clock=getattr(self.dfs, "clock", None),
            ):
                return self._read_file(meta)
        return self._read_file(meta)

    def _read_file(self, meta: StripedFileMeta) -> bytes:
        groups = []
        for g in meta.group_names():
            ef = self.dfs.file(g)
            groups.append((ef, self.dfs._read_available_stripes(ef)))
        pending = [entry for entry in groups if any(piece is None for piece in entry[1])]
        if pending:
            with get_tracer().span(
                "sfs.batch_degraded_decode", category="coding", groups=len(pending),
                clock=getattr(self.dfs, "clock", None),
            ):
                self.dfs._recover(pending)
        chunks: list[np.ndarray] = []
        for ef, pieces in groups:
            chunks += _symbol_chunks(pieces, 0, ef.padded_size - ef.original_size)
        self.dfs._count_delivered(groups[0][0].code, meta.original_size)
        return _join_symbols(chunks)

    def delete_file(self, name: str) -> None:
        meta = self.file(name)
        for g in meta.group_names():
            self.dfs.delete_file(g)
        del self.striped[name]

    def list_files(self) -> list[str]:
        return sorted(self.striped)


class StripedInputFormat(InputFormat):
    """Splits for striped files: inner-format splits, globally offset.

    Wraps any single-codeword input format (Galloper by default) and
    shifts each group's splits by the group's base offset, preserving the
    locality hints.
    """

    def __init__(self, inner: InputFormat | None = None, max_split_bytes: int | None = None):
        super().__init__(max_split_bytes)
        self.inner = inner or GalloperInputFormat()

    def splits(self, sfs: StripedFileSystem, file_name: str) -> list[InputSplit]:
        meta = sfs.file(file_name)
        out: list[InputSplit] = []
        for i in range(meta.group_count):
            base = i * meta.group_payload
            for s in self.inner.splits(sfs.dfs, group_name(file_name, i)):
                start, end = base + s.start, base + s.end
                if self.max_split_bytes:
                    pos = start
                    while pos < end:
                        nxt = min(pos + self.max_split_bytes, end)
                        out.append(InputSplit(file_name, pos, nxt, s.server, s.block))
                        pos = nxt
                else:
                    out.append(InputSplit(file_name, start, end, s.server, s.block))
        return out
